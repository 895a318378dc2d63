"""Command-line front-end: synth / trotter / verify / stats.

``synth`` and ``trotter`` write exactly one OpenQASM document to stdout (or
``--out``), with no banner lines, so they are safe to pipe. ``verify``
checks a synthesized circuit against the dense-matrix oracle and reports the
phase-invariant distance. ``stats`` prints the gate histogram.

Exit codes: 0 success / verification PASS, 1 parse or usage error, 2
verification FAIL, 3 verification impossible because the size cap of the
dense oracle is exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from contextlib import nullcontext
from typing import Sequence

from .circuit import GATE_KINDS
from .parser import ParseError, parse_hamiltonian
from .paulis import Hamiltonian
from .qasm import _qasm_lines
from .synth import EvolutionParams, SynthVariant, _product, trotter_circuit

VERIFY_THRESHOLD = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run_cli controls the exit code
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# options whose value may start with "-": a Hamiltonian "-1*Z0", a file name,
# or an angle "-1e-3" that argparse's negative-number pattern does not match
_DASH_VALUE_OPTIONS = frozenset({"--ham", "--ham-file", "--t"})


def _attach_values(argv: Sequence[str]) -> list[str]:
    """argv with each ``--opt value`` of ``_DASH_VALUE_OPTIONS`` written as
    ``--opt=value``, so argparse takes the next argument as the value
    whatever it starts with. An option with no next argument is left as is."""
    args = iter(argv)
    attached = []
    for arg in args:
        if arg in _DASH_VALUE_OPTIONS and (value := next(args, None)) is not None:
            arg = f"{arg}={value}"
        attached.append(arg)
    return attached


def _ascii(text: str) -> str:
    """``text`` unless it holds what int() and float() take but the
    Hamiltonian grammar does not: a non-ASCII digit or ``_``."""
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"must be ASCII with no '_', got {text!r}")
    return text


def _positive_int(text: str) -> int:
    value = int(_ascii(text))
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(_ascii(text))
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser, compact: bool = False, out: bool = False) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--ham", help="Hamiltonian expression, e.g. '0.5*Z0 Z1 + 0.3*X0'")
    source.add_argument("--ham-file", help="path to a .ham file (same grammar, # comments)")
    sub.add_argument("--n", type=_positive_int, required=True, help="number of qubits")
    sub.add_argument("--t", type=_finite_float, required=True, help="evolution angle t")
    sub.add_argument(
        "--variant",
        choices=[v.value for v in SynthVariant],
        default=SynthVariant.Z_LADDER.value,
        help="synthesis construction (default: z-ladder)",
    )
    if compact:
        sub.add_argument("--compact", action="store_true", help="run peephole cancellation")
    if out:
        sub.add_argument("--out", help="write the QASM document here instead of stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pauliexp", description=__doc__, add_help=True)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="synthesize one slice and emit OpenQASM")
    _add_common(synth, compact=True, out=True)
    synth.set_defaults(run=_emit, reps=1)

    trotter = subs.add_parser("trotter", help="synthesize a Trotter product and emit OpenQASM")
    _add_common(trotter, compact=True, out=True)
    trotter.add_argument("--reps", type=_positive_int, default=1, help="Trotter slices")
    trotter.set_defaults(run=_emit)

    verify = subs.add_parser("verify", help="check the synthesis against the matrix oracle")
    _add_common(verify)
    verify.set_defaults(run=_verify)
    verify.add_argument(
        "--exact",
        action="store_true",
        help="compare against the exponential of the full Hamiltonian "
        "instead of the per-term product",
    )

    stats = subs.add_parser("stats", help="print the gate histogram of one slice")
    _add_common(stats, compact=True)
    stats.set_defaults(run=_stats)
    return parser


def _load_hamiltonian(ns: argparse.Namespace) -> Hamiltonian:
    if ns.ham is not None:
        text = ns.ham
    else:
        with open(ns.ham_file, encoding="utf-8") as fh:
            text = fh.read()
    return parse_hamiltonian(text, ns.n)


def _emit(ns: argparse.Namespace, h: Hamiltonian) -> int:
    """Write the QASM document of the Trotter product to ``--out`` or stdout
    line by line through the stream's buffer, so the whole text never exists
    at once.

    No circuit is built either: the gates stream from synthesis, through the
    peephole with ``--compact``. Every term is checked before the target is
    opened, so an error leaves stdout empty and creates no file.
    """
    params = EvolutionParams(ns.t, ns.reps)
    gates, phase = _product(h, params, SynthVariant(ns.variant), ns.compact)
    lines = _qasm_lines(h.n_qubits, gates, phase)
    if ns.out:
        target = open(ns.out, "w", encoding="utf-8", newline="\n")
    else:
        target = nullcontext(sys.stdout)
    with target as fh:
        fh.writelines(lines)
    return 0


def _verify(ns: argparse.Namespace, h: Hamiltonian) -> int:
    # only verify needs the dense oracle, and with it numpy
    from .oracle import (
        MAX_EXPM_QUBITS,
        _check_qubit_cap,
        _per_term_distance,
        circuit_unitary,
        hamiltonian_matrix,
        matrix_exponential,
        phase_invariant_distance,
    )

    try:
        _check_qubit_cap(h.n_qubits)
    except ValueError as exc:
        print(f"cannot verify: {exc}", file=sys.stderr)
        return 3
    if ns.exact:
        try:
            _check_qubit_cap(h.n_qubits, MAX_EXPM_QUBITS, "matrix exponential")
        except ValueError as exc:
            print(f"cannot verify --exact: {exc}", file=sys.stderr)
            return 3
    circuit = trotter_circuit(h, EvolutionParams(ns.t), SynthVariant(ns.variant))
    if ns.exact:
        reference = matrix_exponential(hamiltonian_matrix(h), ns.t)
        distance = phase_invariant_distance(circuit_unitary(circuit), reference)
    else:
        distance = _per_term_distance(circuit, h, ns.t)
    passed = distance <= VERIFY_THRESHOLD
    print(f"{distance:.6e} {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


def _stats(ns: argparse.Namespace, h: Hamiltonian) -> int:
    gates, _ = _product(h, EvolutionParams(ns.t), SynthVariant(ns.variant), ns.compact)
    counts = Counter(gate.kind for gate in gates)
    for kind in GATE_KINDS:
        if counts[kind]:
            print(f"{kind}={counts[kind]}")
    return 0


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_attach_values(argv))
        h = _load_hamiltonian(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error at offset {exc.position}: {exc.message}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read Hamiltonian file: {exc}", file=sys.stderr)
        return 1

    try:
        return ns.run(ns, h)
    except ValueError as exc:  # e.g. rotation angle overflowing to inf
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
