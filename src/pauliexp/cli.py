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
import sys
from collections import Counter
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from functools import partial

from .circuit import GATE_KINDS
from .parser import ParseError, parse_hamiltonian
from .paulis import Hamiltonian
from .qasm import _qasm_lines, _qasm_text
from .synth import EvolutionParams, SynthVariant, _expand, _product, trotter_circuit

VERIFY_THRESHOLD = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run_cli controls the exit code
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        # argparse's own, but with the leftover text shown by _echo
        ns, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_echo(' '.join(extras), str)}")
        return ns


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


def _echo(text: str, form: Callable[[str], str] = repr) -> str:
    """``form(text)``, quoted by default, for a message; past 32 characters,
    more than any float's repr takes, it is named by its length, so the
    message stays one short line."""
    return form(text) if len(text) <= 32 else f"a text of {len(text)} characters"


def _reason(exc: OSError | UnicodeDecodeError) -> str:
    """``str(exc)``, but a file name too long for the system, which is past
    32 characters whatever the system, is named by :func:`_echo`."""
    import errno  # here, so that `import pauliexp.cli` under `python -S` does not load it

    if isinstance(exc, OSError) and exc.errno == errno.ENAMETOOLONG:
        return f"[Errno {exc.errno}] {exc.strerror}: {_echo(str(exc.filename))}"
    return str(exc)


def _ascii(text: str) -> str:
    """``text`` unless it holds what int() and float() take but the
    Hamiltonian grammar does not: a non-ASCII digit or ``_``."""
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"must be ASCII with no '_', got {_echo(text)}")
    return text


def _number(kind: type[int] | type[float], text: str) -> int | float:
    """``kind(text)`` for ASCII option text. A text that ``kind`` rejects reads
    ``invalid int value`` or ``invalid float value``, where argparse would
    name this reader."""
    try:
        return kind(_ascii(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {_echo(text)}") from None


_VARIANTS = [v.value for v in SynthVariant]


def _variant(text: str) -> SynthVariant:
    """The synthesis variant ``text`` names; otherwise argparse's message
    for an invalid choice, with the text shown by :func:`_echo`."""
    if text not in _VARIANTS:
        choices = ", ".join(map(repr, _VARIANTS))
        raise argparse.ArgumentTypeError(f"invalid choice: {_echo(text)} (choose from {choices})")
    return SynthVariant(text)


def _add_common(sub: argparse.ArgumentParser, compact: bool = False, out: bool = False) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--ham", help="Hamiltonian expression, e.g. '0.5*Z0 Z1 + 0.3*X0'")
    source.add_argument("--ham-file", help="path to a .ham file (same grammar, # comments)")
    sub.add_argument("--n", type=partial(_number, int), required=True, help="number of qubits")
    sub.add_argument("--t", type=partial(_number, float), required=True, help="evolution angle t")
    sub.add_argument(
        "--variant",
        type=_variant,
        metavar="{" + ",".join(_VARIANTS) + "}",
        default=SynthVariant.Z_LADDER,
        help="synthesis construction (default: z-ladder)",
    )
    if compact:
        sub.add_argument("--compact", action="store_true", help="run peephole cancellation")
    if out:
        sub.add_argument("--out", help="write the QASM document here instead of stdout")
    sub.set_defaults(reps=1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pauliexp", description=__doc__, add_help=True)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="synthesize one slice and emit OpenQASM")
    _add_common(synth, compact=True, out=True)
    synth.set_defaults(run=_emit)

    trotter = subs.add_parser("trotter", help="synthesize a Trotter product and emit OpenQASM")
    _add_common(trotter, compact=True, out=True)
    trotter.add_argument("--reps", type=partial(_number, int), help="Trotter slices")
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


def _emit(ns: argparse.Namespace, h: Hamiltonian, params: EvolutionParams) -> int:
    """Write the QASM document of the Trotter product to ``--out`` or stdout
    through the stream, one string per chunk of the product's runs, so the
    whole text never exists at once: one per term without ``--compact``; with
    it the spliced middle is formatted once and written ``reps - 2`` times
    between copy 1's and copy 2's survivors, or the full pass's survivors go
    out a slice's length at a time (:func:`_product`).

    No circuit is built either. Every term is checked, and the peephole run,
    before the target is opened, so an error leaves stdout empty and creates
    no file.
    """
    runs, phase = _product(h, params, ns.variant, ns.compact)
    pieces = _qasm_lines(h.n_qubits, _expand(runs, _qasm_text), phase)
    if ns.out:
        target = open(ns.out, "w", encoding="utf-8", newline="\n")
    else:
        target = nullcontext(sys.stdout)
    with target as fh:
        fh.writelines(pieces)
    return 0


def _verify(ns: argparse.Namespace, h: Hamiltonian, params: EvolutionParams) -> int:
    # only verify needs the dense oracle, and with it numpy
    from .oracle import MAX_EXPM_QUBITS, _check_qubit_cap, _exact_distance, _per_term_distance

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
    circuit = trotter_circuit(h, params, ns.variant)
    distance = (_exact_distance if ns.exact else _per_term_distance)(circuit, h, params.t)
    passed = distance <= VERIFY_THRESHOLD
    print(f"{distance:.6e} {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


def _stats(ns: argparse.Namespace, h: Hamiltonian, params: EvolutionParams) -> int:
    runs, _ = _product(h, params, ns.variant, ns.compact)
    counts = Counter(gate.kind for gates in _expand(runs) for gate in gates)
    for kind in GATE_KINDS:
        if counts[kind]:
            print(f"{kind}={counts[kind]}")
    return 0


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_attach_values(argv))
        params = EvolutionParams(ns.t, ns.reps)
        h = _load_hamiltonian(ns)
    except ParseError as exc:
        print(f"parse error at offset {exc.position}: {exc.message}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read Hamiltonian file: {_reason(exc)}", file=sys.stderr)
        return 1
    except (_UsageError, ValueError) as exc:  # ValueError: --n, --t or --reps out of range
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        return ns.run(ns, h, params)
    except ValueError as exc:  # e.g. rotation angle overflowing to inf
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {_reason(exc)}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
