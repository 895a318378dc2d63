"""OpenQASM 2.0 emission. Write-only: no parsing, no measurement statements.

All seven gates of the IR alphabet exist in qelib1.inc, so no custom gate
definitions are needed. Angles print with 17 significant digits for
bit-exact reproducibility; a nonzero global phase becomes a trailing
comment, since OpenQASM 2.0 has no phase statement.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .circuit import Gate, QuantumCircuit

_HEADER = ('OPENQASM 2.0;', 'include "qelib1.inc";')

_STATEMENT_RES = (
    re.compile(r"OPENQASM 2\.0;$"),
    re.compile(r'include "qelib1\.inc";$'),
    re.compile(r"qreg q\[[1-9]\d*\];$"),
    re.compile(r"(h|s|sdg) q\[\d+\];$"),
    re.compile(r"(rz|rx)\((-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)\) q\[\d+\];$"),
    re.compile(r"(cx|cz) q\[\d+\],q\[\d+\];$"),
    re.compile(r"// global phase: -?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"),
)


def _angle(value: float) -> str:
    return f"{value:.17g}"


def _qasm_lines(n_qubits: int, gates: Iterable[Gate], phase: float) -> Iterator[str]:
    """The lines of the document for ``n_qubits``, the gates in order and the
    global phase, without line endings. ``gates`` may be a stream: it is
    read once, one gate per line."""
    yield from _HEADER
    yield f"qreg q[{n_qubits}];"
    for gate in gates:
        if gate.angle is not None:
            yield f"{gate.kind}({_angle(gate.angle)}) q[{gate.qubits[0]}];"
        elif len(gate.qubits) == 1:
            yield f"{gate.kind} q[{gate.qubits[0]}];"
        else:
            yield f"{gate.kind} q[{gate.qubits[0]}],q[{gate.qubits[1]}];"
    if phase != 0.0:
        yield f"// global phase: {_angle(phase)}"


def emit_qasm(circuit: QuantumCircuit) -> str:
    """Render the circuit as an OpenQASM 2.0 document (LF endings, trailing newline).

    Emission is deterministic: identical circuits produce byte-identical
    text.
    """
    return "\n".join(_qasm_lines(circuit.n_qubits, circuit.gates, circuit.global_phase)) + "\n"


def validate_qasm(text: str) -> None:
    """Check a document against the regular grammar of the supported statements.

    Raises ValueError naming the first offending line. Used by the test
    suite to keep the emitter honest.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("document must end with a newline")
    lines = lines[:-1]
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";']:
        raise ValueError("missing or malformed OpenQASM 2.0 header")
    if len(lines) < 3 or not _STATEMENT_RES[2].match(lines[2]):
        raise ValueError("expected a qreg declaration after the header")
    for lineno, line in enumerate(lines, start=1):
        if not any(rx.match(line) for rx in _STATEMENT_RES):
            raise ValueError(f"line {lineno} is not a supported statement: {line!r}")
