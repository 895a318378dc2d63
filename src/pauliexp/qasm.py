"""OpenQASM 2.0 emission, and a validator for the documents it emits. No
measurement statements.

All seven gates of the IR alphabet exist in qelib1.inc, so no custom gate
definitions are needed. Angles print with 17 significant digits for
bit-exact reproducibility; a nonzero global phase becomes a trailing
comment, since OpenQASM 2.0 has no phase statement.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator

from .circuit import Gate, QuantumCircuit, _expect

_HEADER = ('OPENQASM 2.0;', 'include "qelib1.inc";')

# ASCII digits only: \d would also match the other Unicode digits. The
# patterns stay text until validate_qasm's first call, when re's own cache
# compiles them: emitting never needs them.
_QREG = r"qreg q\[([1-9][0-9]*)\];$"
_NUMBER = r"(-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
_INDEX = r"q\[(0|[1-9][0-9]*)\]"
# groups: the rotation angle, then the qubit indices; those the line lacks are None
_STATEMENT = rf"(?:h|s|sdg|(?:rz|rx)\({_NUMBER}\)) {_INDEX};$|(?:cx|cz) {_INDEX},{_INDEX};$"
_PHASE = rf"// global phase: {_NUMBER}$"


def _angle(value: float) -> str:
    return f"{value:.17g}"


def _gate_line(gate: Gate) -> str:
    if gate.angle is not None:
        return f"{gate.kind}({_angle(gate.angle)}) q[{gate.qubits[0]}];\n"
    if len(gate.qubits) == 1:
        return f"{gate.kind} q[{gate.qubits[0]}];\n"
    return f"{gate.kind} q[{gate.qubits[0]}],q[{gate.qubits[1]}];\n"


def _qasm_text(gates: Iterable[Gate]) -> str:
    """The statements of ``gates`` in order, one line each, as one string."""
    return "".join(map(_gate_line, gates))


def _qasm_lines(n_qubits: int, statements: Iterable[str], phase: float) -> Iterator[str]:
    """The document for ``n_qubits``, the text of its gate statements and the
    global phase, in pieces that each end in a newline. ``statements`` may be
    a stream: it is read once, and each of its strings is one piece."""
    for line in _HEADER:
        yield f"{line}\n"
    yield f"qreg q[{n_qubits}];\n"
    yield from statements
    if phase != 0.0:
        yield f"// global phase: {_angle(phase)}\n"


def emit_qasm(circuit: QuantumCircuit) -> str:
    """Render the circuit as an OpenQASM 2.0 document (LF endings, trailing newline).

    Emission is deterministic: identical circuits produce byte-identical
    text.
    """
    _expect(circuit, QuantumCircuit, "circuit must be a QuantumCircuit")
    statements = map(_gate_line, circuit.gates)
    return "".join(_qasm_lines(circuit.n_qubits, statements, circuit.global_phase))


def validate_qasm(text: str) -> None:
    """Check a document against the regular grammar of the supported statements:
    the header and one qreg on lines 1-3, then gates with finite angles on
    distinct qubits inside the register, and at most one global phase
    comment, finite and last.

    Raises ValueError naming the first offending line. Used by the test
    suite to keep the emitter honest. A ``text`` that is not a str raises
    TypeError naming its type.
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, got {type(text).__name__}")
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("document must end with a newline")
    lines = lines[:-1]
    if lines[:2] != list(_HEADER):
        raise ValueError("missing or malformed OpenQASM 2.0 header")
    qreg = re.match(_QREG, lines[2]) if len(lines) > 2 else None
    if not qreg:
        raise ValueError("expected a qreg declaration after the header")
    size = qreg[1]
    body = lines[3:]
    if body and (phase := re.match(_PHASE, body[-1])):
        if not math.isfinite(float(phase[1])):
            raise ValueError(f"line {len(lines)} needs a finite global phase: {body[-1]!r}")
        body.pop()
    for lineno, line in enumerate(body, start=4):
        match = re.match(_STATEMENT, line)
        if not match:
            raise ValueError(f"line {lineno} is not a supported statement: {line!r}")
        angle, *indices = match.groups()
        if angle is not None and not math.isfinite(float(angle)):
            raise ValueError(f"line {lineno} needs a finite angle: {line!r}")
        # with no leading zeros, digit strings order as numbers by length, then text
        qubits = [(len(index), index) for index in indices if index is not None]
        if max(qubits) >= (len(size), size) or len(set(qubits)) != len(qubits):
            raise ValueError(f"line {lineno} needs distinct qubits below {size}: {line!r}")
