"""Independent output checker for the pauliexp benchmark.

Nothing here imports pauliexp: the QASM reader, the state-vector simulator,
the reference evolution and the commutation test are the benchmark's own, so
a defect in the program cannot hide behind the code that checks it.

Every check raises :class:`CheckError` with a message naming the problem.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

TOLERANCE = 1e-8
SIM_MAX_QUBITS = 10

_GATE_RE = re.compile(
    r"(h|s|sdg|rz|rx|cx|cz)(?:\(([^()]*)\))? q\[(\d+)\](?:,q\[(\d+)\])?;"
)
_PHASE_RE = re.compile(r"// global phase: (\S+)")
_ONE_QUBIT = {"h", "s", "sdg", "rz", "rx"}
_ROTATIONS = {"rz", "rx"}
_TWO_QUBIT = {"cx", "cz"}
_VERIFY_RE = re.compile(r"(\S+) (PASS|FAIL)\n")
_STATS_RE = re.compile(r"(cx|cz|rz|rx|h|s|sdg)=([1-9]\d*)")


class CheckError(Exception):
    """An output the checker rejects."""


@dataclass(frozen=True)
class Ham:
    """A weighted sum of Pauli strings, as the benchmark generated it.

    Each term is ``(coefficient, ((qubit, op), ...))`` with ascending qubits;
    an empty factor tuple is the identity string.
    """

    n: int
    terms: tuple[tuple[float, tuple[tuple[int, str], ...]], ...]

    def text(self, comment: str) -> str:
        """The .ham file contents, in the program's input grammar."""
        rendered = []
        for coef, factors in self.terms:
            body = " ".join(f"{op}{q}" for q, op in factors) if factors else "Id"
            rendered.append(f"{coef!r}*{body}")
        return f"# {comment}\n" + "\n+ ".join(rendered) + "\n"


@dataclass(frozen=True)
class Doc:
    """One OpenQASM document as read by :func:`read_qasm`."""

    n: int
    gates: tuple[tuple[str, tuple[int, ...], float | None], ...]
    global_phase: float

    def histogram(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for kind, _, _ in self.gates:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def two_qubit_count(self) -> int:
        return sum(1 for kind, _, _ in self.gates if kind in _TWO_QUBIT)

    def depth(self) -> int:
        """Circuit depth by a per-qubit frontier: each gate starts one layer
        after the latest gate on any of its qubits."""
        frontier = [0] * self.n
        for _, qubits, _ in self.gates:
            layer = max(frontier[q] for q in qubits) + 1
            for q in qubits:
                frontier[q] = layer
        return max(frontier, default=0)


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{what} {text!r} is not finite")
    return value


def read_qasm(text: str, n: int) -> Doc:
    """Read a document the program emitted for ``n`` qubits.

    Accepts exactly the OpenQASM 2.0 subset the program promises: the
    header, one ``qreg q[n]``, the seven gate statements, and an optional
    trailing global-phase comment.
    """
    if not text.endswith("\n"):
        raise CheckError("document does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";']:
        raise CheckError("missing or malformed OpenQASM 2.0 header")
    if len(lines) < 3 or lines[2] != f"qreg q[{n}];":
        raise CheckError(f"expected 'qreg q[{n}];' on line 3")
    body = lines[3:]
    phase = 0.0
    if body and body[-1].startswith("//"):
        m = _PHASE_RE.fullmatch(body.pop())
        if not m:
            raise CheckError("malformed trailing comment")
        phase = _finite(m.group(1), "global phase")
    gates = []
    for lineno, line in enumerate(body, start=4):
        m = _GATE_RE.fullmatch(line)
        if not m:
            raise CheckError(f"line {lineno} is not a gate statement: {line!r}")
        kind, angle_text, a, b = m.groups()
        qubits = (int(a),) if b is None else (int(a), int(b))
        if (kind in _ONE_QUBIT) != (len(qubits) == 1):
            raise CheckError(f"line {lineno}: wrong qubit count for {kind}")
        if (kind in _ROTATIONS) != (angle_text is not None):
            raise CheckError(f"line {lineno}: angle present where not allowed, or missing")
        if any(q >= n for q in qubits):
            raise CheckError(f"line {lineno}: qubit out of range for {n} qubits")
        if len(set(qubits)) != len(qubits):
            raise CheckError(f"line {lineno}: repeated qubit")
        angle = None if angle_text is None else _finite(angle_text, f"line {lineno}: angle")
        gates.append((kind, qubits, angle))
    return Doc(n, tuple(gates), phase)


def check_counts(doc: Doc, ham: Ham, reps: int, compact: bool) -> None:
    """Uncompacted output has exactly sum 2(k-1)*reps CX and one RZ per
    non-identity term and slice; compacted output has no more of either."""
    weights = [len(factors) for _, factors in ham.terms if factors]
    want_cx = sum(2 * (k - 1) for k in weights) * reps
    want_rz = len(weights) * reps
    hist = doc.histogram()
    got_cx, got_rz = hist.get("cx", 0), hist.get("rz", 0)
    if compact:
        if got_cx > want_cx or got_rz > want_rz:
            raise CheckError(
                f"compacted output has cx={got_cx} rz={got_rz}, "
                f"more than the uncompacted cx={want_cx} rz={want_rz}"
            )
    elif (got_cx, got_rz) != (want_cx, want_rz):
        raise CheckError(f"cx={got_cx} rz={got_rz}, expected cx={want_cx} rz={want_rz}")


# --- state-vector simulation: qubit q is tensor axis q --------------------

_S2 = 1 / math.sqrt(2)
_FIXED = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def _one_qubit_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind in _FIXED:
        return _FIXED[kind]
    half = angle / 2
    if kind == "rz":
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _at(n: int, fixed: dict[int, int]) -> tuple:
    """Index selecting the given value on each fixed axis, all of the rest."""
    index: list = [slice(None)] * n
    for axis, value in fixed.items():
        index[axis] = value
    return tuple(index)


def simulate(doc: Doc, psi: np.ndarray) -> np.ndarray:
    """Apply the document's gates, first line first, to a state tensor."""
    psi = psi.copy()
    n = doc.n
    for kind, qubits, angle in doc.gates:
        if kind == "cx":
            a, b = qubits
            sub = psi[_at(n, {a: 1})]
            psi[_at(n, {a: 1})] = np.flip(sub, axis=b - (b > a)).copy()
        elif kind == "cz":
            a, b = qubits
            psi[_at(n, {a: 1, b: 1})] *= -1
        else:
            q = qubits[0]
            psi = np.moveaxis(np.tensordot(_one_qubit_matrix(kind, angle), psi, axes=([1], [q])), 0, q)
    return psi


def apply_pauli(factors: tuple[tuple[int, str], ...], psi: np.ndarray) -> np.ndarray:
    """P psi for a Pauli string given as ((qubit, op), ...)."""
    out = psi.copy()
    n = psi.ndim
    for q, op in factors:
        if op in "XY":
            out = np.flip(out, axis=q).copy()
        if op == "Z":
            out[_at(n, {q: 1})] *= -1
        elif op == "Y":  # Y = [[0, -i], [i, 0]]: after the flip, scale 0 by -i and 1 by i
            out[_at(n, {q: 0})] *= -1j
            out[_at(n, {q: 1})] *= 1j
    return out


def reference_evolution(ham: Ham, t: float, reps: int, psi: np.ndarray) -> np.ndarray:
    """First-order Trotter product from closed forms: per slice and term in
    order, psi <- cos(a) psi - i sin(a) P psi with a = (t / reps) * w."""
    slice_t = t / reps
    for _ in range(reps):
        for coef, factors in ham.terms:
            a = slice_t * coef
            psi = math.cos(a) * psi - 1j * math.sin(a) * apply_pauli(factors, psi)
    return psi


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return (psi / np.linalg.norm(psi)).reshape((2,) * n)


def state_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of ||a - exp(i phi) b|| for two state tensors."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def check_simulation(doc: Doc, ham: Ham, t: float, reps: int, seed: int) -> float:
    """Compare the document with the reference evolution on a seeded random
    state, up to global phase. Returns the distance."""
    psi = random_state(doc.n, seed)
    distance = state_distance(simulate(doc, psi), reference_evolution(ham, t, reps, psi))
    if not distance <= TOLERANCE:
        raise CheckError(f"state distance {distance:.3e} exceeds {TOLERANCE:g}")
    return distance


# --- verdicts and histograms ----------------------------------------------


def commutes(a: tuple[tuple[int, str], ...], b: tuple[tuple[int, str], ...]) -> bool:
    """Symplectic test: two Pauli strings commute iff they differ (both
    non-identity) on an even number of qubits."""
    ops_b = dict(b)
    clashes = sum(1 for q, op in a if q in ops_b and ops_b[q] != op)
    return clashes % 2 == 0


def known_verdict(ham: Ham, exact: bool) -> str:
    """The answer ``verify`` must give. Per-term mode checks synthesis only,
    so it always passes; ``--exact`` passes iff every pair of terms commutes
    (the generated weights and angles keep any Trotter error far above the
    threshold)."""
    if not exact:
        return "PASS"
    factors = [f for _, f in ham.terms]
    ok = all(commutes(a, b) for i, a in enumerate(factors) for b in factors[i + 1 :])
    return "PASS" if ok else "FAIL"


def check_verdict(stdout: str, exit_code: int, expected: str) -> None:
    m = _VERIFY_RE.fullmatch(stdout)
    if not m:
        raise CheckError(f"malformed verify output {stdout!r}")
    distance = _finite(m.group(1), "distance")
    verdict = m.group(2)
    if verdict != expected:
        raise CheckError(f"verdict {verdict}, known answer {expected}")
    if (distance <= TOLERANCE) != (verdict == "PASS"):
        raise CheckError(f"verdict {verdict} disagrees with distance {distance:.3e}")
    want_code = 0 if expected == "PASS" else 2
    if exit_code != want_code:
        raise CheckError(f"exit code {exit_code}, expected {want_code}")


def check_stats(stdout: str, histogram: dict[str, int]) -> None:
    """``stats`` must print the histogram of the matching synth document."""
    printed = {}
    for line in stdout.splitlines():
        m = _STATS_RE.fullmatch(line)
        if not m or m.group(1) in printed:
            raise CheckError(f"malformed stats line {line!r}")
        printed[m.group(1)] = int(m.group(2))
    if printed != histogram:
        raise CheckError(f"stats {printed} differ from the synth document {histogram}")
