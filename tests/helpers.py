"""Shared random generators, reference implementations and test machinery
for the test suite: the property-test harness, the memory probe and the
fresh interpreter.

All random generators take a seeded Random from the caller.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path
from random import Random

import numpy as np

from pauliexp import (
    Gate,
    Hamiltonian,
    PauliOp,
    PauliString,
    PauliTerm,
    QuantumCircuit,
    circuit_unitary,
    phase_invariant_distance,
)
from pauliexp.synth import _term_gates

try:
    from hypothesis import example, given, seed, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - depends on the environment
    st = None

PAULI_CHARS = "IXYZ"


def property_test(examples: int, strategy, draw, fixed=()):
    """Run the decorated check on the ``fixed`` cases and ``examples`` drawn
    ones. With hypothesis installed they come from ``strategy(st)``, seeded
    from the check's name, so editing its body keeps its draws; without it,
    from ``draw(rng)`` in a loop named after the check, with
    ``rng = Random(check.__name__)``."""

    def decorate(check):
        if st is not None:
            test = given(strategy(st))(check)
            for case in fixed:
                test = example(case)(test)
            run = settings(max_examples=examples, derandomize=True, database=None, deadline=None)
            return seed(check.__name__)(run(test))

        def loop():
            rng = Random(check.__name__)
            for case in fixed:
                check(case)
            for _ in range(examples):
                check(draw(rng))

        loop.__name__ = check.__name__
        return loop

    return decorate


def traced(fn, *args):
    """(fn(*args), peak, retained): the bytes allocated at fn's peak and
    those still allocated when it returned, above what was live at
    ``tracemalloc.start()``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, retained - before


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports pauliexp from
    this checkout, in ``cwd``, with its stdout and stderr captured as text."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


def random_pauli_label(rng: Random, n: int, min_weight: int = 0) -> str:
    while True:
        label = "".join(rng.choice(PAULI_CHARS) for _ in range(n))
        if sum(ch != "I" for ch in label) >= min_weight:
            return label


def label_of(n: int, x: int, z: int) -> str:
    """Character k is I, X, Z or Y for bits (x_k, z_k) = 00, 10, 01, 11."""
    return "".join("IXZY"[(x >> k & 1) | (z >> k & 1) << 1] for k in range(n))


def for_labels(min_n: int, max_n: int, examples: int = 100, fixed=()):
    """Run the decorated check on the ``fixed`` labels and ``examples`` ones
    of min_n..max_n qubits, each drawn as two random masks and spelled out
    by :func:`label_of`."""

    def strategy(st):
        return st.integers(min_n, max_n).flatmap(
            lambda n: st.builds(
                label_of, st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
            )
        )

    def draw(rng):
        n = rng.randint(min_n, max_n)
        return label_of(n, rng.getrandbits(n), rng.getrandbits(n))

    return property_test(examples, strategy, draw, fixed)


def random_pauli_string(rng: Random, n: int, min_weight: int = 0) -> PauliString:
    return PauliString.from_label(random_pauli_label(rng, n, min_weight))


def random_hamiltonian(rng: Random, max_qubits: int = 8, max_terms: int = 10) -> Hamiltonian:
    n = rng.randint(1, max_qubits)
    terms = tuple(
        PauliTerm(rng.uniform(-3.0, 3.0), random_pauli_string(rng, n))
        for _ in range(rng.randint(1, max_terms))
    )
    return Hamiltonian(n, terms)


def random_circuit(
    rng: Random, n: int, n_gates: int, angles: tuple[float, ...] = ()
) -> QuantumCircuit:
    """Rotation angles are drawn from ``angles`` when given, which makes
    inverse pairs and rotation merges (zero-sum ones included) common."""
    kinds = ("h", "s", "sdg", "rz", "rx") + (("cx", "cz") if n >= 2 else ())
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind in ("cx", "cz"):
            a, b = rng.sample(range(n), 2)
            gates.append(Gate.cx(a, b) if kind == "cx" else Gate.cz(a, b))
        elif kind in ("rz", "rx"):
            q = rng.randrange(n)
            angle = rng.choice(angles) if angles else rng.uniform(-3.2, 3.2)
            gates.append(Gate.rz(q, angle) if kind == "rz" else Gate.rx(q, angle))
        else:
            q = rng.randrange(n)
            gates.append(Gate(kind, (q,)))
    phase = rng.uniform(-3.2, 3.2) if rng.random() < 0.5 else 0.0
    return QuantumCircuit(n, tuple(gates), phase)


def depth(gates) -> int:
    """Circuit depth by a per-qubit frontier: each gate starts one layer
    after the latest gate on any of its qubits."""
    frontier = {}
    for gate in gates:
        layer = 1 + max(frontier.get(q, 0) for q in gate.qubits)
        frontier.update(dict.fromkeys(gate.qubits, layer))
    return max(frontier.values(), default=0)


_INVERSE = {"h": "h", "s": "sdg", "sdg": "s", "cx": "cx", "cz": "cz"}


def reference_cancel_adjacent(circuit: QuantumCircuit) -> QuantumCircuit:
    """The peephole as first written, kept as the reference for cancel_adjacent.

    For each gate it scans back over the kept gates for the latest one that
    shares a qubit, and it repeats whole passes until one changes nothing.
    A rotation by 0.0 is dropped where it stands, as a merge to 0.0 is.
    """

    def one_pass(gates):
        kept = []
        for gate in gates:
            if gate.kind in ("rz", "rx") and gate.angle == 0.0:
                continue
            j = len(kept) - 1
            while j >= 0 and not set(gate.qubits).intersection(kept[j].qubits):
                j -= 1
            if j < 0:
                kept.append(gate)
                continue
            prev = kept[j]
            if prev.qubits == gate.qubits and _INVERSE.get(prev.kind) == gate.kind:
                kept.pop(j)
            elif gate.kind in ("rz", "rx") and (prev.kind, prev.qubits) == (gate.kind, gate.qubits):
                merged = prev.angle + gate.angle
                if merged == 0.0:
                    kept.pop(j)
                else:
                    kept[j] = Gate(gate.kind, gate.qubits, merged)
            else:
                kept.append(gate)
        return tuple(kept)

    gates = circuit.gates
    while True:
        compacted = one_pass(gates)
        if compacted == gates:
            break
        gates = compacted
    return QuantumCircuit(circuit.n_qubits, gates, circuit.global_phase)


_FIXED_GATES = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * (1 / math.sqrt(2)),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    # two-qubit basis order: (first qubit of the tuple, second), first is MSB
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
}


def reference_gate_matrix(gate: Gate) -> np.ndarray:
    """The gate's matrix. H, RZ and RX use the oracle's expressions, so that
    products with them round alike."""
    if gate.kind in _FIXED_GATES:
        return _FIXED_GATES[gate.kind]
    half = gate.angle / 2
    if gate.kind == "rz":
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -1j * s], [-1j * s, c]])


def reference_circuit_unitary(c: QuantumCircuit) -> np.ndarray:
    """circuit_unitary as first written, kept as its reference: every gate
    acts on the whole d x d matrix at once through np.tensordot, and the
    phase multiplies a copy."""
    n = c.n_qubits
    u = np.eye(2**n, dtype=complex)
    for gate in c.gates:
        k = len(gate.qubits)
        tensor = u.reshape((2,) * n + (u.shape[1],))
        gate_tensor = reference_gate_matrix(gate).reshape((2,) * (2 * k))
        tensor = np.tensordot(gate_tensor, tensor, axes=(tuple(range(k, 2 * k)), gate.qubits))
        u = np.moveaxis(tensor, tuple(range(k)), gate.qubits).reshape(u.shape)
    if c.global_phase != 0.0:
        u = np.exp(1j * c.global_phase) * u
    return u


_PAULI_1Q = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def reference_pauli_matrix(p: PauliString) -> np.ndarray:
    """pauli_matrix as first written, kept as its reference: the Kronecker
    product of the single-qubit factors, qubit 0 leftmost."""
    return reduce(np.kron, (_PAULI_1Q[op] for op in p.ops))


def reference_hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """hamiltonian_matrix built from :func:`reference_pauli_matrix`."""
    total = np.zeros((2**h.n_qubits, 2**h.n_qubits), dtype=complex)
    for term in h.terms:
        total += term.coefficient * reference_pauli_matrix(term.string)
    return total


def reference_matrix_exponential(m: np.ndarray, t: float) -> np.ndarray:
    """matrix_exponential as it was before it went sector by sector, kept as
    its reference: one eigendecomposition of the whole matrix, with no checks."""
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def reference_sectors(m: np.ndarray, t: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The oracle's sectors as first found, from m's dense nonzero pattern,
    kept as the bit reference for the sectors built from XOR-diagonals:
    (indices, exponentials) for each sector size, ascending, each row of
    indices one sector's states, ascending, and exponentials their stacked
    exp(-i*t*block). Each state's label falls to the least label it links
    to, then to that label's own label, until none moves."""
    linked = m != 0
    linked |= linked.T
    labels = np.arange(len(m))
    while True:
        lowest = np.where(linked, labels, len(m)).min(axis=1, initial=len(m))
        lowest = np.minimum(lowest, labels)
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    sizes = np.bincount(labels, minlength=len(m))[labels]
    order = np.lexsort((labels, sizes))
    sectors, start = [], 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        indices = order[start : start + count].reshape(-1, size)
        start += count
        w, v = np.linalg.eigh(m[indices[:, :, None], indices[:, None, :]])
        sectors.append((indices, (v * np.exp(-1j * t * w)[:, None]) @ np.swapaxes(v.conj(), 1, 2)))
    return sectors


def reference_apply_exp_pauli(p: PauliString, t: float, u: np.ndarray) -> np.ndarray:
    """u <- exp(-i*t*P) @ u in place, the oracle's per-term rotation written
    over dense ops and kept as its reference: the flip mask and the Z/Y
    signs are built one PauliOp at a time, the signs by a Kronecker chain,
    and all row pairs are updated at once. It keeps the order
    ``1j*sin(t)*(phase*b)``, where the oracle takes ``(1j*sin(t)*phase)*b``:
    phase is +-1 or +-1j, so either inner product is exact, and each element
    is rounded once, by sin(t), to the same value."""
    dim = 2**p.n_qubits
    flip = 0
    signs = np.ones(1)
    for op in p.ops:
        flip = flip << 1 | (op in (PauliOp.X, PauliOp.Y))
        zy = op in (PauliOp.Z, PauliOp.Y)
        signs = np.kron(signs, np.array([1.0, -1.0]) if zy else np.array([1.0, 1.0]))
    rows = np.arange(dim)
    phase = 1j ** sum(op is PauliOp.Y for op in p.ops) * signs[rows ^ flip]
    lo = rows[rows & (1 << flip.bit_length() >> 1) == 0]
    hi = lo ^ flip
    cos, isin = math.cos(t), 1j * math.sin(t)
    a, b = u[lo], u[hi]
    u[lo] = cos * a - isin * (phase[lo, None] * b)
    if flip:
        u[hi] = cos * b - isin * (phase[hi, None] * a)
    return u


def reference_per_term_product(h: Hamiltonian, t: float) -> np.ndarray:
    """The per-term verify reference built whole, the test reference for the
    column blocks verify regenerates: the identity run through
    :func:`reference_apply_exp_pauli` once per term, first term first."""
    u = np.eye(2**h.n_qubits, dtype=complex)
    for term in h.terms:
        reference_apply_exp_pauli(term.string, t * term.coefficient, u)
    return u


def whole_product_distance(c: QuantumCircuit, h: Hamiltonian, t: float) -> float:
    """The per-term verify distance over whole matrices: the phase-invariant
    distance from the circuit's unitary to the whole per-term product R."""
    return phase_invariant_distance(circuit_unitary(c), reference_per_term_product(h, t))


def reference_exp_pauli_term(term: PauliTerm, t: float, variant) -> QuantumCircuit:
    """exp_pauli_term assembled on its own, as it was before it became the
    Trotter product of a one-term Hamiltonian: its own check of t, every
    gate rebuilt through the validating Gate constructor, and the phase
    -t*w for the identity string, 0.0 otherwise."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    angle = 2.0 * t * term.coefficient
    gates = tuple(Gate(g.kind, g.qubits, g.angle) for g in _term_gates(term, angle, variant))
    return QuantumCircuit(term.n_qubits, gates, 0.0 if gates else -t * term.coefficient)
