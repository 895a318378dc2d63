"""Shared random generators and reference implementations for the test suite.

All random generators take a seeded Random from the caller.
"""

import math
from functools import reduce
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

PAULI_CHARS = "IXYZ"


def random_pauli_label(rng: Random, n: int, min_weight: int = 0) -> str:
    while True:
        label = "".join(rng.choice(PAULI_CHARS) for _ in range(n))
        if sum(ch != "I" for ch in label) >= min_weight:
            return label


def label_of(n: int, x: int, z: int) -> str:
    """Character k is I, X, Z or Y for bits (x_k, z_k) = 00, 10, 01, 11."""
    return "".join("IXZY"[(x >> k & 1) | (z >> k & 1) << 1] for k in range(n))


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


_INVERSE = {"h": "h", "s": "sdg", "sdg": "s", "cx": "cx", "cz": "cz"}


def reference_cancel_adjacent(circuit: QuantumCircuit) -> QuantumCircuit:
    """The peephole as first written, kept as the reference for cancel_adjacent.

    For each gate it scans back over the kept gates for the latest one that
    shares a qubit, and it repeats whole passes until one changes nothing.
    """

    def one_pass(gates):
        kept = []
        for gate in gates:
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


def reference_apply_exp_pauli(p: PauliString, t: float, u: np.ndarray) -> np.ndarray:
    """u <- exp(-i*t*P) @ u in place, the oracle's per-term rotation written
    over dense ops and kept as its reference: the flip mask and the Z/Y
    signs are built one PauliOp at a time, the signs by a Kronecker chain,
    and all row pairs are updated at once."""
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
