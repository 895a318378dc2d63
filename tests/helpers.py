"""Shared random generators and reference implementations for the test suite.

All random generators take a seeded Random from the caller.
"""

from random import Random

import numpy as np

from pauliexp import Gate, Hamiltonian, PauliString, PauliTerm, QuantumCircuit
from pauliexp.oracle import _gate_matrix

PAULI_CHARS = "IXYZ"


def random_pauli_label(rng: Random, n: int, min_weight: int = 0) -> str:
    while True:
        label = "".join(rng.choice(PAULI_CHARS) for _ in range(n))
        if sum(ch != "I" for ch in label) >= min_weight:
            return label


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


def reference_circuit_unitary(c: QuantumCircuit) -> np.ndarray:
    """circuit_unitary as first written, kept as its reference: every gate
    acts on the whole d x d matrix at once through np.tensordot, and the
    phase multiplies a copy."""
    n = c.n_qubits
    u = np.eye(2**n, dtype=complex)
    for gate in c.gates:
        k = len(gate.qubits)
        tensor = u.reshape((2,) * n + (u.shape[1],))
        gate_tensor = _gate_matrix(gate).reshape((2,) * (2 * k))
        tensor = np.tensordot(gate_tensor, tensor, axes=(tuple(range(k, 2 * k)), gate.qubits))
        u = np.moveaxis(tensor, tuple(range(k)), gate.qubits).reshape(u.shape)
    if c.global_phase != 0.0:
        u = np.exp(1j * c.global_phase) * u
    return u
