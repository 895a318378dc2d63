"""pauliexp: compile exponentials of Pauli strings into quantum circuits.

The synthesis target is always exp(-i*t*w*P) for a real weight w and a
Pauli string P, realized as a CNOT parity ladder with one RZ plus basis
change wraps, and first-order Trotter products for sums of such terms.
A dense-matrix oracle verifies every construction at small qubit counts;
it is imported, with numpy, only when one of its names is first used.
"""

from .circuit import GATE_KINDS, Gate, QuantumCircuit, cancel_adjacent
from .circuit import MAX_DENSE_QUBITS, MAX_EXPM_QUBITS
from .parser import ParseError, format_hamiltonian, parse_hamiltonian
from .paulis import Hamiltonian, PauliOp, PauliString, PauliTerm
from .qasm import emit_qasm, validate_qasm
from .synth import (
    EvolutionParams,
    SynthVariant,
    exp_pauli_term,
    synth_z_rotation,
    trotter_circuit,
)

# The dense oracle needs numpy; load it on first use so compiling does not.
_ORACLE_NAMES = frozenset(
    {
        "circuit_unitary",
        "exp_pauli_closed_form",
        "hamiltonian_matrix",
        "matrix_exponential",
        "pauli_matrix",
        "phase_invariant_distance",
    }
)

__all__ = [
    "GATE_KINDS",
    "MAX_DENSE_QUBITS",
    "MAX_EXPM_QUBITS",
    "Gate",
    "QuantumCircuit",
    "cancel_adjacent",
    "ParseError",
    "format_hamiltonian",
    "parse_hamiltonian",
    "Hamiltonian",
    "PauliOp",
    "PauliString",
    "PauliTerm",
    "emit_qasm",
    "validate_qasm",
    "EvolutionParams",
    "SynthVariant",
    "exp_pauli_term",
    "synth_z_rotation",
    "trotter_circuit",
    *sorted(_ORACLE_NAMES),
]

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)
