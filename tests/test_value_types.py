"""The six public value types share one contract: keyword construction,
field-tuple equality and hashing, a fixed ``repr``, immutability, pickle and
copy, and no per-instance ``__dict__``."""

import copy
import pickle
import weakref

import numpy as np
import pytest

from pauliexp import (
    EvolutionParams,
    Gate,
    Hamiltonian,
    PauliOp,
    PauliString,
    PauliTerm,
    QuantumCircuit,
    cancel_adjacent,
    parse_hamiltonian,
)
from pauliexp.circuit import _trusted_gate

XZ = PauliString.from_label("XZ")

# (built with keywords, an equal value built another way, repr, match args,
# whether weak references work)
CASES = {
    "gate": (
        lambda: Gate(kind="cz", qubits=[np.int64(3), 1]),
        lambda: _trusted_gate("cz", (1, 3)),
        "cz(1, 3)",
        ("kind", "qubits", "angle"),
        False,
    ),
    "rotation": (
        lambda: Gate(kind="rz", qubits=(1,), angle=1),
        lambda: Gate.rz(1, 1.0),
        "rz(1; 1.0)",
        ("kind", "qubits", "angle"),
        False,
    ),
    "circuit": (
        lambda: QuantumCircuit(n_qubits=2, gates=[Gate.h(0)], global_phase=0.25),
        lambda: cancel_adjacent(QuantumCircuit(2, (Gate.s(1), Gate.h(0), Gate.sdg(1)), 0.25)),
        "QuantumCircuit(n_qubits=2, gates=(h(0),), global_phase=0.25)",
        ("n_qubits", "gates", "global_phase"),
        True,
    ),
    "string": (
        lambda: PauliString(ops=[PauliOp.X, PauliOp.Y, PauliOp.Z]),
        lambda: PauliString.from_label("XYZ"),
        "PauliString('XYZ')",
        ("n_qubits", "x", "z"),
        False,
    ),
    "term": (
        lambda: PauliTerm(coefficient=1, string=XZ),
        lambda: PauliTerm(1.0, PauliString([PauliOp.X, PauliOp.Z])),
        "PauliTerm(1.0, 'XZ')",
        ("coefficient", "string"),
        False,
    ),
    "hamiltonian": (
        lambda: Hamiltonian(n_qubits=2, terms=[PauliTerm(0.5, XZ)]),
        lambda: parse_hamiltonian("0.5*X0 Z1", 2),
        "Hamiltonian(n_qubits=2, terms=(PauliTerm(0.5, 'XZ'),))",
        ("n_qubits", "terms"),
        True,
    ),
    "params": (
        lambda: EvolutionParams(t=1, reps=np.int64(2)),
        lambda: EvolutionParams(1.0, 2),
        "EvolutionParams(t=1.0, reps=2)",
        ("t", "reps"),
        True,
    ),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_value_type_contract(case):
    build, build_other, text, fields, weak = case
    value, other = build(), build_other()
    cls = type(value)
    assert type(other) is cls and cls.__match_args__ == fields
    assert value == other and not value != other and hash(value) == hash(other)
    assert value != tuple(getattr(value, name) for name in fields)
    assert repr(value) == text

    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(value, name)
        assert getattr(value, name) == before

    clones = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [*clones, copy.copy(value), copy.deepcopy(value)]:
        assert type(clone) is cls and clone == value and hash(clone) == hash(value)
        assert repr(clone) == text

    assert not hasattr(value, "__dict__")
    if weak:
        assert weakref.ref(value)() is value
    else:
        with pytest.raises(TypeError):
            weakref.ref(value)
