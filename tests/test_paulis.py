"""Pauli string, term, and Hamiltonian value types."""

from random import Random

import numpy as np
import pytest

from pauliexp import Hamiltonian, PauliOp, PauliString, PauliTerm
from helpers import random_pauli_label


def test_from_label_transcribes_each_character():
    p = PauliString.from_label("IXZY")
    assert p.ops == (PauliOp.I, PauliOp.X, PauliOp.Z, PauliOp.Y)
    assert p.n_qubits == 4
    assert p[1:3] == p.ops[1:3] and p[::-1] == p.ops[::-1]


def test_from_label_single_qubit():
    p = PauliString.from_label("Z")
    assert p.ops == (PauliOp.Z,)
    assert len(p) == 1


def test_from_label_six_qubit_yyx():
    # Y on qubits 1 and 3, X on qubit 5
    p = PauliString.from_label("IYIYIX")
    assert p[1] is PauliOp.Y and p[3] is PauliOp.Y and p[5] is PauliOp.X
    assert str(p[1]) == f"{p[1]}" == "Y"
    assert all(p[k] is PauliOp.I for k in (0, 2, 4))


def test_from_label_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        PauliString.from_label("")


def test_from_label_reports_offending_position():
    with pytest.raises(ValueError, match="position 2"):
        PauliString.from_label("IXQZ")


@pytest.mark.parametrize(
    "label,expected",
    [("IIII", 0), ("IYIYIX", 3), ("XZZIY", 4)],
)
def test_weight(label, expected):
    assert PauliString.from_label(label).weight == expected


@pytest.mark.parametrize(
    "label,expected",
    [("IIII", ()), ("IYIYIX", (1, 3, 5)), ("ZIIZ", (0, 3))],
)
def test_support(label, expected):
    assert PauliString.from_label(label).support == expected


def test_weight_equals_support_size_randomized():
    rng = Random(11)
    for _ in range(300):
        p = PauliString.from_label(random_pauli_label(rng, rng.randint(1, 10)))
        assert p.weight == len(p.support)


def test_label_round_trip_is_exact():
    rng = Random(12)
    seen = {}
    for _ in range(500):
        label = random_pauli_label(rng, rng.randint(1, 10))
        p = PauliString.from_label(label)
        assert p.to_label() == label
        # injectivity: equal strings come from equal labels only
        if label in seen:
            assert seen[label] == p
        seen[label] = p


def test_empty_string_construction_rejected():
    with pytest.raises(ValueError):
        PauliString(())


def test_term_requires_finite_real_coefficient():
    p = PauliString.from_label("Z")
    with pytest.raises(ValueError):
        PauliTerm(float("nan"), p)
    with pytest.raises(ValueError):
        PauliTerm(float("inf"), p)
    with pytest.raises(TypeError):
        PauliTerm(1.0 + 2.0j, p)
    # float() would parse text, so text is rejected before it gets there
    for text in ("0.5", b"0.5", bytearray(b"0.5")):
        with pytest.raises(TypeError) as excinfo:
            PauliTerm(text, p)
        assert f"got {text!r}" in str(excinfo.value)
    assert PauliTerm(-2.5, p).coefficient == -2.5


def test_hamiltonian_checks_term_width():
    term = PauliTerm(1.0, PauliString.from_label("ZZ"))
    with pytest.raises(ValueError, match="acts on 2"):
        Hamiltonian(3, (term,))


def test_hamiltonian_preserves_term_order():
    t1 = PauliTerm(0.5, PauliString.from_label("ZZ"))
    t2 = PauliTerm(0.3, PauliString.from_label("XI"))
    h = Hamiltonian(2, (t1, t2))
    assert h.terms == (t1, t2)
    assert list(h) == [t1, t2]


def test_hamiltonian_requires_positive_width():
    with pytest.raises(ValueError):
        Hamiltonian(0, ())


@pytest.mark.parametrize("bad", [True, 2.5, "2"])
def test_hamiltonian_rejects_non_int_width(bad):
    with pytest.raises(ValueError, match=f"n_qubits must be an int, got {bad!r}"):
        Hamiltonian(bad, ())


def test_hamiltonian_accepts_numpy_int_width():
    h = Hamiltonian(np.int64(2), (PauliTerm(1.0, PauliString.from_label("ZZ")),))
    assert h.n_qubits == 2 and type(h.n_qubits) is int
