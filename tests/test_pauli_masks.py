"""The bit-mask core of PauliString against dense references.

Each label is drawn as two random masks and spelled out one character per
qubit by ``helpers.label_of``, so the reference never goes through the
library's own mask code. With hypothesis installed the masks come from it;
without it, from a seeded random loop (see ``helpers.property_test``).
"""

import math
from random import Random

import numpy as np
import pytest

from pauliexp import (
    Hamiltonian,
    PauliOp,
    PauliString,
    PauliTerm,
    format_hamiltonian,
    hamiltonian_matrix,
    parse_hamiltonian,
    pauli_matrix,
)
from pauliexp.oracle import _rotation
from helpers import (
    for_labels,
    reference_apply_exp_pauli,
    reference_hamiltonian_matrix,
    reference_pauli_matrix,
    traced,
)


def check_views(label: str) -> None:
    n = len(label)
    ref = tuple(PauliOp(ch) for ch in label)
    p = PauliString.from_label(label)
    assert p.to_label() == label
    assert p.n_qubits == len(p) == n
    assert p.ops == ref and tuple(p) == ref
    assert p[1:3] == ref[1:3] and p[::-1] == ref[::-1]
    assert p.support == tuple(k for k, op in enumerate(ref) if op is not PauliOp.I)
    assert p.weight == sum(op is not PauliOp.I for op in ref)
    assert all(p[k] is ref[k] and str(p[k]) == f"{p[k]}" == label[k] for k in range(-n, n))
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            p[k]
    built = PauliString(ref)
    assert built == p and hash(built) == hash(p)
    assert repr(p) == f"PauliString({label!r})"
    k = n // 2
    changed = label[:k] + "IXYZ"["IXYZ".index(label[k]) - 1] + label[k + 1 :]
    assert PauliString.from_label(changed) != p
    with pytest.raises(ValueError, match=f"'q' at position {k}$"):
        PauliString.from_label(label[:k] + "q" + label[k:])


@for_labels(1, 64, fixed=("Z", "IIII", "IXZY", "ZIIZ", "XZZIY", "IYIYIX"))
def test_views_agree_with_dense_reference(label):
    check_views(label)


@for_labels(1000, 1000, examples=20)
def test_views_agree_with_dense_reference_at_1000_qubits(label):
    check_views(label)


@pytest.mark.parametrize(
    "ops, error",
    [((), ValueError), (("X",), TypeError), ((PauliOp.X, "Z"), TypeError), ((0,), TypeError)],
)
def test_constructor_still_checks_its_ops(ops, error):
    with pytest.raises(error):
        PauliString(ops)


@for_labels(1000, 1000, examples=20)
def test_format_parse_round_trip_at_1000_qubits(label):
    sparse = "".join(ch if k % 7 == 0 else "I" for k, ch in enumerate(label))
    strings = (label, sparse, "I" * len(label))
    h = Hamiltonian(
        len(label),
        tuple(
            PauliTerm(c, PauliString.from_label(s))
            for c, s in zip((0.5, -1.25e-3, 3.0), strings)
        ),
    )
    assert parse_hamiltonian(format_hamiltonian(h), len(label)) == h


@for_labels(1, 6, fixed=("Z", "II", "XZ"))
def test_pauli_and_hamiltonian_matrices_equal_the_kronecker_build(label):
    p = PauliString.from_label(label)
    assert np.array_equal(pauli_matrix(p), reference_pauli_matrix(p))
    rotated = PauliString.from_label(label[1:] + label[0])
    h = Hamiltonian(len(label), (PauliTerm(0.75, p), PauliTerm(-1.5, rotated)))
    assert np.array_equal(hamiltonian_matrix(h), reference_hamiltonian_matrix(h))


@for_labels(1, 6)
def test_rotation_equals_the_dense_ops_build(label):
    p = PauliString.from_label(label)
    rng = np.random.default_rng(len(label))
    dim = 2 ** len(label)
    u = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    # the last four put 1j*sin(t)*phase at its edges: a zero, a subnormal,
    # pi's rounding error as sin(pi), and the sine of a large argument
    for t in (0.37, -2.1, 0.0, 5e-324, math.pi, 1e8):
        got = u.copy()
        _rotation(p, t)(got, np.empty_like(got))
        assert np.array_equal(got, reference_apply_exp_pauli(p, t, u.copy()))


def test_parsed_wide_hamiltonian_retains_under_half_a_mebibyte():
    # the shape of the synth-wide benchmark input: 250 terms of weight 20-60
    rng = Random(3)
    terms = []
    for _ in range(250):
        qubits = sorted(rng.sample(range(1000), rng.randint(20, 60)))
        factors = " ".join(f"{rng.choice('XYZ')}{q}" for q in qubits)
        terms.append(f"{rng.uniform(-1, 1)!r}*{factors}")
    text = " + ".join(terms)
    h, _, retained = traced(parse_hamiltonian, text, 1000)
    assert len(h.terms) == 250
    assert retained < 2**19, f"{retained} bytes retained"
