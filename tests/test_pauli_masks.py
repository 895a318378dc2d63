"""The bit-mask core of PauliString against dense references.

Each label is drawn as two random masks and spelled out one character per
qubit here, so the reference never goes through the library's own mask
code. With hypothesis installed the masks come from it; without it, from a
seeded random loop.
"""

import tracemalloc
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
    label_of,
    reference_apply_exp_pauli,
    reference_hamiltonian_matrix,
    reference_pauli_matrix,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - depends on the environment
    st = None


def for_labels(min_n: int, max_n: int, examples: int = 100):
    """Run the decorated check on ``examples`` labels of min_n..max_n qubits."""

    def decorate(check):
        if st is not None:
            labels = st.integers(min_n, max_n).flatmap(
                lambda n: st.builds(
                    label_of, st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
                )
            )
            run = settings(max_examples=examples, derandomize=True, database=None, deadline=None)
            return run(given(labels)(check))

        def loop():
            rng = Random(f"{check.__name__} {min_n} {max_n}")
            for _ in range(examples):
                n = rng.randint(min_n, max_n)
                check(label_of(n, rng.getrandbits(n), rng.getrandbits(n)))

        loop.__name__ = check.__name__
        return loop

    return decorate


def check_views(label: str) -> None:
    n = len(label)
    ref = tuple(PauliOp(ch) for ch in label)
    p = PauliString.from_label(label)
    assert p.to_label() == label
    assert p.n_qubits == len(p) == n
    assert p.ops == ref and tuple(p) == ref
    assert p.support == tuple(k for k, op in enumerate(ref) if op is not PauliOp.I)
    assert p.weight == sum(op is not PauliOp.I for op in ref)
    assert all(p[k] is ref[k] for k in range(-n, n))
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


@for_labels(1, 64)
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


@for_labels(1, 6)
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
    for t in (0.37, -2.1):
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
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = parse_hamiltonian(text, 1000)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(h.terms) == 250
    assert retained < 2**19, f"{retained} bytes retained"
