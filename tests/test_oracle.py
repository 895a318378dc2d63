"""Dense-matrix oracle: Kronecker builds, closed forms, circuit evaluation,
the Hermitian exponential, and the phase-invariant distance."""

import itertools
import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from pauliexp import (
    Gate,
    Hamiltonian,
    PauliString,
    PauliTerm,
    QuantumCircuit,
    circuit_unitary,
    exp_pauli_closed_form,
    hamiltonian_matrix,
    matrix_exponential,
    parse_hamiltonian,
    pauli_matrix,
    phase_invariant_distance,
)
from pauliexp.oracle import _rotation
from helpers import (
    random_circuit,
    random_hamiltonian,
    random_pauli_label,
    random_pauli_string,
    reference_circuit_unitary,
    reference_matrix_exponential,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def test_pauli_matrix_z():
    assert np.array_equal(pauli_matrix(PauliString.from_label("Z")), Z)


def test_pauli_matrix_xz_entries():
    m = pauli_matrix(PauliString.from_label("XZ"))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1
    expected[1, 3] = -1
    expected[2, 0] = 1
    expected[3, 1] = -1
    assert np.array_equal(m, expected)
    # and it is the literal Kronecker product with qubit 0 leftmost
    assert np.array_equal(m, np.kron(X, Z))


def test_pauli_matrix_identity():
    assert np.array_equal(pauli_matrix(PauliString.from_label("II")), np.eye(4))


def test_pauli_matrix_cap():
    with pytest.raises(ValueError, match="cap"):
        pauli_matrix(PauliString.from_label("Z" * 13))


@pytest.mark.parametrize(
    "build",
    [
        lambda: exp_pauli_closed_form(PauliString.from_label("Z" * 13), 0.5),
        lambda: circuit_unitary(QuantumCircuit(13)),
        lambda: hamiltonian_matrix(Hamiltonian(13)),
    ],
    ids=["closed_form", "circuit_unitary", "hamiltonian_matrix"],
)
def test_dense_builders_respect_the_qubit_cap(build):
    # each checks the cap itself, before allocating a 2^13 x 2^13 matrix
    with pytest.raises(ValueError, match="13 qubits exceeds the dense-matrix cap of 12"):
        build()


def test_closed_form_at_zero_is_identity():
    for label in ("Z", "XY", "IZX"):
        p = PauliString.from_label(label)
        assert np.array_equal(exp_pauli_closed_form(p, 0.0), np.eye(2**p.n_qubits))


def test_closed_form_zz_diagonal():
    t = 0.83
    got = exp_pauli_closed_form(PauliString.from_label("ZZ"), t)
    # (Z x Z) has eigenvalue +1 on even-parity basis states, -1 on odd
    expected = np.diag(
        [np.exp(-1j * t), np.exp(1j * t), np.exp(1j * t), np.exp(-1j * t)]
    )
    assert np.linalg.norm(got - expected) <= 1e-15


def test_closed_form_xz_matches_direct_series():
    t = 0.37
    got = exp_pauli_closed_form(PauliString.from_label("XZ"), t)
    expected = math.cos(t) * np.eye(4) - 1j * math.sin(t) * np.kron(X, Z)
    assert np.array_equal(got, expected)


def test_closed_form_inverse_pairs_exhaustive_to_n4():
    t = 0.9
    for n in range(1, 5):
        for chars in itertools.product("IXYZ", repeat=n):
            p = PauliString.from_label("".join(chars))
            prod = exp_pauli_closed_form(p, t) @ exp_pauli_closed_form(p, -t)
            assert np.linalg.norm(prod - np.eye(2**n)) <= 1e-12


def test_circuit_unitary_empty():
    assert np.array_equal(circuit_unitary(QuantumCircuit(2)), np.eye(4))


def test_circuit_unitary_cz_rx_cz_sandwich():
    t = 0.55
    c = QuantumCircuit(2, (Gate.cz(0, 1), Gate.rx(0, 2 * t), Gate.cz(0, 1)))
    expected = math.cos(t) * np.eye(4) - 1j * math.sin(t) * np.kron(X, Z)
    assert np.linalg.norm(circuit_unitary(c) - expected) <= 1e-12


def test_circuit_unitary_rz_base_case():
    t = 0.41
    got = circuit_unitary(QuantumCircuit(1, (Gate.rz(0, 2 * t),)))
    assert np.linalg.norm(got - np.diag([np.exp(-1j * t), np.exp(1j * t)])) <= 1e-15


def test_circuit_unitary_of_a_float32_phase_equals_the_float_one():
    phase = np.float32(0.1)
    c = QuantumCircuit(1, (Gate.h(0),), phase)
    assert type(c.global_phase) is float
    same = QuantumCircuit(1, (Gate.h(0),), float(phase))
    assert np.array_equal(circuit_unitary(c), circuit_unitary(same))


def test_circuit_unitary_applies_global_phase():
    c = QuantumCircuit(1, (), global_phase=0.75)
    assert np.linalg.norm(circuit_unitary(c) - np.exp(0.75j) * I2) <= 1e-15


def test_circuit_unitary_respects_composition():
    rng = Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_circuit(rng, n, rng.randint(0, 8))
        b = random_circuit(rng, n, rng.randint(0, 8))
        joined = QuantumCircuit(
            n, a.gates + b.gates, a.global_phase + b.global_phase
        )
        product = circuit_unitary(b) @ circuit_unitary(a)
        assert np.linalg.norm(circuit_unitary(joined) - product) <= 1e-12


def test_circuit_unitary_is_unitary():
    rng = Random(32)
    for _ in range(30):
        n = rng.randint(1, 4)
        u = circuit_unitary(random_circuit(rng, n, rng.randint(0, 12)))
        assert np.linalg.norm(u.conj().T @ u - np.eye(2**n)) <= 1e-12


def test_hamiltonian_matrix_single_z():
    h = Hamiltonian(1, (PauliTerm(1.0, PauliString.from_label("Z")),))
    assert np.array_equal(hamiltonian_matrix(h), Z)


def test_hamiltonian_matrix_weighted_sum_entries():
    h = Hamiltonian(
        2,
        (
            PauliTerm(0.5, PauliString.from_label("ZZ")),
            PauliTerm(0.3, PauliString.from_label("XI")),
        ),
    )
    m = hamiltonian_matrix(h)
    assert m[0, 0] == 0.5 and m[1, 1] == -0.5
    assert m[0, 2] == 0.3 and m[2, 0] == 0.3
    assert m[0, 1] == 0
    assert np.linalg.norm(m - m.conj().T) == 0.0


def test_hamiltonian_matrix_no_terms_is_zero():
    assert np.array_equal(hamiltonian_matrix(Hamiltonian(2)), np.zeros((4, 4)))


@pytest.mark.filterwarnings("error")
def test_hamiltonian_matrix_fits_whatever_its_partial_sums():
    def matrix(*weights):
        terms = (PauliTerm(w, PauliString.from_label(s)) for w, s in weights)
        return hamiltonian_matrix(Hamiltonian(2, tuple(terms)))

    big = 1e308
    # the first two terms overflow, the third brings the sum back
    got = matrix((big, "ZI"), (big, "ZI"), (-big, "ZI"), (1e-300, "IX"))
    assert np.array_equal(got, np.kron(Z, I2) * big + np.kron(I2, X) * 1e-300)
    # accepted by the left-to-right sum already: its bits, tiny weights too
    weights = ((big, "ZI"), (-big, "ZI"), (big, "ZZ"), (3e-310, "XI"), (0.1, "YY"))
    expected = np.zeros((4, 4), dtype=complex)
    for w, s in weights:
        expected += w * pauli_matrix(PauliString.from_label(s))
    assert np.array_equal(matrix(*weights), expected)
    with pytest.raises(ValueError, match="past the float range"):
        matrix((big, "ZI"), (big, "ZZ"))


def test_hamiltonian_matrix_is_exactly_hermitian():
    """The exact verify path relies on it and skips matrix_exponential's
    check: also near the float limit, where a partial sum may overflow and
    the sum is taken again scaled."""
    rng = Random(40)
    hamiltonians = [
        parse_hamiltonian(text, 2)
        for text in (
            "1e308*X0 Z1 + 1e308*Z0 Y1",
            "1e308*X0 Z1 + 1e308*X0 Z1 - 1e308*X0 Z1",
            "1.5e308*Y0 X1 + 1e308*Y0 X1 - 1.2e308*Y0 X1 + 0.5*Z0 Y1",
        )
    ]
    for case in range(600):
        h = random_hamiltonian(rng, max_qubits=6, max_terms=8)
        if case % 2:  # coefficients near the float limit
            size = rng.choice((1e300, 1e307, 4e307, 1.7e308))
            terms = tuple(PauliTerm(term.coefficient / 3 * size, term.string) for term in h.terms)
            h = Hamiltonian(h.n_qubits, terms)
        hamiltonians.append(h)
    checked = 0
    for h in hamiltonians:
        try:
            m = hamiltonian_matrix(h)
        except ValueError:  # an entry past the float range
            continue
        assert np.array_equal(m, m.conj().T)
        checked += 1
    assert checked > 500


def test_matrix_exponential_at_zero():
    m = hamiltonian_matrix(
        Hamiltonian(2, (PauliTerm(1.3, PauliString.from_label("XY")),))
    )
    assert np.linalg.norm(matrix_exponential(m, 0.0) - np.eye(4)) <= 1e-15


def test_matrix_exponential_matches_closed_form():
    rng = Random(33)
    for _ in range(25):
        n = rng.randint(1, 4)
        p = random_pauli_string(rng, n)
        t = rng.uniform(-3.0, 3.0)
        got = matrix_exponential(pauli_matrix(p), t)
        assert np.linalg.norm(got - exp_pauli_closed_form(p, t)) <= 1e-9


def test_matrix_exponential_diagonal_case():
    t = 1.7
    m = np.diag([0.4, -2.1]).astype(complex)
    expected = np.diag([np.exp(-1j * t * 0.4), np.exp(1j * t * 2.1)])
    assert np.linalg.norm(matrix_exponential(m, t) - expected) <= 1e-10


def test_matrix_exponential_stays_unitary_for_large_angles():
    m = hamiltonian_matrix(
        Hamiltonian(
            3,
            (
                PauliTerm(2.0, PauliString.from_label("ZZI")),
                PauliTerm(-1.5, PauliString.from_label("XIX")),
                PauliTerm(0.7, PauliString.from_label("IYZ")),
            ),
        )
    )
    u = matrix_exponential(m, 5.0)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-9


def test_matrix_exponential_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential(bad, 1.0)


@pytest.mark.parametrize("m", [np.ones(4, dtype=complex), np.ones((2, 3), dtype=complex)])
def test_matrix_exponential_rejects_non_square(m):
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape"):
        matrix_exponential(m, 1.0)


def test_matrix_exponential_rejects_oversize():
    with pytest.raises(ValueError, match="cap"):
        matrix_exponential(np.eye(2**9, dtype=complex), 1.0)


# entrywise agreement of the sector exponential with one eigh of the whole
# matrix; the two differ in rounding only, by a few 1e-15 at n <= 8
SECTOR_TOLERANCE = 1e-12


def test_sector_exponential_matches_one_eigh_on_dense_hermitian_matrices():
    # every entry nonzero: one sector holds all the states
    gen = np.random.default_rng(38)
    for n in range(1, 9):
        a = gen.normal(size=(2**n, 2**n)) + 1j * gen.normal(size=(2**n, 2**n))
        m = (a + a.conj().T) / 2
        t = gen.uniform(-2.0, 2.0)
        got = matrix_exponential(m, t)
        assert np.abs(got - reference_matrix_exponential(m, t)).max() <= SECTOR_TOLERANCE, n


def test_sector_exponential_matches_one_eigh_on_hamiltonians():
    rng = Random(39)
    for _ in range(40):
        m = hamiltonian_matrix(random_hamiltonian(rng, max_qubits=8, max_terms=6))
        t = rng.uniform(-2.0, 2.0)
        got = matrix_exponential(m, t)
        assert np.abs(got - reference_matrix_exponential(m, t)).max() <= SECTOR_TOLERANCE


@pytest.mark.parametrize("entry", [(0, 1), (1, 0)], ids=["upper", "lower"])
def test_an_entry_in_one_triangle_within_the_hermitian_tolerance(entry):
    # eight one-state sectors, until an entry below the tolerance
    # (1e-10 * ||m||, about 2.8e-7 here) links states 0 and 1 on one side of
    # the diagonal only; eigh reads the lower side, and the lower entry moves
    # the exponential by far more than SECTOR_TOLERANCE, so a sector split
    # finer than what eigh reads would show
    m = np.diag(1000.0 + np.arange(8)).astype(complex)
    m[entry] = 5e-8
    got = matrix_exponential(m, 1.0)
    expected = reference_matrix_exponential(m, 1.0)
    assert np.abs(got - expected).max() <= SECTOR_TOLERANCE
    unlinked = reference_matrix_exponential(np.diag(m.diagonal()), 1.0)
    moved = np.abs(expected - unlinked).max()
    assert moved > 1e3 * SECTOR_TOLERANCE if entry == (1, 0) else moved == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "ham, n, t",
    [
        ("1e308*X0 Z1 + 1e308*Z0 Y1", 2, 0.25),  # eigenvalues of +-2e308
        ("1e308*X0 Z1 + 1e308*Z0 Y1", 2, 0.0),  # an infinite eigenvalue even at t = 0
        ("1e300*X0 Z1 Z2 + 1e300*Z0 X1 Z2 + 1e300*Z0 Z1 X2", 3, 7e7),  # t*w overflows
    ],
)
def test_matrix_exponential_names_a_spectrum_past_the_float_range(ham, n, t):
    m = hamiltonian_matrix(parse_hamiltonian(ham, n))
    assert np.isfinite(m).all()
    message = "^t times an eigenvalue of the matrix is past the float range$"
    with pytest.raises(ValueError, match=message):
        matrix_exponential(m, t)


def test_matrix_exponential_of_an_empty_matrix_is_empty():
    assert matrix_exponential(np.zeros((0, 0)), 1.0).shape == (0, 0)


def test_distance_zero_on_itself_and_under_phase():
    u = circuit_unitary(random_circuit(Random(34), 3, 8))
    assert phase_invariant_distance(u, u) == 0.0
    assert phase_invariant_distance(u, np.exp(1j * np.pi / 4) * u) <= 1e-14


def test_distance_identity_vs_z_is_two():
    assert phase_invariant_distance(I2, Z) == pytest.approx(2.0, abs=1e-14)


def test_distance_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        phase_invariant_distance(I2, np.eye(4, dtype=complex))


def test_rotation_matches_closed_form_product():
    rng = Random(35)
    gen = np.random.default_rng(35)
    labels = ["I", "IIII", "Y", "YYY", "YIYY", "XZ", "ZZZZZZ", "IYIYIX"]
    labels += [random_pauli_label(rng, rng.randint(1, 6)) for _ in range(60)]
    for label in labels:
        p = PauliString.from_label(label)
        t = rng.uniform(-3.0, 3.0)
        shape = (2**p.n_qubits, rng.randint(1, 2**p.n_qubits))
        u = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        expected = exp_pauli_closed_form(p, t) @ u
        _rotation(p, t)(u, np.empty_like(u))
        assert np.abs(u - expected).max() <= 1e-14, label


def test_rotation_updates_u_in_place():
    u = np.eye(4, dtype=complex)
    assert _rotation(PauliString.from_label("XY"), 0.3)(u, np.empty_like(u)) is None
    assert np.array_equal(u, exp_pauli_closed_form(PauliString.from_label("XY"), 0.3))


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
def test_blocked_circuit_unitary_equals_whole_matrix_loop(n):
    # d > 256 splits the identity into several column blocks; each column's
    # bits must not depend on the block it was computed in
    rng = Random(36 + n)
    for phase in (0.0, rng.uniform(-3.2, 3.2)):
        c = random_circuit(rng, n, 24 if n < 10 else 8)
        c = QuantumCircuit(n, c.gates, phase)
        assert np.array_equal(circuit_unitary(c), reference_circuit_unitary(c))


def _traced_peak(fn, *args) -> int:
    """Bytes allocated by fn(*args) at its peak, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_dense_oracle_holds_only_its_result_at_n10():
    n, d = 10, 2**10
    c = random_circuit(Random(37), n, 12)
    assert _traced_peak(circuit_unitary, c) <= 1.25 * d * d * 16
    u = circuit_unitary(c)
    ref = np.eye(d, dtype=complex)
    assert _traced_peak(phase_invariant_distance, u, ref) <= 4 * 2**20
