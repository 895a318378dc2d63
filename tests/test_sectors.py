"""The exact oracle's sectors, found from the terms' XOR-diagonals with no
dense matrix, and the sector exponential of ``matrix_exponential``, against
the dense-pattern reference ``helpers.reference_sectors``, bit for bit.

A Hamiltonian case has 0-6 terms on 1-8 qubits, whose X masks come from a
pool of two per case, so that terms share a flip and their sum can cancel,
or link only some of its states. A matrix case is a random Hermitian matrix
of 1-8 qubits with a random pattern of zero entries. With hypothesis
installed the cases come from it; without it, from a seeded random loop
(see ``helpers.property_test``). A few fixed cases run either way.
"""

import numpy as np

from pauliexp import (
    Hamiltonian,
    PauliString,
    PauliTerm,
    hamiltonian_matrix,
    matrix_exponential,
    parse_hamiltonian,
)
from pauliexp.oracle import MAX_EXPM_QUBITS, _diagonals, _sectors
from helpers import label_of, property_test, reference_sectors

N = MAX_EXPM_QUBITS
# equal and opposite weights make sums that cancel on some states or all
COEFFICIENTS = (0.5, -0.5, 0.25, -1.5, 2.0)
DENSITIES = (0.0, 0.02, 0.1, 0.5, 1.0)


def case_of(n: int, flips: tuple[int, int], terms, t: float):
    """(Hamiltonian, t) from (flip index, z, coefficient) draws per term,
    the X mask taken from ``flips`` and both masks cut to n bits."""
    built = [
        PauliTerm(w, PauliString.from_label(label_of(n, flips[k] % 2**n, z % 2**n)))
        for k, z, w in terms
    ]
    return Hamiltonian(n, tuple(built)), t


FIXED_CASES = [
    # the two terms cancel: every sector is one state
    (parse_hamiltonian("0.5*X0 Z1 - 0.5*X0 Z1", 2), 0.8),
    # one flip whose sum 0.5 + 0.5*(-1)^(qubit 1) links states only where qubit 1 is 0
    (parse_hamiltonian("0.5*X0 + 0.5*X0 Z1", 2), 0.8),
    # a partial sum past the float range, summed again scaled, on and off the diagonal
    (parse_hamiltonian("1e308*Z0 + 1e308*Z0 - 1e308*Z0", 1), 0.25),
    (parse_hamiltonian("1e308*X0 Y1 + 1e308*X0 Y1 - 1e308*X0 Y1", 2), 0.25),
    # the X masks of the last qubit (flip 1 in a basis index) and of the first
    (parse_hamiltonian("0.7*Z0 Y2 + 0.2*X0 Z1", 3), 1.1),
    # no terms: one-state sectors of zero
    (Hamiltonian(3), 1.0),
    # Z factors only: 256 one-state sectors
    (parse_hamiltonian("0.5*Z0 Z1 Z2 Z3 Z4 Z5 Z6 Z7 + 0.3*Z2 Z5 + 0.2*Z7", N), 0.9),
    # three X masks that span eight: 32 sectors of 8 states
    (parse_hamiltonian("0.5*X0 X1 X2 X3 X4 X5 X6 X7 + 0.3*Z0 Z1 + 0.2*X0 Z7 + 0.1*Y3 Y4", N), 0.9),
    # a field on every qubit: one sector of all 256 states
    (parse_hamiltonian(" + ".join(f"{k + 1}e-1*X{k}" for k in range(N)), N), 0.9),
]


def random_hermitian(n: int, density: float, seed: int) -> np.ndarray:
    """A Hermitian matrix of n qubits whose entries are zero outside a
    random symmetric pattern of about ``density`` of them."""
    gen = np.random.default_rng(seed)
    d = 2**n
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    kept = gen.random((d, d)) < density
    a *= kept | kept.T
    return (a + a.conj().T) / 2


def for_cases(examples: int, fixed=()):
    """Run the decorated check on the ``fixed`` cases and ``examples`` drawn
    Hamiltonian cases."""

    def strategy(st):
        masks = st.integers(0, 2**N - 1)
        terms = st.lists(
            st.tuples(st.integers(0, 1), masks, st.sampled_from(COEFFICIENTS)), max_size=6
        )
        return st.builds(
            case_of, st.integers(1, N), st.tuples(masks, masks), terms, st.floats(-2, 2)
        )

    def draw(rng):
        terms = [
            (rng.randrange(2), rng.getrandbits(N), rng.choice(COEFFICIENTS))
            for _ in range(rng.randint(0, 6))
        ]
        flips = (rng.getrandbits(N), rng.getrandbits(N))
        return case_of(rng.randint(1, N), flips, terms, rng.uniform(-2, 2))

    return property_test(examples, strategy, draw, fixed)


def one_triangle(entry: tuple[int, int]) -> np.ndarray:
    """Eight one-state sectors, but for an entry within the Hermitian
    tolerance that links states 0 and 1 on one side of the diagonal only;
    eigh reads the lower side, so the upper entry alone must link them too."""
    m = np.diag(1000.0 + np.arange(8)).astype(complex)
    m[entry] = 5e-8
    return m


FIXED_MATRICES = [(one_triangle((0, 1)), 1.0), (one_triangle((1, 0)), 1.0)]


def for_matrices(examples: int, fixed=FIXED_MATRICES):
    """Run the decorated check on the ``fixed`` (matrix, t) cases and
    ``examples`` drawn ones."""

    def strategy(st):
        return st.builds(
            lambda n, density, seed, t: (random_hermitian(n, density, seed), t),
            st.integers(1, N),
            st.sampled_from(DENSITIES),
            st.integers(0, 2**32 - 1),
            st.floats(-2, 2),
        )

    def draw(rng):
        n, density = rng.randint(1, N), rng.choice(DENSITIES)
        return random_hermitian(n, density, rng.getrandbits(32)), rng.uniform(-2, 2)

    return property_test(examples, strategy, draw, fixed)


def assert_same_sectors(got, expected) -> None:
    got = list(got)
    assert len(got) == len(expected)
    for (indices, exponentials), (want_indices, want_exponentials) in zip(got, expected):
        assert np.array_equal(indices, want_indices)
        assert exponentials.dtype == want_exponentials.dtype
        assert exponentials.tobytes() == want_exponentials.tobytes()


def assembled(m: np.ndarray, sectors) -> np.ndarray:
    """The exponential of m with the sectors' blocks in place, zeros elsewhere."""
    result = np.zeros(m.shape, dtype=complex)
    for indices, exponentials in sectors:
        result[indices[:, :, None], indices[:, None, :]] = exponentials
    return result


@for_cases(examples=60, fixed=FIXED_CASES)
def test_sectors_from_the_terms_equal_the_dense_pattern_sectors(case):
    h, t = case
    m = hamiltonian_matrix(h)
    expected = reference_sectors(m, t)
    assert_same_sectors(_sectors(_diagonals(h), 2**h.n_qubits, t), expected)
    assert matrix_exponential(m, t).tobytes() == assembled(m, expected).tobytes()


@for_matrices(examples=30)
def test_matrix_exponential_equals_the_dense_pattern_sectors(case):
    m, t = case
    assert matrix_exponential(m, t).tobytes() == assembled(m, reference_sectors(m, t)).tobytes()

