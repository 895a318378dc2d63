"""The per-term verify distance, streamed over column blocks of U and of
the per-term product R, against the distance between the whole matrices,
on correct and on broken circuits and in the CLI's output; the --exact
distance, streamed over the same blocks of U and of the sector-built
reference, against the public composition of whole matrices; and the
blocked phase-invariant distance against a whole-array evaluation.

A case is a Hamiltonian of 1-5 terms on 1-10 qubits (1-9 for the streamed
per-term distance, whose fixed cases hold one at 10; 1-8 for --exact),
commuting (Z and I factors only, so a diagonal matrix) or not, with Id
terms mixed in, plus a synthesis variant and an angle. With hypothesis
installed the cases come from it; without it, from a seeded random loop
(see ``helpers.property_test``). A few fixed cases run either way.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from pauliexp import (
    EvolutionParams,
    Gate,
    Hamiltonian,
    PauliString,
    PauliTerm,
    QuantumCircuit,
    SynthVariant,
    circuit_unitary,
    format_hamiltonian,
    hamiltonian_matrix,
    matrix_exponential,
    parse_hamiltonian,
    phase_invariant_distance,
    trotter_circuit,
)
from pauliexp.circuit import CX, RZ, SDG, S
from pauliexp.cli import VERIFY_THRESHOLD, run_cli
from pauliexp.oracle import MAX_EXPM_QUBITS, _exact_distance, _per_term_distance
from helpers import label_of, property_test, whole_product_distance

MAX_N = 10


def case_of(n: int, variant: SynthVariant, commuting: bool, terms, t: float):
    """(Hamiltonian, variant, t) from (x, z, coefficient, identity) draws per
    term: masks are cut to n bits, a commuting set drops the X bits (so
    every factor is Z or I), and an identity draw makes the term Id."""
    built = []
    for x, z, coefficient, identity in terms:
        x, z = (0, 0) if identity else (0 if commuting else x % 2**n, z % 2**n)
        built.append(PauliTerm(coefficient, PauliString.from_label(label_of(n, x, z))))
    return Hamiltonian(n, tuple(built)), variant, t


FIXED_CASES = [
    case_of(1, SynthVariant.Z_LADDER, False, [(1, 1, 0.7, False)], 0.9),
    case_of(5, SynthVariant.MIXED, True, [(0, 0b10110, 1.2, False), (0, 0, -0.4, True)], 0.6),
    case_of(
        MAX_N,
        SynthVariant.X_LADDER,
        False,
        [(0b1011011101, 0b0110110011, -1.3, False), (0, 0, 0.4, True), (0, 0b1111100000, 0.8, False)],
        1.1,
    ),
]


def for_cases(examples: int, max_n: int = MAX_N, fixed=FIXED_CASES):
    """Run the decorated check on the ``fixed`` cases and ``examples`` drawn
    ones of at most ``max_n`` qubits."""

    def strategy(st):
        masks = st.integers(0, 2**max_n - 1)
        terms = st.lists(
            st.tuples(masks, masks, st.floats(-2, 2), st.integers(0, 3).map(lambda k: k == 0)),
            min_size=1,
            max_size=5,
        )
        return st.builds(
            case_of,
            st.integers(1, max_n),
            st.sampled_from(list(SynthVariant)),
            st.booleans(),
            terms,
            st.floats(0.1, 1.5),
        )

    def draw(rng):
        n = rng.randint(1, max_n)
        terms = [
            (rng.getrandbits(n), rng.getrandbits(n), rng.uniform(-2, 2), rng.random() < 0.25)
            for _ in range(rng.randint(1, 5))
        ]
        variant = rng.choice(list(SynthVariant))
        return case_of(n, variant, rng.random() < 0.5, terms, rng.uniform(0.1, 1.5))

    return property_test(examples, strategy, draw, fixed)


def _verdict(distance: float) -> str:
    return "PASS" if distance <= VERIFY_THRESHOLD else "FAIL"


@for_cases(examples=40, max_n=MAX_N - 1)  # the fixed X_LADDER case checks the cap
def test_streamed_distance_equals_the_whole_product_distance(case):
    h, _, t = case
    for variant in SynthVariant:
        c = trotter_circuit(h, EvolutionParams(t), variant)
        distance = _per_term_distance(c, h, t)
        assert distance == whole_product_distance(c, h, t)
        assert _verdict(distance) == "PASS"


@for_cases(examples=20)
def test_verify_prints_the_distance_to_the_whole_product(case):
    h, variant, t = case
    argv = ["verify", f"--ham={format_hamiltonian(h)}", "--n", str(h.n_qubits), "--t", repr(t)]
    with redirect_stdout(io.StringIO()) as out:
        rc = run_cli([*argv, "--variant", variant.value])
    distance = whole_product_distance(trotter_circuit(h, EvolutionParams(t), variant), h, t)
    assert out.getvalue() == f"{distance:.6e} {_verdict(distance)}\n", argv
    assert rc == (0 if _verdict(distance) == "PASS" else 2)


N = MAX_EXPM_QUBITS
EXACT_CASES = [case for case in FIXED_CASES if case[0].n_qubits <= N] + [
    # the X0 Z1 terms cancel to zero couplings: every sector is one state
    (parse_hamiltonian("0.5*X0 Z1 - 0.5*X0 Z1 + 0.3*Z0", 2), SynthVariant.Z_LADDER, 0.8),
    # an X or Y on every qubit, spread over the terms: one sector of 2^8 states
    (
        parse_hamiltonian(" + ".join(f"{k + 1}e-1*{'XY'[k % 2]}{k} Z{(k + 3) % N}" for k in range(N)), N),
        SynthVariant.MIXED,
        0.7,
    ),
    # Z factors only: a diagonal matrix, 2^8 one-state sectors
    (parse_hamiltonian("0.5*Z0 Z1 Z2 + 0.3*Z2 Z5 - 0.2*Z7 + 0.1*Id", N), SynthVariant.X_LADDER, 1.3),
    # the CLI's smoke input: 2^7 two-state sectors
    (parse_hamiltonian("0.5*Z0 Z1 X2 + 0.3*X2 Z5 + 0.2*Z7", N), SynthVariant.Z_LADDER, 0.9),
    # entries past 2^500, which matrix_exponential scales for its Hermitian
    # check and _exact_distance never checks
    (parse_hamiltonian("1e308*Z0 + 1e308*Z0 - 1e308*Z0", 1), SynthVariant.Z_LADDER, 0.25),
]


@for_cases(examples=30, max_n=N, fixed=EXACT_CASES)
def test_streamed_exact_distance_equals_the_public_composition(case):
    h, variant, t = case
    c = trotter_circuit(h, EvolutionParams(t), variant)
    reference = matrix_exponential(hamiltonian_matrix(h), t)
    distance = phase_invariant_distance(circuit_unitary(c), reference)
    assert _exact_distance(c, h, t) == distance
    argv = ["verify", f"--ham={format_hamiltonian(h)}", "--n", str(h.n_qubits), "--t", repr(t)]
    with redirect_stdout(io.StringIO()) as out:
        rc = run_cli([*argv, "--variant", variant.value, "--exact"])
    assert out.getvalue() == f"{distance:.6e} {_verdict(distance)}\n", argv
    assert rc == (0 if _verdict(distance) == "PASS" else 2)


def _flip_first_rz(c: QuantumCircuit) -> tuple[Gate, ...]:
    k = next(k for k, g in enumerate(c.gates) if g.kind == RZ)
    g = c.gates[k]
    return c.gates[:k] + (Gate.rz(g.qubits[0], -g.angle),) + c.gates[k + 1 :]


def _drop_first_cx(c: QuantumCircuit) -> tuple[Gate, ...]:
    k = next(k for k, g in enumerate(c.gates) if g.kind == CX)
    return c.gates[:k] + c.gates[k + 1 :]


def _swap_wraps(c: QuantumCircuit) -> tuple[Gate, ...]:
    # a Y factor's basis change before the ladder trades places with the
    # one after it (S for Sdg and back), which turns Y into -Y
    traded = {S: SDG, SDG: S}
    return tuple(Gate(traded.get(g.kind, g.kind), g.qubits, g.angle) for g in c.gates)


def _reverse_terms(h: Hamiltonian, t: float, variant: SynthVariant) -> tuple[Gate, ...]:
    backwards = Hamiltonian(h.n_qubits, h.terms[::-1])
    return trotter_circuit(backwards, EvolutionParams(t), variant).gates


MUTATIONS = {
    "flipped-rz": lambda c, h, t, v: _flip_first_rz(c),
    "dropped-cx": lambda c, h, t, v: _drop_first_cx(c),
    "swapped-wrap": lambda c, h, t, v: _swap_wraps(c),
    "reversed-terms": lambda c, h, t, v: _reverse_terms(h, t, v),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("variant", list(SynthVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("n", [3, 8])
def test_broken_circuits_fail_both_distances(n, variant, mutation):
    # two terms that anticommute on qubit 0 and share a Y on qubit 1
    first = "X0 Y1 " + " ".join(f"Z{k}" for k in range(2, n))
    h = parse_hamiltonian(f"0.7*{first} + 0.5*Z0 Y1", n)
    t = 0.9
    c = trotter_circuit(h, EvolutionParams(t), variant)
    assert _verdict(_per_term_distance(c, h, t)) == "PASS"
    broken = QuantumCircuit(n, MUTATIONS[mutation](c, h, t, variant), c.global_phase)
    assert broken.gates != c.gates
    distance = _per_term_distance(broken, h, t)
    assert distance == whole_product_distance(broken, h, t)
    assert _verdict(distance) == "FAIL"


def _whole_array_distance(a: np.ndarray, b: np.ndarray) -> float:
    w = np.exp(1j * np.angle(np.vdot(b, a)))
    return float(np.linalg.norm(a - w * b))


def _random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# every shape spans more than one block of the distance's partition
MULTI_BLOCK_SHAPES = [(1024, 1024), (300, 500), (2**15 + 3, 2), (100_000,), (7, 20_000)]


@pytest.mark.parametrize("shape", MULTI_BLOCK_SHAPES)
def test_distance_is_exactly_zero_on_identical_inputs(shape):
    a = _random_complex(np.random.default_rng(41), shape)
    assert phase_invariant_distance(a, a.copy()) == 0.0


@pytest.mark.parametrize("shape", MULTI_BLOCK_SHAPES)
@pytest.mark.parametrize("noise", [0.0, 1e-9, 1.0])
def test_distance_matches_a_whole_array_evaluation(shape, noise):
    rng = np.random.default_rng(42)
    b = _random_complex(rng, shape)
    a = np.exp(0.7j) * b + noise * _random_complex(rng, shape)
    expected = _whole_array_distance(a, b)
    assert abs(phase_invariant_distance(a, b) - expected) <= 1e-12 * (1 + expected)


def test_distance_works_on_short_vectors():
    a = np.array([1, 1j, -1], dtype=complex)
    assert phase_invariant_distance(a, 1j * a) <= 1e-15
    b = np.array([1, 0, 0], dtype=complex)
    assert phase_invariant_distance(a, b) == pytest.approx(_whole_array_distance(a, b), abs=1e-15)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0,), (3, 0, 2)])
def test_distance_of_empty_arrays_is_zero(shape):
    a = np.zeros(shape, dtype=complex)
    assert phase_invariant_distance(a, a.copy()) == 0.0
