"""The per-term verify reference, regenerated by column blocks, against the
whole matrix; and the blocked distance against a whole-array evaluation.

A case is a Hamiltonian of 1-5 terms on 1-10 qubits, commuting (Z and I
factors only) or not, with Id terms mixed in, plus a synthesis variant and
an angle. With hypothesis installed the cases come from it; without it,
from a seeded random loop. A few fixed cases run either way.
"""

import io
from contextlib import redirect_stdout
from random import Random

import numpy as np
import pytest

from pauliexp import (
    EvolutionParams,
    Hamiltonian,
    PauliString,
    PauliTerm,
    SynthVariant,
    circuit_unitary,
    format_hamiltonian,
    phase_invariant_distance,
    trotter_circuit,
)
from pauliexp.cli import VERIFY_THRESHOLD, run_cli
from pauliexp.oracle import _BLOCK_ELEMENTS, _per_term_columns, _rotation
from helpers import label_of, reference_per_term_product

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - depends on the environment
    st = None

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


def for_cases(examples: int):
    """Run the decorated check on the fixed cases and ``examples`` drawn ones."""

    def decorate(check):
        if st is not None:
            masks = st.integers(0, 2**MAX_N - 1)
            terms = st.lists(
                st.tuples(masks, masks, st.floats(-2, 2), st.integers(0, 3).map(lambda k: k == 0)),
                min_size=1,
                max_size=5,
            )
            cases = st.builds(
                case_of,
                st.integers(1, MAX_N),
                st.sampled_from(list(SynthVariant)),
                st.booleans(),
                terms,
                st.floats(0.1, 1.5),
            )
            run = settings(max_examples=examples, derandomize=True, database=None, deadline=None)
            test = given(cases)(check)
            for case in FIXED_CASES:
                test = example(case)(test)
            return run(test)

        def loop():
            rng = Random(check.__name__)
            drawn = []
            for _ in range(examples):
                n = rng.randint(1, MAX_N)
                terms = [
                    (rng.getrandbits(n), rng.getrandbits(n), rng.uniform(-2, 2), rng.random() < 0.25)
                    for _ in range(rng.randint(1, 5))
                ]
                variant = rng.choice(list(SynthVariant))
                drawn.append(case_of(n, variant, rng.random() < 0.5, terms, rng.uniform(0.1, 1.5)))
            for case in FIXED_CASES + drawn:
                check(case)

        loop.__name__ = check.__name__
        return loop

    return decorate


@for_cases(examples=60)
def test_reference_blocks_equal_the_whole_product(case):
    h, _, t = case
    whole = reference_per_term_product(h, t)
    d = len(whole)
    rotations = [_rotation(term.string, t * term.coefficient) for term in h.terms]
    width = max(1, _BLOCK_ELEMENTS // 2 // d)  # the distance's partition
    uneven = sorted({0, 1, d // 3, d // 2 + 1, d})
    for bounds in (list(range(0, d, width)) + [d], uneven):
        for start, stop in zip(bounds, bounds[1:]):
            block = _per_term_columns(rotations, d, start, stop)
            assert np.array_equal(block, whole[:, start:stop])


@for_cases(examples=20)
def test_verify_prints_the_distance_to_the_whole_product(case):
    h, variant, t = case
    argv = ["verify", f"--ham={format_hamiltonian(h)}", "--n", str(h.n_qubits), "--t", repr(t)]
    with redirect_stdout(io.StringIO()) as out:
        rc = run_cli([*argv, "--variant", variant.value])
    unitary = circuit_unitary(trotter_circuit(h, EvolutionParams(t), variant))
    distance = phase_invariant_distance(unitary, reference_per_term_product(h, t))
    verdict = "PASS" if distance <= VERIFY_THRESHOLD else "FAIL"
    assert out.getvalue() == f"{distance:.6e} {verdict}\n", argv
    assert rc == (0 if verdict == "PASS" else 2)


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
