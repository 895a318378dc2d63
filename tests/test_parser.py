"""Hamiltonian expression grammar: parsing, formatting, round-trips, fuzzing."""

from random import Random

import pytest

from pauliexp import (
    EvolutionParams,
    Hamiltonian,
    ParseError,
    PauliString,
    PauliTerm,
    SynthVariant,
    emit_qasm,
    format_hamiltonian,
    parse_hamiltonian,
    trotter_circuit,
)
from helpers import random_hamiltonian


def labels(h: Hamiltonian) -> list[tuple[float, str]]:
    return [(t.coefficient, t.string.to_label()) for t in h.terms]


def test_two_weighted_terms():
    h = parse_hamiltonian("0.5*Z0 Z1 + 0.3*X0", 2)
    assert labels(h) == [(0.5, "ZZ"), (0.3, "XI")]


def test_unweighted_multi_factor_term():
    h = parse_hamiltonian("Z0 Y2 X5 Z7", 8)
    assert len(h.terms) == 1
    assert h.terms[0].coefficient == 1.0
    assert h.terms[0].string.support == (0, 2, 5, 7)


def test_duplicate_qubit_rejected_at_second_factor():
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("1.0*Z0 Z0", 2)
    assert err.value.position == 7


def test_identity_term_needs_explicit_coefficient():
    h = parse_hamiltonian("2.5*Id", 3)
    assert labels(h) == [(2.5, "III")]
    with pytest.raises(ParseError):
        parse_hamiltonian("Id", 3)


def test_minus_connective_and_signed_literals():
    assert labels(parse_hamiltonian("1*Z0 - 0.3*X0", 1)) == [(1.0, "Z"), (-0.3, "X")]
    assert labels(parse_hamiltonian("0.5*Z0 + -0.3*X0", 1)) == [(0.5, "Z"), (-0.3, "X")]
    assert labels(parse_hamiltonian("-Z0", 1)) == [(-1.0, "Z")]
    assert labels(parse_hamiltonian("1*Z0 - -2*X0", 1)) == [(1.0, "Z"), (2.0, "X")]


def test_scientific_notation_coefficients():
    assert labels(parse_hamiltonian("2.5e-3*Z0", 1)) == [(2.5e-3, "Z")]


def test_whitespace_and_comments_ignored():
    text = "# cost terms\n0.5*Z0 Z1\n + 0.3*X0 # transverse\n"
    assert labels(parse_hamiltonian(text, 2)) == [(0.5, "ZZ"), (0.3, "XI")]


@pytest.mark.parametrize(
    "text,n,position,fragment",
    [
        ("", 2, 0, "empty input"),
        ("   # only a comment", 2, 19, "empty input"),
        ("0.5*Z0 &", 2, 7, "unknown token"),
        ("Z5", 2, 1, "out of range"),
        ("0.5 Z0", 2, 4, "expected '*'"),
        ("0.5*", 2, 4, "expected a Pauli factor, got 'end of input'"),
        ("Z0 +", 2, 4, "expected a Pauli factor"),
        ("Z0 Z1 Z0", 2, 6, "assigned twice"),
        ("Z", 2, 1, "expected a qubit index"),
        ("Z0.5", 2, 1, "expected a qubit index"),
        ("1e999*Z0", 2, 0, "not finite"),
        ("--Z0", 2, 1, "expected a Pauli factor"),
        ("Z0 X1 Y2 extra", 3, 9, "unknown token"),
        ("\u0662*Z\u0661", 3, 0, "unknown token"),  # Arabic-Indic digits read 2*Z1
        ("Z0 X" + "9" * 5000, 2, 4, "qubit index of 5000 digits out of range for 2 qubits"),
        ("Z" + "0" * 5000 + "12", 12, 1, "qubit index 12 out of range"),
        ("Z99999999", 2, 1, "qubit index 99999999 out of range for 2 qubits"),
        ("Z0 Z1 3", 2, 6, "expected '+' or '-', got '3'"),
        ("1*Z0 * Z1", 2, 5, "expected '+' or '-', got '*'"),
        ("Id", 2, 0, "'Id' requires an explicit coefficient"),
    ],
)
def test_rejected_inputs_carry_positions(text, n, position, fragment):
    with pytest.raises(ParseError) as err:
        parse_hamiltonian(text, n)
    assert fragment in err.value.message
    assert err.value.position == position


def test_qubit_indices_may_have_leading_zeros_and_long_ones_are_not_read():
    assert labels(parse_hamiltonian("Z007 X" + "0" * 5000 + "1", 8)) == [(1.0, "IXIIIIIZ")]
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("Z1 Y" + "0" * 10 + "10", 9)
    assert err.value.position == 4
    assert err.value.message == "qubit index 10 out of range for 9 qubits"
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("Z" + "9" * 9, 2**24)
    assert err.value.position == 1
    assert err.value.message == "qubit index of 9 digits out of range for 16777216 qubits"


def test_qubit_index_just_below_the_cap_is_read():
    h = parse_hamiltonian("Z16777215 X0", 2**24)
    string = h.terms[0].string
    assert (string.x, string.z) == (1, 1 << (2**24 - 1))


def test_unknown_character_outranks_an_earlier_grammar_error():
    # the whole text is tokenized before a grammar error is reported
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("1*Z0 Z0 + Q1", 2)
    assert (err.value.position, err.value.message) == (10, "unknown token 'Q'")


def test_format_canonical_examples():
    zz = Hamiltonian(2, (PauliTerm(1.0, PauliString.from_label("ZZ")),))
    assert format_hamiltonian(zz) == "1*Z0 Z1"

    two = Hamiltonian(
        2,
        (
            PauliTerm(0.5, PauliString.from_label("ZZ")),
            PauliTerm(-0.3, PauliString.from_label("XI")),
        ),
    )
    assert format_hamiltonian(two) == "0.5*Z0 Z1 + -0.3*X0"

    ident = Hamiltonian(2, (PauliTerm(2.0, PauliString.from_label("II")),))
    assert format_hamiltonian(ident) == "2*Id"


def test_format_rejects_a_hamiltonian_with_no_terms():
    # its rendering "" would not parse back
    with pytest.raises(ParseError, match="empty input"):
        parse_hamiltonian("", 2)
    with pytest.raises(ValueError, match="no terms"):
        format_hamiltonian(Hamiltonian(2, ()))


def test_format_of_parsed_multi_factor_term():
    h = parse_hamiltonian("Z0 Y2 X5 Z7", 8)
    assert format_hamiltonian(h) == "1*Z0 Y2 X5 Z7"


def test_round_trip_identity_randomized():
    """Weights of either sign of zero round-trip too: ``==`` cannot tell them
    apart, but the document of the re-parsed Hamiltonian must not change."""
    rng = Random(101)
    for _ in range(300):
        h = random_hamiltonian(rng)
        h = Hamiltonian(
            h.n_qubits,
            tuple(
                PauliTerm(rng.choice((0.0, -0.0)), term.string) if rng.random() < 0.2 else term
                for term in h.terms
            ),
        )
        again = parse_hamiltonian(format_hamiltonian(h), h.n_qubits)
        assert again == h
        params, variant = EvolutionParams(0.7), rng.choice(list(SynthVariant))
        document = emit_qasm(trotter_circuit(h, params, variant))
        assert emit_qasm(trotter_circuit(again, params, variant)) == document


def test_fuzzing_never_crashes():
    rng = Random(102)
    alphabet = "XYZId0123456789.*+- e#\n\t()[]@$"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            result = parse_hamiltonian(text, 4)
        except ParseError:
            continue
        assert isinstance(result, Hamiltonian)


def test_fuzzing_random_bytes_never_crash():
    rng = Random(103)
    for _ in range(300):
        text = bytes(rng.randrange(256) for _ in range(rng.randint(0, 30))).decode(
            "latin-1"
        )
        try:
            result = parse_hamiltonian(text, 3)
        except ParseError:
            continue
        assert isinstance(result, Hamiltonian)
