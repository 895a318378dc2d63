"""Synthesis of exp(-i*t*w*P): ladders, basis-change wraps, variants, Trotter."""

import copy
import itertools
import math
import pickle
import re
from collections import Counter
from random import Random

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
    SynthVariant,
    cancel_adjacent,
    circuit_unitary,
    emit_qasm,
    exp_pauli_closed_form,
    exp_pauli_term,
    format_hamiltonian,
    hamiltonian_matrix,
    matrix_exponential,
    parse_hamiltonian,
    pauli_matrix,
    phase_invariant_distance,
    synth_z_rotation,
    trotter_circuit,
    validate_qasm,
)
from helpers import depth, for_labels, random_pauli_string, reference_exp_pauli_term

T_SAMPLES = (0.1, 0.7, math.pi / 3, -1.2)
Z_STRING = PauliString.from_label("Z")
Z_TERM = PauliTerm(1.0, Z_STRING)
Z_CIRCUIT = QuantumCircuit(1, (Gate.rz(0, 0.5),))
PAST = ", got an int past the float range$"


def term(label: str, coefficient: float = 1.0) -> PauliTerm:
    return PauliTerm(coefficient, PauliString.from_label(label))


def test_single_qubit_ladder_is_one_rz():
    theta = 1.4
    c = synth_z_rotation(1, [0], theta)
    assert c.gates == (Gate.rz(0, theta),)
    assert c.global_phase == 0.0


def test_ladder_gate_sequence_for_three_support_qubits():
    theta = 1.4
    c = synth_z_rotation(6, [1, 3, 5], theta)
    assert c.gates == (
        Gate.cx(5, 3),
        Gate.cx(3, 1),
        Gate.rz(1, theta),
        Gate.cx(3, 1),
        Gate.cx(5, 3),
    )


def halving_fold(support: list[int]) -> list[Gate]:
    """The fold as specified: the high half's fold, the low half's fold,
    then CX(high[0], low[0]), with the low half the first k // 2 qubits."""
    if len(support) == 1:
        return []
    half = len(support) // 2
    low, high = support[:half], support[half:]
    return [*halving_fold(high), *halving_fold(low), Gate.cx(high[0], low[0])]


def test_fold_takes_ceil_log2_k_cx_layers_on_each_side():
    rng = Random(35)
    for k in range(1, 65):
        support = sorted(rng.sample(range(2 * k), k))
        theta = rng.uniform(-3.0, 3.0)
        gates = synth_z_rotation(2 * k, support, theta).gates
        fold = halving_fold(support)
        assert gates == (*fold, Gate.rz(support[0], theta), *reversed(fold))
        if k <= 3:  # the chain CX(qk, qk-1), ..., CX(q2, q1)
            assert fold == [Gate.cx(b, a) for a, b in reversed(list(zip(support, support[1:])))]
        layers = (k - 1).bit_length()  # ceil(log2 k)
        assert depth(gates[: k - 1]) == depth(gates[k:]) == layers
        assert depth(gates) == 2 * layers + 1


def test_ladder_unitary_matches_closed_form_zzz():
    t = 0.45
    c = synth_z_rotation(3, [0, 1, 2], 2 * t)
    ref = exp_pauli_closed_form(PauliString.from_label("ZZZ"), t)
    assert np.linalg.norm(circuit_unitary(c) - ref) <= 1e-12


def test_ladder_on_sparse_support_leaves_other_qubits_alone():
    t = 0.45
    c = synth_z_rotation(4, [0, 3], 2 * t)
    ref = exp_pauli_closed_form(PauliString.from_label("ZIIZ"), t)
    assert np.linalg.norm(circuit_unitary(c) - ref) <= 1e-12


def test_ladder_input_validation():
    with pytest.raises(ValueError, match="empty"):
        synth_z_rotation(2, [], 0.5)
    with pytest.raises(ValueError, match="ascending"):
        synth_z_rotation(3, [2, 1], 0.5)
    with pytest.raises(ValueError, match="ascending"):
        synth_z_rotation(3, [1, 1], 0.5)
    with pytest.raises(ValueError, match="out of range"):
        synth_z_rotation(3, [1, 3], 0.5)
    for theta, shown in ((math.inf, "inf"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=f"^rz angle must be finite, got {shown}$"):
            synth_z_rotation(3, [0, 2], theta)
    with pytest.raises(TypeError, match="^rz angle must be a real number, got None$"):
        synth_z_rotation(3, [0, 2], None)
    for theta in (2, np.int64(-3), np.float32(0.5), np.float64(1.25)):
        (rz,) = [g for g in synth_z_rotation(3, [0, 2], theta).gates if g.kind == "rz"]
        assert type(rz.angle) is float and rz.angle == float(theta)


def test_six_qubit_yyx_gate_sequence_frozen():
    t = 0.7
    c = exp_pauli_term(term("IYIYIX"), t, SynthVariant.Z_LADDER)
    assert c.gates == (
        Gate.sdg(1), Gate.h(1),
        Gate.sdg(3), Gate.h(3),
        Gate.h(5),
        Gate.cx(5, 3), Gate.cx(3, 1),
        Gate.rz(1, 2 * t),
        Gate.cx(3, 1), Gate.cx(5, 3),
        Gate.h(1), Gate.s(1),
        Gate.h(3), Gate.s(3),
        Gate.h(5),
    )
    assert c.global_phase == 0.0


def test_identity_string_is_pure_phase():
    t = 0.9
    for variant in SynthVariant:
        c = exp_pauli_term(term("IIII"), t, variant)
        assert c.gates == ()
        assert c.global_phase == -t
        ref = exp_pauli_closed_form(PauliString.from_label("IIII"), t)
        assert np.linalg.norm(circuit_unitary(c) - ref) <= 1e-12


def test_xz_matches_cz_rx_cz_construction():
    t = 0.7
    u = circuit_unitary(exp_pauli_term(term("XZ"), t, SynthVariant.Z_LADDER))
    ref = exp_pauli_closed_form(PauliString.from_label("XZ"), t)
    assert np.linalg.norm(u - ref) <= 1e-12
    # independent route: literal CZ . (RX(2t) x I) . CZ matrix product
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    rx = np.array(
        [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]]
    )
    manual = cz @ np.kron(rx, np.eye(2)) @ cz
    assert np.linalg.norm(u - manual) <= 1e-12


@pytest.mark.parametrize("variant", list(SynthVariant))
@pytest.mark.parametrize("t", T_SAMPLES)
def test_exhaustive_two_qubit_strings(variant, t):
    for chars in itertools.product("IXYZ", repeat=2):
        p = PauliString.from_label("".join(chars))
        u = circuit_unitary(exp_pauli_term(PauliTerm(1.0, p), t, variant))
        assert np.linalg.norm(u - exp_pauli_closed_form(p, t)) <= 1e-10


def test_coefficient_folds_into_the_angle():
    rng = Random(41)
    for _ in range(50):
        p = random_pauli_string(rng, rng.randint(1, 5))
        w = rng.uniform(-2.0, 2.0)
        t = rng.uniform(-2.0, 2.0)
        variant = rng.choice(list(SynthVariant))
        weighted = exp_pauli_term(PauliTerm(w, p), t, variant)
        folded = exp_pauli_term(PauliTerm(1.0, p), w * t, variant)
        assert weighted == folded


def test_negated_time_gives_the_dagger():
    rng = Random(42)
    for _ in range(40):
        p = random_pauli_string(rng, rng.randint(1, 4), min_weight=1)
        t = rng.uniform(-2.0, 2.0)
        variant = rng.choice(list(SynthVariant))
        forward = circuit_unitary(exp_pauli_term(PauliTerm(1.0, p), t, variant))
        backward = circuit_unitary(exp_pauli_term(PauliTerm(1.0, p), -t, variant))
        assert np.linalg.norm(backward - forward.conj().T) <= 1e-12


def test_gate_count_formulas_z_ladder():
    rng = Random(43)
    for _ in range(80):
        p = random_pauli_string(rng, rng.randint(1, 8), min_weight=1)
        counts = exp_pauli_term(PauliTerm(1.0, p), 0.7, SynthVariant.Z_LADDER).gate_counts()
        k = p.weight
        n_x = sum(op.value == "X" for op in p)
        n_y = sum(op.value == "Y" for op in p)
        assert counts["cx"] == 2 * (k - 1)
        assert counts["rz"] == 1
        assert counts["h"] == 2 * (n_x + n_y)
        assert counts["s"] == n_y == counts["sdg"]
        assert counts["rx"] == 0


def test_variants_agree_pairwise():
    rng = Random(44)
    for _ in range(40):
        p = random_pauli_string(rng, rng.randint(1, 5))
        t = rng.choice(T_SAMPLES)
        us = [
            circuit_unitary(exp_pauli_term(PauliTerm(1.0, p), t, v))
            for v in SynthVariant
        ]
        for a, b in itertools.combinations(us, 2):
            assert np.linalg.norm(a - b) <= 1e-10


def test_mixed_variant_emits_wraps_in_kind_layers():
    c = exp_pauli_term(term("IYIYIX"), 0.7, SynthVariant.MIXED)
    assert c.gates[:5] == (Gate.sdg(1), Gate.sdg(3), Gate.h(1), Gate.h(3), Gate.h(5))
    assert c.gates[-5:] == (Gate.h(1), Gate.h(3), Gate.h(5), Gate.s(1), Gate.s(3))


def test_x_ladder_adds_cancelable_h_pairs_on_z_legs():
    c = exp_pauli_term(term("ZZ"), 0.4, SynthVariant.X_LADDER)
    assert c.gate_counts()["h"] == 8
    compacted = cancel_adjacent(c)
    assert compacted.gate_counts()["h"] == 0
    z_ladder = exp_pauli_term(term("ZZ"), 0.4, SynthVariant.Z_LADDER)
    assert compacted.gates == z_ladder.gates


def test_trotter_single_term_is_exact_for_any_reps():
    h = Hamiltonian(2, (term("ZZ", 0.5),))
    t = 1.3
    ref = exp_pauli_closed_form(PauliString.from_label("ZZ"), 0.5 * t)
    for reps in (1, 3, 7):
        circ = trotter_circuit(h, EvolutionParams(t, reps))
        assert np.linalg.norm(circuit_unitary(circ) - ref) <= 1e-12


def test_trotter_first_order_error_halves_with_doubled_reps():
    h = Hamiltonian(2, (term("ZZ", 0.5), term("XI", 0.3), term("IY", 0.2)))
    exact = matrix_exponential(hamiltonian_matrix(h), 1.0)

    def error(reps: int) -> float:
        circ = trotter_circuit(h, EvolutionParams(1.0, reps))
        return phase_invariant_distance(circuit_unitary(circ), exact)

    ratio = error(4) / error(8)
    assert 1.6 <= ratio <= 2.4


def test_trotter_compact_merges_identical_slices():
    h = Hamiltonian(3, (term("ZIZ", 0.9),))
    t = 0.8
    merged = trotter_circuit(h, EvolutionParams(t, 2), compact=True)
    assert merged.gate_counts()["cx"] == 2
    [rz] = [g for g in merged.gates if g.kind == "rz"]
    assert rz.angle == pytest.approx(2 * t * 0.9)
    ref = exp_pauli_closed_form(PauliString.from_label("ZIZ"), 0.9 * t)
    assert np.linalg.norm(circuit_unitary(merged) - ref) <= 1e-12


def test_trotter_keeps_identity_term_phase():
    h = Hamiltonian(2, (term("II", 0.4), term("ZZ", 0.5)))
    t = 1.1
    circ = trotter_circuit(h, EvolutionParams(t, 3))
    assert circ.global_phase == pytest.approx(-0.4 * t)
    # reference: phase factor times the ZZ rotation
    ref = np.exp(-0.4j * t) * exp_pauli_closed_form(
        PauliString.from_label("ZZ"), 0.5 * t
    )
    assert np.linalg.norm(circuit_unitary(circ) - ref) <= 1e-12


def test_trotter_term_order_is_as_stored():
    h = Hamiltonian(1, (term("X", 1.0), term("Z", 1.0)))
    circ = trotter_circuit(h, EvolutionParams(0.9, 1))
    ref = exp_pauli_closed_form(
        PauliString.from_label("Z"), 0.9
    ) @ exp_pauli_closed_form(PauliString.from_label("X"), 0.9)
    assert np.linalg.norm(circuit_unitary(circ) - ref) <= 1e-12


def concatenated_trotter(h, t, reps, variant):
    gates, phase = [], 0.0
    for _ in range(reps):
        for term_ in h.terms:
            piece = exp_pauli_term(term_, t / reps, variant)
            gates.extend(piece.gates)
            phase += piece.global_phase
    return QuantumCircuit(h.n_qubits, tuple(gates), phase)


@pytest.mark.parametrize("variant", list(SynthVariant))
def test_trotter_equals_explicit_concatenation_exactly(variant):
    # Slice phases -0.037, 0, -0.111 summed over 6 reps give -0.888 left to
    # right, but -0.8879999999999999 as slice sum times reps.
    tricky = Hamiltonian(2, (term("II", 0.037), term("XZ", 0.5), term("II", 0.111)))
    assert concatenated_trotter(tricky, 6.0, 6, variant).global_phase == -0.888
    cases = [(tricky, 6.0, 6)]
    rng = Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        terms = [
            PauliTerm(rng.uniform(-3.0, 3.0), random_pauli_string(rng, n))
            for _ in range(rng.randint(0, 5))
        ]
        for _ in range(rng.randint(2, 3)):
            identity = PauliTerm(rng.uniform(-3.0, 3.0), PauliString.from_label("I" * n))
            terms.insert(rng.randint(0, len(terms)), identity)
        cases.append((Hamiltonian(n, tuple(terms)), rng.uniform(-2.0, 2.0), rng.randint(1, 7)))
    for h, t, reps in cases:
        expected = concatenated_trotter(h, t, reps, variant)
        circuit = trotter_circuit(h, EvolutionParams(t, reps), variant)
        assert circuit.gates == expected.gates
        assert circuit.global_phase == expected.global_phase  # exact, not approx


def test_evolution_params_validation():
    with pytest.raises(ValueError):
        EvolutionParams(float("inf"), 1)
    with pytest.raises(ValueError):
        EvolutionParams(0.5, 0)


@pytest.mark.parametrize("bad", [True, 2.5, "2"])
def test_evolution_params_rejects_non_int_reps(bad):
    with pytest.raises(ValueError, match=f"reps must be an int, got {bad!r}"):
        EvolutionParams(1.0, bad)


def test_evolution_params_stores_t_as_a_float():
    h = Hamiltonian(2, (term("XZ", 0.5), term("YY", -1.5)))
    params = EvolutionParams(np.float32(0.7), 5)
    assert type(params.t) is float
    assert emit_qasm(trotter_circuit(h, params)) == emit_qasm(
        trotter_circuit(h, EvolutionParams(float(np.float32(0.7)), 5))
    )
    assert type(EvolutionParams(True).t) is float


@pytest.mark.parametrize("bad", [0.7j, "0.7", b"0.7", bytearray(b"0.7")])
def test_evolution_params_rejects_complex_and_text_t(bad):
    with pytest.raises(TypeError, match=re.escape(f"t must be a real number, got {bad!r}")):
        EvolutionParams(bad)


def test_values_at_the_qubit_cap_edge_build():
    top = 2**24 - 1
    assert Gate.h(top).qubits == (top,)
    assert QuantumCircuit(2**24, (Gate.h(top),)).n_qubits == 2**24
    assert Hamiltonian(2**24).n_qubits == 2**24
    assert PauliString.from_label("I" * top + "Z").support == (top,)
    assert synth_z_rotation(2**24, [0, top], 1.0).gates == (
        Gate.cx(top, 0),
        Gate.rz(0, 1.0),
        Gate.cx(top, 0),
    )


LONG = "<int that repr() rejects>"  # -10**5000, past str()'s digit limit
CAP = 2**24 + 1  # one past MAX_QUBITS


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: Gate("cx", (0,)), "cx takes 2 qubit(s), got (0,)"),
        (lambda: Gate.h(-1), "negative qubit index in (-1,)"),
        (lambda: QuantumCircuit(0), "n_qubits must be positive"),
        (lambda: QuantumCircuit(1, (), math.inf), "global_phase must be finite"),
        (lambda: Hamiltonian(0), "n_qubits must be positive"),
        (lambda: parse_hamiltonian("Z0", 0), "n_qubits must be positive"),
        (lambda: EvolutionParams(1.0, 0), "reps must be "),
        (lambda: Gate.h(-(10**5000)), "negative qubit index in <tuple that repr() rejects>"),
        (lambda: QuantumCircuit(1, (Gate.h(10**5000),)), "qubit index must be below 16777216"),
        (lambda: QuantumCircuit(-(10**5000)), f"n_qubits must be positive, got {LONG}"),
        (lambda: Hamiltonian(-(10**5000)), f"n_qubits must be positive, got {LONG}"),
        (lambda: EvolutionParams(1.0, -(10**5000)), f"reps must be positive, got {LONG}"),
        (lambda: Gate.h(2**24), "qubit index must be below 16777216"),
        (lambda: QuantumCircuit(CAP), "n_qubits must be at most 16777216"),
        (lambda: Hamiltonian(CAP), "n_qubits must be at most 16777216"),
        (lambda: parse_hamiltonian("Z0", CAP), "n_qubits must be at most 16777216"),
        (lambda: synth_z_rotation(CAP, [0], 1.0), "n_qubits must be at most 16777216"),
        (lambda: PauliString.from_label("I" * CAP), "n_qubits must be at most 16777216"),
        (
            lambda: PauliString(itertools.repeat(PauliOp.I, CAP)),
            "n_qubits must be at most 16777216",
        ),
    ],
    ids=[
        "gate-arity",
        "gate-negative-qubit",
        "circuit-no-qubits",
        "circuit-infinite-phase",
        "hamiltonian-no-qubits",
        "parse-no-qubits",
        "params-no-reps",
        "gate-long-negative-qubit",
        "circuit-long-qubit",
        "circuit-long-negative-count",
        "hamiltonian-long-negative-count",
        "params-long-negative-reps",
        "gate-qubit-at-cap",
        "circuit-count-past-cap",
        "hamiltonian-count-past-cap",
        "parse-count-past-cap",
        "synth-count-past-cap",
        "label-count-past-cap",
        "ops-count-past-cap",
    ],
)
def test_rejected_values_are_named_first(build, fragment):
    with pytest.raises(ValueError, match=f"^{re.escape(fragment)}"):
        build()


@pytest.mark.parametrize(
    "build,error,fragment",
    [
        (lambda: Hamiltonian(2, ["X"]), TypeError, "PauliTerm values, got 'X'"),
        (lambda: QuantumCircuit(2, ["h"]), TypeError, "Gate values, got 'h'"),
        (
            lambda: trotter_circuit(Hamiltonian(1, (term("Z"),)), 0.5),
            TypeError,
            "EvolutionParams, got 0.5",
        ),
        (lambda: matrix_exponential(np.eye(2), float("inf")), ValueError, "finite, got inf"),
        (lambda: matrix_exponential(np.eye(2), 1j), TypeError, "real number, got 1j"),
        (lambda: matrix_exponential(np.array([[np.nan]]), 1.0), ValueError, "non-finite entry"),
        (
            lambda: matrix_exponential(np.array([[0, 1e308], [-1e308, 0]]), 1e-300),
            ValueError,
            "not Hermitian",
        ),
        (
            lambda: hamiltonian_matrix(Hamiltonian(1, (term("Z", 1e308), term("Z", 1e308)))),
            ValueError,
            "past the float range",
        ),
        (lambda: Gate.rz(0, "0.5"), TypeError, "rz angle must be a real number, got '0.5'"),
        (lambda: Gate.rx(0, 1j), TypeError, "rx angle must be a real number, got 1j"),
        (lambda: synth_z_rotation(2, [0, 1], 1j), TypeError, "rz angle must be a real number"),
        (lambda: QuantumCircuit(1, (), "0.5"), TypeError, "global_phase must be a real number"),
        (lambda: QuantumCircuit(1, (), None), TypeError, "global_phase must be a real number"),
        (lambda: EvolutionParams([0.5]), TypeError, r"t must be a real number, got \[0.5\]"),
        (lambda: PauliTerm(1.0, "XZ"), TypeError, "string must be a PauliString, got 'XZ'"),
        (
            lambda: exp_pauli_term("Z0", 1.0, SynthVariant.Z_LADDER),
            TypeError,
            "term must be a PauliTerm, got 'Z0'",
        ),
        (
            lambda: trotter_circuit("Z0", EvolutionParams(1.0)),
            TypeError,
            "h must be a Hamiltonian, got 'Z0'",
        ),
        (
            lambda: trotter_circuit(-(10**5000), EvolutionParams(1.0)),
            TypeError,
            f"^h must be a Hamiltonian, got {re.escape(LONG)}$",
        ),
        (lambda: parse_hamiltonian("Z0", "3"), ValueError, "n_qubits must be an int, got '3'"),
        (lambda: parse_hamiltonian("Z0", 2.0), ValueError, "n_qubits must be an int, got 2.0"),
        (lambda: parse_hamiltonian(123, 2), TypeError, "text must be a str, got int"),
        (lambda: parse_hamiltonian(b"Z0", 2), TypeError, "text must be a str, got bytes"),
        (lambda: synth_z_rotation("3", [0], 1.0), ValueError, "n_qubits must be an int, got '3'"),
        (lambda: synth_z_rotation(0, [0], 1.0), ValueError, "^n_qubits must be positive, got 0$"),
        (lambda: exp_pauli_closed_form(Z_STRING, math.inf), ValueError, "finite, got inf"),
        (lambda: exp_pauli_closed_form(Z_STRING, math.nan), ValueError, "finite, got nan"),
        (lambda: exp_pauli_closed_form(Z_STRING, "1"), TypeError, "real number, got '1'"),
        (lambda: EvolutionParams(10**400), ValueError, f"^t must be finite{PAST}"),
        (lambda: PauliTerm(10**400, Z_STRING), ValueError, f"^coefficient must be finite{PAST}"),
        (lambda: Gate.rz(0, 10**400), ValueError, f"^rz angle must be finite{PAST}"),
        (lambda: QuantumCircuit(1, (), 10**400), ValueError, f"^global_phase must be finite{PAST}"),
        (lambda: exp_pauli_closed_form(Z_STRING, 10**400), ValueError, f"^t must be finite{PAST}"),
        (lambda: matrix_exponential(np.eye(2), 10**400), ValueError, f"^t must be finite{PAST}"),
        (lambda: EvolutionParams(10**5000), ValueError, f"^t must be finite{PAST}"),
        (
            lambda: EvolutionParams([10**5000]),
            TypeError,
            "^t must be a real number, got <list that repr\\(\\) rejects>$",
        ),
        (lambda: EvolutionParams(np.complex64(1 + 2j)), TypeError, "^t must be a real number"),
        (
            lambda: PauliTerm(np.complex64(0.5 + 1j), Z_STRING),
            TypeError,
            "^coefficient must be a real number",
        ),
        (lambda: Gate.rz(0, np.clongdouble(0.25 + 1j)), TypeError, "^rz angle must be a real"),
        (
            lambda: exp_pauli_closed_form(Z_STRING, np.complex64(0.5 + 3j)),
            TypeError,
            "^t must be a real number",
        ),
        (lambda: EvolutionParams(np.array(1 + 2j)), TypeError, "^t must be a real number"),
        (
            lambda: QuantumCircuit(1, (), np.array("0.5")),
            TypeError,
            "^global_phase must be a real number",
        ),
        (
            lambda: exp_pauli_closed_form(Z_TERM, 0.7),
            TypeError,
            "^p must be a PauliString, got PauliTerm",
        ),
        (lambda: pauli_matrix(Z_TERM), TypeError, "^p must be a PauliString, got PauliTerm"),
        (lambda: hamiltonian_matrix(Z_TERM), TypeError, "^h must be a Hamiltonian, got PauliTerm"),
        (
            lambda: circuit_unitary(Z_CIRCUIT.gates),
            TypeError,
            r"^c must be a QuantumCircuit, got \(rz",
        ),
        (lambda: cancel_adjacent(None), TypeError, "^circuit must be a QuantumCircuit, got None$"),
        (lambda: emit_qasm(None), TypeError, "^circuit must be a QuantumCircuit, got None$"),
        (lambda: format_hamiltonian(None), TypeError, "^h must be a Hamiltonian, got None$"),
        (lambda: validate_qasm(None), TypeError, "^text must be a str, got NoneType$"),
        (
            lambda: phase_invariant_distance(None, np.eye(2)),
            TypeError,
            "^a must be a numpy array, got None$",
        ),
        (lambda: PauliString.from_label(None), TypeError, "^label must be a str, got NoneType$"),
    ],
    ids=[
        "hamiltonian-terms",
        "circuit-gates",
        "trotter-params",
        "expm-t",
        "expm-complex-t",
        "expm-nan",
        "expm-huge-anti-hermitian",
        "hamiltonian-matrix-overflow",
        "rz-text-angle",
        "rx-complex-angle",
        "ladder-complex-angle",
        "circuit-text-phase",
        "circuit-none-phase",
        "params-list-t",
        "term-text-string",
        "exp-pauli-term-text-term",
        "trotter-text-hamiltonian",
        "trotter-int-past-repr-limit-hamiltonian",
        "parse-text-n-qubits",
        "parse-float-n-qubits",
        "parse-int-text",
        "parse-bytes-text",
        "ladder-text-n-qubits",
        "ladder-no-qubits",
        "closed-form-infinite-t",
        "closed-form-nan-t",
        "closed-form-text-t",
        "params-huge-int-t",
        "term-huge-int-coefficient",
        "rz-huge-int-angle",
        "circuit-huge-int-phase",
        "closed-form-huge-int-t",
        "expm-huge-int-t",
        "params-int-past-repr-limit-t",
        "params-list-past-repr-limit-t",
        "params-numpy-complex-t",
        "term-numpy-complex-coefficient",
        "rz-numpy-clongdouble-angle",
        "closed-form-numpy-complex-t",
        "params-complex-array-t",
        "circuit-text-array-phase",
        "closed-form-term-for-string",
        "pauli-matrix-term-for-string",
        "hamiltonian-matrix-term-for-hamiltonian",
        "circuit-unitary-gates-for-circuit",
        "cancel-none-circuit",
        "emit-none-circuit",
        "format-none-hamiltonian",
        "validate-none-text",
        "distance-none-array",
        "from-label-none",
    ],
)
@pytest.mark.filterwarnings("error")  # and no numpy warning on the way
def test_wrong_argument_types_and_infinite_t_are_named(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


@pytest.mark.parametrize("value", [np.float32(0.5), np.array(0.5)], ids=["float32", "0-d-array"])
@pytest.mark.filterwarnings("error")
def test_numpy_real_values_are_stored_as_floats(value):
    stored = (
        EvolutionParams(value).t,
        PauliTerm(value, Z_STRING).coefficient,
        Gate.rz(0, value).angle,
        QuantumCircuit(1, (), value).global_phase,
    )
    assert all(type(x) is float and x == 0.5 for x in stored)
    closed_form = exp_pauli_closed_form(Z_STRING, value)
    assert np.array_equal(closed_form, exp_pauli_closed_form(Z_STRING, 0.5))


@for_labels(1, 8, examples=500, fixed=("ZZ",))
def test_layouts_differ_by_h_pairs_on_z_factors(label):
    """For one term, cancel_adjacent turns x-ladder into mixed gate for gate,
    z-ladder's gates are mixed's with the wraps on each side reordered, and
    x-ladder's are mixed's plus two H pairs on each Z factor: one wrap rule,
    in three orders."""
    rng = Random(label)
    weighted = term(label, rng.uniform(-3.0, 3.0))
    t = rng.uniform(-2.0, 2.0)
    x_ladder, z_ladder, mixed = (
        exp_pauli_term(weighted, t, variant)
        for variant in (SynthVariant.X_LADDER, SynthVariant.Z_LADDER, SynthVariant.MIXED)
    )
    assert cancel_adjacent(x_ladder).gates == mixed.gates
    assert len(x_ladder) - len(mixed) == 4 * label.count("Z")
    assert Counter(z_ladder.gates) == Counter(mixed.gates)
    wraps = label.count("X") + 2 * label.count("Y")  # on each side of the ladder
    assert z_ladder.gates[wraps : len(mixed) - wraps] == mixed.gates[wraps : len(mixed) - wraps]
    h_pairs = Counter({Gate.h(k): 4 for k, op in enumerate(label) if op == "Z"})
    assert Counter(x_ladder.gates) == Counter(mixed.gates) + h_pairs


def test_evolution_params_accepts_numpy_int_reps():
    params = EvolutionParams(0.5, np.int32(3))
    assert params.reps == 3 and type(params.reps) is int
    h = Hamiltonian(1, (term("Z"),))
    assert len(trotter_circuit(h, params)) == 3


def test_parse_stores_int_qubit_counts_from_numpy_ints():
    h = parse_hamiltonian("1*Z0 + 0.5*X1 Y2 - 2*Id", np.int64(3))
    assert type(h.n_qubits) is int
    assert all(type(t.string.n_qubits) is int for t in h.terms)


def test_ladder_rejects_non_int_support():
    with pytest.raises(ValueError, match="qubit index must be an int, got 1.0"):
        synth_z_rotation(3, [0, 1.0], 0.5)
    with pytest.raises(ValueError, match="finite"):
        synth_z_rotation(3, [0, 1], float("inf"))
    assert synth_z_rotation(3, [np.int64(0), np.int64(2)], 0.5) == synth_z_rotation(3, [0, 2], 0.5)


def test_exp_pauli_term_equals_the_single_term_assembly():
    """The one-term Trotter product equals the term assembled on its own,
    gates and phase, identity strings and t = 0 included."""
    rng = Random(38)
    for variant in SynthVariant:
        for _ in range(80):
            n = rng.randint(1, 7)
            label = "I" * n if rng.random() < 0.2 else random_pauli_string(rng, n).to_label()
            t = rng.choice((0.0, -0.0, 1, np.float64(0.3), rng.uniform(-2.0, 2.0)))
            weighted = term(label, rng.choice((1.0, -0.0, rng.uniform(-3.0, 3.0))))
            expected = reference_exp_pauli_term(weighted, t, variant)
            assert exp_pauli_term(weighted, t, variant) == expected


def test_exp_pauli_term_errors():
    for t, shown in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=f"^t must be finite, got {shown}$"):
            exp_pauli_term(term("Z"), t, SynthVariant.Z_LADDER)
    with pytest.raises(ValueError, match="^rz angle must be finite, got inf$"):
        exp_pauli_term(term("XY", 1e308), 1e308, SynthVariant.MIXED)
    with pytest.raises(ValueError, match="^global_phase must be finite, got inf$"):
        exp_pauli_term(term("II", -1e308), 1e308, SynthVariant.X_LADDER)


@pytest.mark.parametrize("variant", ["x-ladder", None, 42])
def test_unknown_variant_is_rejected(variant):
    h = Hamiltonian(2, (term("XY"), term("ZI")))
    with pytest.raises(ValueError, match=f"variant {variant!r}$"):
        trotter_circuit(h, EvolutionParams(0.5, 2), variant)
    with pytest.raises(ValueError, match=f"variant {variant!r}$"):
        exp_pauli_term(term("YX"), 0.5, variant)


def _assert_like_checked(value):
    """``value`` has every field set, stored as its public constructor stores
    it: it equals and hashes like the value that constructor builds from the
    same fields, and survives pickle and copy. So do the values inside it."""
    names = type(value).__match_args__
    fields = [getattr(value, name) for name in names]  # AttributeError on an unset field
    if isinstance(value, PauliString):
        checked = PauliString(value.ops)
    else:
        checked = type(value)(*fields)
    assert value == checked and hash(value) == hash(checked)
    assert [type(f) for f in fields] == [type(getattr(checked, name)) for name in names]
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert copied == value and hash(copied) == hash(value)
    if isinstance(value, Gate):
        assert type(value.angle) is (float if value.kind in ("rz", "rx") else type(None))
        assert all(type(q) is int for q in value.qubits)
    for inner in (*getattr(value, "gates", ()), *getattr(value, "terms", ())):
        _assert_like_checked(inner)
    if isinstance(value, PauliTerm):
        _assert_like_checked(value.string)


def test_synthesized_gates_equal_validated_gates():
    """Values built on the unchecked internal hops, gates, circuits, strings,
    terms and Hamiltonians, equal and hash like those the public constructors
    build, with every field set."""
    rng = Random(36)
    for variant in SynthVariant:
        for _ in range(20):
            n = rng.randint(1, 6)
            terms = [
                PauliTerm(rng.uniform(-2.0, 2.0), random_pauli_string(rng, n))
                for _ in range(rng.randint(1, 4))
            ]
            h = parse_hamiltonian(format_hamiltonian(Hamiltonian(n, terms)), n)
            built = [h, *(PauliString.from_label(t.string.to_label()) for t in terms)]
            built += [exp_pauli_term(t, 0.4, variant) for t in terms]
            for compact in (False, True):
                circuit = trotter_circuit(h, EvolutionParams(0.3, 2), variant, compact)
                built += [circuit, circuit.dagger(), cancel_adjacent(circuit)]
            support = terms[0].string.support
            if support:
                built.append(synth_z_rotation(n, support, rng.uniform(-2.0, 2.0)))
            for value in built:
                _assert_like_checked(value)