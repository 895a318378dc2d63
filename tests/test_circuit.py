"""Gate/circuit IR: construction, dagger, counts, and peephole cancellation."""

import tracemalloc
from itertools import chain
from random import Random

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
    cancel_adjacent,
    circuit_unitary,
    emit_qasm,
    exp_pauli_term,
    trotter_circuit,
    validate_qasm,
)
from pauliexp.circuit import _cancel, _cancel_product, _trusted_gate
from pauliexp.parser import parse_hamiltonian
from pauliexp.synth import _expand, _product, _term_gates
from helpers import random_circuit, random_hamiltonian, reference_cancel_adjacent


def test_construction_checks_bounds():
    with pytest.raises(ValueError, match="qubit 5"):
        QuantumCircuit(2, (Gate.h(0), Gate.cx(0, 5)))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("t", (0,))
    with pytest.raises(ValueError):
        Gate.cx(1, 1)
    with pytest.raises(TypeError, match="^rz angle must be a real number, got None$"):
        Gate("rz", (0,))  # rotation without angle
    with pytest.raises(ValueError):
        Gate("h", (0,), 0.5)  # angle on a fixed gate
    with pytest.raises(ValueError):
        Gate.rz(0, float("nan"))


@pytest.mark.parametrize("make, bad", [
    (lambda: Gate("h", (1.0,)), "1.0"),
    (lambda: Gate("rz", (True,), 0.5), "True"),
    (lambda: Gate("cx", (0, "1")), "'1'"),
    (lambda: QuantumCircuit(2.5), "2.5"),
    (lambda: QuantumCircuit(True), "True"),
])
def test_non_int_qubit_index_or_count_is_rejected(make, bad):
    with pytest.raises(ValueError, match=f"must be an int, got {bad}"):
        make()


def test_integer_like_indices_are_stored_as_int_tuples():
    gate = Gate("cx", [np.int64(0), np.int32(1)])
    assert gate == Gate.cx(0, 1)
    assert gate.qubits == (0, 1) and all(type(q) is int for q in gate.qubits)
    circuit = QuantumCircuit(np.int64(2), (gate, Gate.cx(0, 1)))
    assert type(circuit.n_qubits) is int
    assert cancel_adjacent(circuit).gates == ()
    text = emit_qasm(QuantumCircuit(np.int64(2), (Gate.h(np.int64(1)), Gate("cx", [0, 1]))))
    assert "qreg q[2];\nh q[1];\ncx q[0],q[1];\n" in text
    validate_qasm(text)


def test_cz_is_stored_symmetrically():
    for gate in (Gate.cz(3, 1), Gate("cz", (3, 1))):
        assert gate == Gate.cz(1, 3)
        assert gate.qubits == (1, 3)


def test_gates_have_no_dict_and_trusted_gates_equal_validated_ones():
    pairs = [
        (_trusted_gate("cx", (0, 1)), Gate.cx(0, 1)),
        (_trusted_gate("h", (2,)), Gate.h(2)),
        (_trusted_gate("rz", (1,), 0.5), Gate.rz(1, 0.5)),
    ]
    for trusted, validated in pairs:
        assert not hasattr(trusted, "__dict__") and not hasattr(validated, "__dict__")
        assert trusted == validated and hash(trusted) == hash(validated)
        assert repr(trusted) == repr(validated)
        with pytest.raises(AttributeError, match="'kind'"):
            trusted.kind = "s"
    h = Hamiltonian(3, (PauliTerm(0.4, PauliString.from_label("XYZ")),))
    for variant in SynthVariant:
        gates = trotter_circuit(h, EvolutionParams(0.3, 2), variant).gates
        assert not any(hasattr(g, "__dict__") for g in gates)


def test_dagger_maps_s_to_sdg():
    c = QuantumCircuit(1, (Gate.s(0),))
    assert c.dagger().gates == (Gate.sdg(0),)


def test_dagger_reverses_and_inverts():
    c = QuantumCircuit(2, (Gate.h(0), Gate.cx(0, 1), Gate.rz(1, 0.6)))
    assert c.dagger().gates == (Gate.rz(1, -0.6), Gate.cx(0, 1), Gate.h(0))


def test_dagger_involution_randomized():
    rng = Random(21)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 12))
        assert c.dagger().dagger() == c


def test_dagger_unitary_is_conjugate_transpose():
    rng = Random(22)
    for _ in range(40):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 10))
        u = circuit_unitary(c)
        assert np.linalg.norm(circuit_unitary(c.dagger()) - u.conj().T) <= 1e-12


def test_gate_counts_empty_is_all_zeros():
    assert QuantumCircuit(3).gate_counts() == {
        "cx": 0, "cz": 0, "rz": 0, "rx": 0, "h": 0, "s": 0, "sdg": 0
    }


def test_gate_counts_six_qubit_yyx_circuit():
    c = exp_pauli_term(
        PauliTerm(1.0, PauliString.from_label("IYIYIX")), 0.7, SynthVariant.Z_LADDER
    )
    counts = c.gate_counts()
    assert counts["cx"] == 4 and counts["rz"] == 1
    assert counts["h"] == 6 and counts["s"] == 2 and counts["sdg"] == 2


def test_gate_counts_zz_ladder():
    c = exp_pauli_term(
        PauliTerm(1.0, PauliString.from_label("ZZ")), 0.3, SynthVariant.Z_LADDER
    )
    counts = c.gate_counts()
    assert counts["cx"] == 2 and counts["rz"] == 1
    assert counts["h"] == counts["s"] == counts["sdg"] == 0


def test_cancel_adjacent_removes_hh_pair():
    c = QuantumCircuit(1, (Gate.h(0), Gate.h(0)))
    assert cancel_adjacent(c).gates == ()


def test_cancel_adjacent_sees_across_disjoint_gates():
    spectator = Gate.rx(1, 0.4)
    c = QuantumCircuit(2, (Gate.h(0), spectator, Gate.h(0)))
    assert cancel_adjacent(c).gates == (spectator,)


def test_cancel_adjacent_blocked_by_overlapping_gate():
    c = QuantumCircuit(2, (Gate.h(0), Gate.cx(0, 1), Gate.h(0)))
    assert cancel_adjacent(c).gates == c.gates


@pytest.mark.parametrize("pair", [
    (Gate.s(0), Gate.sdg(0)),
    (Gate.sdg(0), Gate.s(0)),
    (Gate.cx(0, 1), Gate.cx(0, 1)),
    (Gate.cz(0, 1), Gate.cz(1, 0)),  # symmetric pair normalizes, then cancels
    (Gate("cz", (1, 0)), Gate("cz", (0, 1))),
])
def test_cancel_adjacent_inverse_pairs(pair):
    assert cancel_adjacent(QuantumCircuit(2, pair)).gates == ()


def test_cx_with_swapped_roles_does_not_cancel():
    c = QuantumCircuit(2, (Gate.cx(0, 1), Gate.cx(1, 0)))
    assert cancel_adjacent(c).gates == c.gates


def test_rotation_merge_sums_angles():
    c = QuantumCircuit(1, (Gate.rz(0, 0.25), Gate.rz(0, 0.5)))
    assert cancel_adjacent(c).gates == (Gate.rz(0, 0.75),)


def test_rotation_merge_drops_exact_zero_only():
    gone = QuantumCircuit(1, (Gate.rz(0, 0.25), Gate.rz(0, -0.25)))
    assert cancel_adjacent(gone).gates == ()
    tiny = QuantumCircuit(1, (Gate.rz(0, 0.25), Gate.rz(0, -0.25 + 1e-18)))
    # sum is nonzero in exact float arithmetic only if it does not round away
    merged = cancel_adjacent(tiny).gates
    total = 0.25 + (-0.25 + 1e-18)
    assert merged == (() if total == 0.0 else (Gate.rz(0, total),))
    # no tolerance: a chain that is zero only in exact arithmetic survives
    chain = QuantumCircuit(1, (Gate.rz(0, 0.1), Gate.rz(0, 0.2), Gate.rz(0, -0.3)))
    assert cancel_adjacent(chain).gates == (Gate.rz(0, 5.551115123125783e-17),)


def test_rotation_merge_overflow_is_rejected():
    circuit = QuantumCircuit(1, (Gate.rx(0, 1e308), Gate.rx(0, 1e308)))
    with pytest.raises(ValueError, match="overflows"):
        cancel_adjacent(circuit)


def test_rz_rx_on_same_qubit_do_not_merge():
    c = QuantumCircuit(1, (Gate.rz(0, 0.25), Gate.rx(0, 0.5)))
    assert cancel_adjacent(c).gates == c.gates


def test_cancel_merges_repeated_trotter_slices():
    h = Hamiltonian(2, (PauliTerm(0.8, PauliString.from_label("ZZ")),))
    two_slices = trotter_circuit(h, EvolutionParams(0.6, 2), SynthVariant.Z_LADDER)
    merged = cancel_adjacent(two_slices)
    assert merged.gate_counts()["cx"] == 2
    assert merged.gate_counts()["rz"] == 1
    [rz] = [g for g in merged.gates if g.kind == "rz"]
    assert rz.angle == pytest.approx(2 * 0.6 * 0.8)
    assert np.linalg.norm(circuit_unitary(merged) - circuit_unitary(two_slices)) <= 1e-12


def test_cancel_adjacent_preserves_unitary_and_never_grows():
    rng = Random(23)
    for _ in range(60):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 14))
        compacted = cancel_adjacent(c)
        assert len(compacted) <= len(c)
        assert compacted.global_phase == c.global_phase
        assert np.linalg.norm(circuit_unitary(compacted) - circuit_unitary(c)) <= 1e-12


def test_cancel_adjacent_matches_reference_on_cancel_prone_circuits():
    rng = Random(24)
    changed = 0
    for _ in range(1500):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 30), (-0.5, -0.25, 0.25, 0.5))
        compacted = cancel_adjacent(c)
        assert compacted == reference_cancel_adjacent(c)
        assert cancel_adjacent(compacted) == compacted
        changed += compacted != c
    assert changed > 750  # the generator really exercises the peephole


def test_cancel_adjacent_memory_follows_the_gates_not_the_width():
    c = QuantumCircuit(10**6, (Gate.cx(0, 1), Gate.rz(1, 0.5)))
    tracemalloc.start()
    try:
        compacted = cancel_adjacent(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compacted == c
    assert peak < 2**20


@pytest.mark.parametrize("variant", list(SynthVariant))
def test_compact_trotter_matches_reference(variant):
    rng = Random(26)
    for _ in range(40):
        h = random_hamiltonian(rng, max_qubits=6, max_terms=8)
        params = EvolutionParams(rng.uniform(-2.0, 2.0), rng.randint(1, 12))
        compact = trotter_circuit(h, params, variant, compact=True)
        assert compact == reference_cancel_adjacent(trotter_circuit(h, params, variant))
        assert cancel_adjacent(compact) == compact


def _bits(gates):
    return [(g.kind, g.qubits, None if g.angle is None else g.angle.hex()) for g in gates]


def test_cancel_product_matches_the_full_pass_bit_for_bit():
    """Spliced or not, the runs lay out the full pass's gates and angle bits."""
    rng = Random(27)
    spliced = fell_back = 0
    for case in range(600):
        if case % 2:
            h = random_hamiltonian(rng, max_qubits=6, max_terms=6)
            variant = rng.choice(list(SynthVariant))
            slice_ = [g for term in h.terms for g in _term_gates(term, rng.uniform(-3, 3), variant)]
        else:  # angles that cancel and merge to signed zeros
            angles = (0.5, -0.5, 0.25, 0.0, -0.0)
            slice_ = list(random_circuit(rng, rng.randint(1, 4), rng.randint(0, 12), angles).gates)
        reps = rng.randint(1, 12)
        runs = _cancel_product(slice_, reps)
        assert _bits(chain.from_iterable(_expand(runs))) == _bits(_cancel(slice_ * reps))
        if reps > 2:
            spliced += len(runs) == 3
            fell_back += len(runs) == 1
    assert spliced > 200 and fell_back > 50  # both branches run


def _one_slice(text, n):
    return list(trotter_circuit(parse_hamiltonian(text, n), EvolutionParams(0.7)).gates)


@pytest.mark.parametrize(
    "slice_",
    [
        _one_slice("1*Z0", 1),  # its RZ keeps accumulating across copies
        _one_slice("1*Z0 Z1 + 1*Z0 Z1", 2),
        # merges to exactly 0.0 across the copy boundary: copy 2 cancels all
        # of copy 1, so copy 3 starts from an empty stack
        [Gate.rz(0, 0.5), Gate.h(0), Gate.rz(0, -0.5)],
        # copy 2 reads the empty stack of qubit 0, where copy 3 would find
        # copy 2's first S
        [Gate.sdg(1), Gate.sdg(0), Gate.h(1), Gate.sdg(0), Gate.s(0), Gate.s(0)]
        + [Gate.rz(1, -0.5), Gate.s(0)],
        # copy 2's window holds an S from slice position 2 where copy 1's
        # held the H from position 0
        [Gate.h(0), Gate.sdg(0), Gate.s(0), Gate.s(0), Gate.h(0)],
    ],
)
def test_products_that_are_not_periodic_take_the_full_pass(slice_):
    for reps in range(3, 13):
        runs = _cancel_product(slice_, reps)
        assert len(runs) == 1
        assert _bits(chain.from_iterable(_expand(runs))) == _bits(_cancel(slice_ * reps))


def test_a_product_that_takes_the_full_pass_is_formatted_a_slice_at_a_time():
    # qubit 2 sees only its field term, whose RZ keeps accumulating across copies
    h = parse_hamiltonian("0.5*Z0 Z1 + 0.3*X0 + 0.2*Z2", 3)
    params = EvolutionParams(0.7, 100)
    runs, _ = _product(h, params, SynthVariant.Z_LADDER, compact=True)
    chunks = list(_expand(runs))
    assert len(runs) == 1 and len(chunks) > 1
    assert max(map(len, chunks)) <= len(trotter_circuit(h, EvolutionParams(0.7)))
    laid_out = [gate for chunk in chunks for gate in chunk]
    assert laid_out == list(cancel_adjacent(trotter_circuit(h, params)).gates)


def test_a_periodic_product_is_spliced():
    slice_ = _one_slice("0.5*Z0 Z1 + 0.3*X0", 2)
    ([head], once), ([middle], times), ([tail], again) = _cancel_product(slice_, 8)
    assert (once, times, again) == (1, 6, 1)
    assert _bits(head + middle * 6 + tail) == _bits(_cancel(slice_ * 8))
