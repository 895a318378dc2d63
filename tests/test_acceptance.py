"""Acceptance suite: one test per criterion, each printing its own PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is fixed here, not configurable.
"""

import itertools
import math
from pathlib import Path
from random import Random

import numpy as np

from pauliexp import (
    EvolutionParams,
    Gate,
    Hamiltonian,
    ParseError,
    PauliString,
    PauliTerm,
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
    phase_invariant_distance,
    synth_z_rotation,
    trotter_circuit,
    validate_qasm,
)
from helpers import random_hamiltonian, random_pauli_string

GOLDEN_DIR = Path(__file__).parent / "golden"

T_SAMPLES = (0.1, 0.7, math.pi / 3, -1.2)

SYNTH_TOL = 1e-10
STRUCTURAL_TOL = 1e-12


def _report(criterion: str, detail: str) -> None:
    print(f"acceptance {criterion}: PASS ({detail})")


def _all_strings(n: int):
    for chars in itertools.product("IXYZ", repeat=n):
        yield PauliString.from_label("".join(chars))


def _synth_distance(p: PauliString, t: float, variant: SynthVariant) -> float:
    u = circuit_unitary(exp_pauli_term(PauliTerm(1.0, p), t, variant))
    return float(np.linalg.norm(u - exp_pauli_closed_form(p, t)))


def test_criterion_1_exhaustive_single_term_correctness():
    worst = 0.0
    checks = 0
    for n in (1, 2, 3):
        for p in _all_strings(n):
            for t in T_SAMPLES:
                for variant in SynthVariant:
                    worst = max(worst, _synth_distance(p, t, variant))
                    checks += 1
    assert worst <= SYNTH_TOL, f"worst distance {worst:.3e}"
    _report("1 exhaustive n<=3, all variants", f"{checks} circuits, worst {worst:.2e}")


def test_criterion_2_randomized_correctness_to_n8():
    rng = Random(2024)
    variants = list(SynthVariant)
    worst = 0.0
    for n in range(4, 9):
        for i in range(200):
            p = random_pauli_string(rng, n, min_weight=1)
            t = rng.choice(T_SAMPLES)
            worst = max(worst, _synth_distance(p, t, variants[i % len(variants)]))
    assert worst <= SYNTH_TOL, f"worst distance {worst:.3e}"
    _report("2 randomized n=4..8, variants in turn", f"1000 circuits, worst {worst:.2e}")


def test_criterion_3_golden_circuits():
    # (a) XZ against the CZ . (RX(2t) x I) . CZ construction, matrices built here
    t = 0.7
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    rx = np.array([[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]])
    manual = cz @ np.kron(rx, np.eye(2)) @ cz
    xz = PauliString.from_label("XZ")
    u = circuit_unitary(exp_pauli_term(PauliTerm(1.0, xz), t, SynthVariant.Z_LADDER))
    assert np.linalg.norm(u - manual) <= STRUCTURAL_TOL
    assert np.linalg.norm(u - exp_pauli_closed_form(xz, t)) <= STRUCTURAL_TOL

    # (b) the six-qubit Y.Y.X circuit, gate for gate
    c = exp_pauli_term(
        PauliTerm(1.0, PauliString.from_label("IYIYIX")), t, SynthVariant.Z_LADDER
    )
    assert c.gates == (
        Gate.sdg(1), Gate.h(1), Gate.sdg(3), Gate.h(3), Gate.h(5),
        Gate.cx(5, 3), Gate.cx(3, 1), Gate.rz(1, 2 * t), Gate.cx(3, 1), Gate.cx(5, 3),
        Gate.h(1), Gate.s(1), Gate.h(3), Gate.s(3), Gate.h(5),
    )
    assert c.global_phase == 0.0

    # (c) single-qubit Z is exactly one RZ(2t)
    base = exp_pauli_term(PauliTerm(1.0, PauliString.from_label("Z")), t, SynthVariant.Z_LADDER)
    assert base.gates == (Gate.rz(0, 2 * t),)
    _report("3 golden circuits", "XZ sandwich, 6-qubit listing, RZ base case")


def test_criterion_4_gate_count_formulas():
    strings = [p for n in (1, 2, 3) for p in _all_strings(n) if p.weight > 0]
    rng = Random(43)
    strings += [random_pauli_string(rng, rng.randint(1, 8), min_weight=1) for _ in range(80)]
    for p in strings:
        counts = exp_pauli_term(PauliTerm(1.0, p), 0.7, SynthVariant.Z_LADDER).gate_counts()
        n_x = sum(op.value == "X" for op in p)
        n_y = sum(op.value == "Y" for op in p)
        assert counts["cx"] == 2 * (p.weight - 1)
        assert counts["rz"] == 1
        assert counts["h"] == 2 * (n_x + n_y)
        assert counts["s"] == n_y == counts["sdg"]
        assert counts["rx"] == 0
    _report("4 gate-count formulas", f"{len(strings)} strings, 80 of them random to n=8")


def test_criterion_5_structural_identities():
    cases = [(p, t) for n in (1, 2, 3) for p in _all_strings(n) for t in T_SAMPLES]
    rng = Random(42)
    for _ in range(40):
        p = random_pauli_string(rng, rng.randint(1, 4), min_weight=1)
        cases.append((p, rng.uniform(-2.0, 2.0)))
    rng = Random(44)
    for _ in range(40):
        cases.append((random_pauli_string(rng, rng.randint(1, 5)), rng.choice(T_SAMPLES)))
    worst_inverse = worst_cancel = worst_variant = 0.0
    for p, t in cases:
        unitaries = []
        for variant in SynthVariant:
            forward = exp_pauli_term(PauliTerm(1.0, p), t, variant)
            backward = exp_pauli_term(PauliTerm(1.0, p), -t, variant)
            u = circuit_unitary(forward)
            worst_inverse = max(
                worst_inverse, float(np.linalg.norm(circuit_unitary(backward) - u.conj().T))
            )
            if variant is SynthVariant.X_LADDER:
                compacted = circuit_unitary(cancel_adjacent(forward))
                worst_cancel = max(worst_cancel, float(np.linalg.norm(compacted - u)))
            unitaries.append(u)
        for a, b in itertools.combinations(unitaries, 2):
            worst_variant = max(worst_variant, float(np.linalg.norm(a - b)))
    assert worst_inverse <= STRUCTURAL_TOL, f"inverse {worst_inverse:.3e}"
    assert worst_cancel <= STRUCTURAL_TOL, f"cancel {worst_cancel:.3e}"
    assert worst_variant <= SYNTH_TOL, f"variants {worst_variant:.3e}"
    _report(
        "5 structural identities",
        f"{len(cases)} (string, t) pairs, inverse {worst_inverse:.2e}, cancel {worst_cancel:.2e}, "
        f"variants {worst_variant:.2e}",
    )


def test_criterion_6_trotter_behavior():
    # one-term exactness, independent of the slice count
    single = Hamiltonian(2, (PauliTerm(0.5, PauliString.from_label("ZZ")),))
    ref = exp_pauli_closed_form(PauliString.from_label("ZZ"), 0.5 * 1.3)
    for reps in (1, 2, 3, 5, 7, 9):
        circ = trotter_circuit(single, EvolutionParams(1.3, reps))
        assert np.linalg.norm(circuit_unitary(circ) - ref) <= STRUCTURAL_TOL

    # first-order error scaling on the three-term benchmark
    h = Hamiltonian(
        2,
        (
            PauliTerm(0.5, PauliString.from_label("ZZ")),
            PauliTerm(0.3, PauliString.from_label("XI")),
            PauliTerm(0.2, PauliString.from_label("IY")),
        ),
    )
    exact = matrix_exponential(hamiltonian_matrix(h), 1.0)
    errors = {
        reps: phase_invariant_distance(
            circuit_unitary(trotter_circuit(h, EvolutionParams(1.0, reps))), exact
        )
        for reps in (4, 8)
    }
    ratio = errors[4] / errors[8]
    assert 1.6 <= ratio <= 2.4, f"ratio {ratio:.3f}"
    _report("6 trotter behavior", f"one-term exact, error ratio {ratio:.3f}")


def test_criterion_7_parser_round_trip_and_fuzz():
    # weights of either sign of zero round-trip too: == cannot tell them
    # apart, but the document of the re-parsed Hamiltonian must not change
    rng, zeros = Random(7777), Random(101)
    for _ in range(1000):
        h = random_hamiltonian(rng)
        terms = [
            PauliTerm(zeros.choice((0.0, -0.0)), term.string) if zeros.random() < 0.2 else term
            for term in h.terms
        ]
        h = Hamiltonian(h.n_qubits, tuple(terms))
        again = parse_hamiltonian(format_hamiltonian(h), h.n_qubits)
        assert again == h
        params, variant = EvolutionParams(0.7), zeros.choice(list(SynthVariant))
        document = emit_qasm(trotter_circuit(h, params, variant))
        assert emit_qasm(trotter_circuit(again, params, variant)) == document

    fuzz_rng = Random(7778)
    alphabet = "XYZId0123456789.*+- e#\n\t()[]@$!?"
    survived = 0
    for _ in range(1000):
        text = "".join(fuzz_rng.choice(alphabet) for _ in range(fuzz_rng.randint(0, 50)))
        try:
            result = parse_hamiltonian(text, 6)
            assert isinstance(result, Hamiltonian)
        except ParseError:
            pass
        survived += 1
    _report("7 parser round-trip + fuzz", f"1000 round-trips, {survived} fuzz inputs")


def test_criterion_8_qasm_golden_determinism():
    cases = [
        ("z_single_t0p7", "Z"),
        ("xz_zladder_t0p7", "XZ"),
        ("iyiyix_zladder_t0p7", "IYIYIX"),
    ]
    for name, label in cases:
        circuit = exp_pauli_term(
            PauliTerm(1.0, PauliString.from_label(label)), 0.7, SynthVariant.Z_LADDER
        )
        document = emit_qasm(circuit)
        validate_qasm(document)
        assert document.encode() == (GOLDEN_DIR / f"{name}.qasm").read_bytes()
        assert emit_qasm(circuit) == document
    # ladder circuits of other shapes validate too
    validate_qasm(emit_qasm(synth_z_rotation(5, [0, 2, 4], 0.9)))
    _report("8 qasm golden + validator", f"{len(cases)} byte-identical documents")
