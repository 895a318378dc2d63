"""OpenQASM 2.0 emission: formatting rules, determinism, validation, goldens."""

from pathlib import Path
from random import Random

import pytest

from pauliexp import (
    EvolutionParams,
    Gate,
    PauliString,
    PauliTerm,
    QuantumCircuit,
    SynthVariant,
    emit_qasm,
    exp_pauli_term,
    parse_hamiltonian,
    trotter_circuit,
    validate_qasm,
)
from pauliexp.cli import run_cli
from helpers import random_circuit

GOLDEN_DIR = Path(__file__).parent / "golden"

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def golden_circuit(label: str) -> QuantumCircuit:
    return exp_pauli_term(
        PauliTerm(1.0, PauliString.from_label(label)), 0.7, SynthVariant.Z_LADDER
    )


def test_empty_circuit_emits_header_and_qreg_only():
    assert emit_qasm(QuantumCircuit(2)) == HEADER + "qreg q[2];\n"


def test_rz_angle_prints_17_significant_digits():
    doc = emit_qasm(QuantumCircuit(1, (Gate.rz(0, 1.4),)))
    assert "rz(1.3999999999999999) q[0];" in doc


def test_all_statement_forms():
    c = QuantumCircuit(
        2,
        (
            Gate.h(0),
            Gate.s(1),
            Gate.sdg(1),
            Gate.rz(0, 0.5),
            Gate.rx(1, -0.25),
            Gate.cx(1, 0),
            Gate.cz(0, 1),
        ),
    )
    doc = emit_qasm(c)
    assert doc == HEADER + (
        "qreg q[2];\n"
        "h q[0];\n"
        "s q[1];\n"
        "sdg q[1];\n"
        "rz(0.5) q[0];\n"
        "rx(-0.25) q[1];\n"
        "cx q[1],q[0];\n"
        "cz q[0],q[1];\n"
    )
    validate_qasm(doc)


def test_global_phase_becomes_comment():
    doc = emit_qasm(QuantumCircuit(1, (), global_phase=-0.7))
    assert doc.endswith("// global phase: -0.69999999999999996\n")
    validate_qasm(doc)
    assert "global phase" not in emit_qasm(QuantumCircuit(1))


def test_emission_is_deterministic():
    c = golden_circuit("IYIYIX")
    assert emit_qasm(c) == emit_qasm(c)


def test_validator_reads_indices_past_the_int_digit_limit():
    validate_qasm(HEADER + f"qreg q[{'9' * 5000}];\nh q[{'9' * 4999}];\n")


def test_emitted_documents_always_validate():
    rng = Random(51)
    for _ in range(40):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 15))
        validate_qasm(emit_qasm(c))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("OPENQASM 2.0;\n", "header"),
        (HEADER + "qreg q[2];", "newline"),
        (HEADER + "h q[0];\n", "qreg"),
        (HEADER + "qreg q[2];\nmeasure q[0] -> c[0];\n", "not a supported statement"),
        (HEADER + "qreg q[2];\nrz() q[0];\n", "not a supported statement"),
        (HEADER + "qreg q[0];\n", "qreg"),
        (HEADER + "qreg q[2];\nh q[5];\n", "below 2"),
        (HEADER + "qreg q[2];\ncx q[0],q[0];\n", "distinct"),
        (HEADER + "qreg q[2];\nqreg q[3];\n", "not a supported statement"),
        (HEADER + "qreg q[2];\nh q[0];\nOPENQASM 2.0;\n", "not a supported statement"),
        (HEADER + "qreg q[2];\nh q[01];\n", "not a supported statement"),
        # Arabic-Indic digits: 12 and 0.5 to int() and float(), not to OpenQASM
        (HEADER + "qreg q[20];\nh q[1\u0662];\n", "not a supported statement"),
        (HEADER + "qreg q[1];\nrz(\u0660.\u0665) q[0];\n", "not a supported statement"),
        (
            HEADER + "qreg q[1];\n// global phase: 1\nh q[0];\n// global phase: 2\n",
            "line 4 is not a supported statement",
        ),
        (HEADER + "qreg q[1];\nrz(1e999) q[0];\n", "line 4 needs a finite angle"),
        (HEADER + "qreg q[1];\nh q[0];\n// global phase: -1e999\n", "line 5 needs a finite"),
        # digits past int()'s string limit are compared as text, never converted
        (HEADER + "qreg q[2];\nh q[" + "9" * 5000 + "];\n", "line 4 needs distinct qubits below 2"),
        (HEADER + f"qreg q[{'9' * 5000}];\nh q[{'9' * 5000}];\n", "line 4 needs distinct qubits"),
    ],
)
def test_validator_rejects_malformed_documents(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        validate_qasm(text)


@pytest.mark.parametrize(
    "name,label",
    [
        ("z_single_t0p7", "Z"),
        ("xz_zladder_t0p7", "XZ"),
        ("iyiyix_zladder_t0p7", "IYIYIX"),
    ],
)
def test_golden_documents_byte_equality(name, label):
    expected = (GOLDEN_DIR / f"{name}.qasm").read_bytes()
    got = emit_qasm(golden_circuit(label)).encode()
    assert got == expected


TROTTER_HAM = "0.5*Z0 Y1 X3 + 0.3*X0 Z2 Y3 - 0.2*Id"


@pytest.mark.parametrize("variant", list(SynthVariant), ids=lambda v: v.value)
def test_trotter_golden_documents_byte_equality(variant, capsys):
    """Every layout pinned byte for byte on a product with X, Y and Z factors,
    an identity phase and a replayed slice, in process and through the CLI."""
    name = f"trotter_reps2_{variant.value.replace('-', '')}_t0p7.qasm"
    expected = (GOLDEN_DIR / name).read_text()
    h = parse_hamiltonian(TROTTER_HAM, 4)
    assert emit_qasm(trotter_circuit(h, EvolutionParams(0.7, 2), variant)) == expected
    argv = ["trotter", "--ham", TROTTER_HAM, "--n", "4", "--t", "0.7", "--reps", "2"]
    assert run_cli([*argv, "--variant", variant.value]) == 0
    assert capsys.readouterr().out == expected
