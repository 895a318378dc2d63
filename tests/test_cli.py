"""CLI behavior: subcommand output, exit codes, file handling."""

import errno
import itertools
import os
from collections import Counter
from collections.abc import Sequence
from random import Random

import numpy as np
import pytest

from pauliexp import (
    GATE_KINDS,
    EvolutionParams,
    Gate,
    Hamiltonian,
    PauliTerm,
    QuantumCircuit,
    SynthVariant,
    cancel_adjacent,
    circuit_unitary,
    emit_qasm,
    exp_pauli_closed_form,
    format_hamiltonian,
    hamiltonian_matrix,
    matrix_exponential,
    parse_hamiltonian,
    phase_invariant_distance,
    trotter_circuit,
    validate_qasm,
)
from pauliexp import oracle
from pauliexp.cli import VERIFY_THRESHOLD, run_cli
from helpers import random_pauli_string, traced

ZZ_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[2];\n"
    "cx q[1],q[0];\n"
    "rz(1) q[0];\n"
    "cx q[1],q[0];\n"
)
VARIANT_CHOICES = "choose from 'z-ladder', 'x-ladder', 'mixed'"


def test_synth_writes_exactly_one_qasm_document(capsys):
    rc = run_cli(["synth", "--ham", "1*Z0 Z1", "--n", "2", "--t", "0.5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ZZ_QASM
    assert captured.err == ""
    validate_qasm(captured.out)


def test_synth_out_file_keeps_stdout_empty(tmp_path, capsys):
    target = tmp_path / "zz.qasm"
    rc = run_cli(
        ["synth", "--ham", "1*Z0 Z1", "--n", "2", "--t", "0.5", "--out", str(target)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == ZZ_QASM


def test_synth_compact_collapses_repeated_terms(capsys):
    rc = run_cli(
        ["synth", "--ham", "1*Z0 Z1 + 1*Z0 Z1", "--n", "2", "--t", "0.25", "--compact"]
    )
    assert rc == 0
    assert capsys.readouterr().out == ZZ_QASM


def test_compact_drops_rotations_by_zero(capsys):
    # a rotation by 0.0 of either sign disappears, so the H pairs around it cancel
    wrapped = QuantumCircuit(1, (Gate.h(0), Gate.rz(0, -0.0), Gate.h(0)))
    assert cancel_adjacent(wrapped).gates == ()
    header = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
    argv = ["synth", "--ham", "1*Z0", "--n", "1", "--t", "0", "--compact"]
    assert _run(argv, capsys) == (0, header, "")
    argv = ["trotter", "--ham", "0*Z0 + 1*X0", "--n", "1", "--t", "1", "--reps", "4", "--compact"]
    assert _run(argv, capsys) == (0, header + "h q[0];\nrz(2) q[0];\nh q[0];\n", "")


STREAM_HAM = "0.5*Z0 Z1 Z2 + 0.3*X1 Y3 Z4 - 0.2*Id + 0.7*Y0 X2"


def _stream_case(reps, compact, variant):
    """reps None stands for synth; the trotter --reps 300 cases keep their
    original ids, "<compact>-<variant>"."""
    head = [] if reps == 300 else ["synth" if reps is None else f"reps{reps}"]
    return pytest.param(reps, compact, variant, id="-".join([*head, str(compact), variant]))


@pytest.mark.parametrize(
    "reps, compact, variant",
    [
        _stream_case(reps, compact, variant)
        for reps in (300, None, 1, 2, 3, 4)
        for compact in (False, True)
        for variant in ("z-ladder", "x-ladder", "mixed")
    ],
)
def test_streamed_document_equals_emit_qasm(reps, compact, variant, tmp_path, capsys):
    h = parse_hamiltonian(STREAM_HAM, 5)
    params = EvolutionParams(0.9, reps or 1)
    expected = emit_qasm(trotter_circuit(h, params, SynthVariant(variant), compact))
    assert "\n// global phase: " in expected  # from the Id term
    if reps == 300 and not compact:
        assert expected.count("\n") > 4096  # more than one write batch
    argv = ["synth"] if reps is None else ["trotter", "--reps", str(reps)]
    argv += ["--ham", STREAM_HAM, "--n", "5", "--t", "0.9", "--variant", variant]
    argv += ["--compact"] if compact else []
    # compared as bytes: pytest reports the first differing byte instead of
    # diffing thousands of lines
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.encode() == expected.encode()
    target = tmp_path / "stream.qasm"
    assert run_cli([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == expected.encode()
    if reps is None:
        # stats prints the gate histogram of the document synth writes
        gate_lines = expected.splitlines()[3:-1]  # the last line is the phase
        counts = Counter(line.split(" ")[0].split("(")[0] for line in gate_lines)
        histogram = "".join(f"{kind}={counts[kind]}\n" for kind in GATE_KINDS if counts[kind])
        assert run_cli(["stats", *argv[1:]]) == 0
        assert capsys.readouterr().out == histogram


def _wide_hamiltonian(seed: int, weights: Sequence[int]) -> str:
    """Terms of the given weights over 1000 qubits."""
    rng = Random(seed)
    terms = []
    for k in weights:
        qubits = sorted(rng.sample(range(1000), k))
        ops = " ".join(f"{rng.choice('XYZ')}{q}" for q in qubits)
        terms.append(f"{rng.uniform(-1, 1)!r}*{ops}")
    return " + ".join(terms)


def test_uncompacted_synth_never_holds_the_product(tmp_path):
    # synth-wide's shape, 250 terms of weight 20-60, then 100 distinct
    # weights: nothing kept from term to term may grow with the weights seen
    synth_wide = [20 + (7 * j) % 41 for j in range(250)]
    for ham in (_wide_hamiltonian(5, synth_wide), _wide_hamiltonian(35, range(100, 300, 2))):
        target = tmp_path / "wide.qasm"
        # --out, not stdout: captured stdout would hold the whole document
        argv = ["synth", "--ham", ham, "--n", "1000", "--t", "0.7", "--out", str(target)]
        rc, peak, _ = traced(run_cli, argv)
        assert rc == 0
        h = parse_hamiltonian(ham, 1000)
        circuit = trotter_circuit(h, EvolutionParams(0.7))
        assert len(circuit) > 30_000
        assert target.read_bytes() == emit_qasm(circuit).encode()
        # one term's gates and their text; the whole product's gates take
        # several MiB
        assert peak < 2**20


def test_compacted_trotter_holds_one_slice_not_the_product(tmp_path):
    rng = Random(31)
    terms = [PauliTerm(rng.uniform(-1, 1), random_pauli_string(rng, 20, 4)) for _ in range(60)]
    h = Hamiltonian(20, terms)
    ham = format_hamiltonian(h)
    peaks = {}
    for reps in (3, 100):
        target = tmp_path / f"reps{reps}.qasm"
        argv = ["trotter", "--ham", ham, "--n", "20", "--t", "0.7", "--reps", str(reps)]
        rc, peaks[reps], _ = traced(run_cli, [*argv, "--compact", "--out", str(target)])
        assert rc == 0
        compacted = cancel_adjacent(trotter_circuit(h, EvolutionParams(0.7, reps)))
        assert target.read_bytes() == emit_qasm(compacted).encode()
    # held as gates, the 100 slices would take several MiB
    assert len(compacted) > 50_000
    assert peaks[100] < 1.25 * peaks[3]


@pytest.mark.parametrize("reps", ["2", "3", "12"])
def test_merged_angle_overflow_writes_nothing(reps, tmp_path, capsys):
    # reps 2 and 3 overflow in copy 2, 12 in copy 7, after copy 3 fails the
    # periodicity check: a lone RZ keeps accumulating
    argv = ["trotter", "--ham", "1*Z0", "--n", "1", "--t", "1.7e308", "--reps", reps, "--compact"]
    target = tmp_path / "overflow.qasm"
    for out in ([], ["--out", str(target)]):
        assert run_cli([*argv, *out]) == 1
        assert capsys.readouterr() == ("", "error: merged rz angle on (0,) overflows\n")
    assert not target.exists()


def test_identity_term_needs_only_a_finite_phase(capsys):
    # 2*t*w overflows, but an identity term has no rz; its phase -t*w is finite
    assert run_cli(["synth", "--ham", "1*Z0 + 1e308*Id", "--n", "1", "--t", "1.5"]) == 0
    assert capsys.readouterr().out.endswith("\n// global phase: -1.5e+308\n")


@pytest.mark.parametrize("command", [["synth"], ["trotter", "--reps", "3"]])
@pytest.mark.parametrize(
    "ham",
    [
        "1*Z0 + 1*X0 Y1 + 1e300*Y0 Z1",  # the last term's rz angle overflows
        "1*Z0 + 1*X0 Y1 - 1e300*Id",  # the summed global phase overflows
        "1*Z0 + 1e300*Y0 Z1 - 1e300*Id",  # both overflow
    ],
)
def test_late_overflow_writes_nothing(command, ham, tmp_path, capsys):
    argv = [*command, "--ham", ham, "--n", "2", "--t", "1e300"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    # the compacted product runs the same checks in the same order
    assert run_cli([*argv, "--compact"]) == 1
    assert capsys.readouterr() == ("", captured.err)
    target = tmp_path / "overflow.qasm"
    for compact in ([], ["--compact"]):
        assert run_cli([*argv, *compact, "--out", str(target)]) == 1
        assert capsys.readouterr().out == ""
        assert not target.exists()


def test_unwritable_out_exits_1_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "missing" / "x.qasm"
    argv = ["trotter", "--ham", "1*Z0 + 0.5*X0", "--n", "1", "--t", "0.5", "--reps", "2"]
    assert run_cli([*argv, "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write output:")
    assert not target.parent.exists()


def test_trotter_repeats_slices(capsys):
    rc = run_cli(["trotter", "--ham", "1*Z0", "--n", "1", "--t", "0.5", "--reps", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.count("rz(") == 3


def test_verify_passes_on_six_qubit_yyx(capsys):
    for variant in ("z-ladder", "x-ladder", "mixed"):
        rc = run_cli(
            ["verify", "--ham", "1*Y1 Y3 X5", "--n", "6", "--t", "0.7", "--variant", variant]
        )
        captured = capsys.readouterr()
        assert rc == 0
        value, verdict = captured.out.split()
        assert verdict == "PASS"
        assert float(value) <= 1e-10


@pytest.mark.parametrize("variant", ["z-ladder", "x-ladder", "mixed"])
def test_verify_passes_for_every_variant(variant, capsys):
    rc = run_cli(
        ["verify", "--ham", "0.5*Z0 Z1 + 0.3*X0", "--n", "2", "--t", "0.9", "--variant", variant]
    )
    assert rc == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_verify_exact_flags_trotter_error(capsys):
    # one slice of non-commuting terms differs from the exact exponential
    rc = run_cli(
        ["verify", "--ham", "1*Z0 + 1*X0", "--n", "1", "--t", "0.9", "--exact"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    value, verdict = captured.out.split()
    assert verdict == "FAIL"
    assert float(value) > 1e-8


def test_verify_exact_passes_for_commuting_terms(capsys):
    rc = run_cli(
        ["verify", "--ham", "0.5*Z0 Z1 + 0.25*Z0", "--n", "2", "--t", "0.8", "--exact"]
    )
    assert rc == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_stats_prints_gate_census(capsys):
    argv = ["stats", "--ham", "1*Y1 Y3 X5", "--n", "6", "--t", "0.7"]
    assert _run(argv, capsys) == (0, "cx=4\nrz=1\nh=6\ns=2\nsdg=2\n", "")
    argv = ["stats", "--ham", "0.5*Z0 Z1 + 0.3*X0", "--n", "2", "--t", "1.0", "--compact"]
    assert _run(argv, capsys) == (0, "cx=2\nrz=2\nh=2\n", "")


YYX_ZX = ["--ham", "1*Y1 Y3 X5 + 0.5*Z0 X2", "--n", "6", "--t", "0.7"]


@pytest.mark.parametrize(
    "argv",
    [
        ["trotter", "--ham", "0.5*Z0 Z1 + 0.3*X0", "--n", "2", "--t", "1.0", "--reps", "3"],
        ["synth", "--ham", "-1*Z0", "--n", "1", "--t", "1"],
        ["synth", *YYX_ZX, "--variant", "x-ladder"],
        ["synth", *YYX_ZX, "--variant", "mixed"],
    ],
    ids=["trotter", "negative", "x-ladder", "mixed"],
)
def test_documents_validate(argv, capsys):
    rc, out, err = _run(argv, capsys)
    assert (rc, err) == (0, "")
    validate_qasm(out)


def test_product_periodic_from_copy_two_prints_the_full_pass(capsys):
    # its third copy first repeats the second, so it is spliced, and the
    # document must be the full peephole pass's byte for byte
    ham = "1*Z0 + 1*Y0 Z1 Z2"
    h = parse_hamiltonian(ham, 3)
    full_pass = cancel_adjacent(trotter_circuit(h, EvolutionParams(0.7, 50)))
    argv = ["trotter", "--ham", ham, "--n", "3", "--t", "0.7", "--reps", "50", "--compact"]
    assert _run(argv, capsys) == (0, emit_qasm(full_pass), "")


def test_parse_error_exits_1_with_position_on_stderr(capsys):
    rc = run_cli(["synth", "--ham", "1.0*Z0 Z0", "--n", "2", "--t", "0.5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "offset 7" in captured.err


def test_synth_at_the_qubit_cap_edge(capsys):
    rc = run_cli(["synth", "--ham", "Z16777215", "--n", "16777216", "--t", "1"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out == (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[16777216];\nrz(2) q[16777215];\n'
    )


def test_over_long_qubit_index_is_a_parse_error(capsys):
    rc = run_cli(["synth", "--ham", "Z" + "9" * 5000, "--n", "2", "--t", "1"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (
        "parse error at offset 1: qubit index of 5000 digits out of range for 2 qubits\n"
    )


@pytest.mark.parametrize(
    "ham, n",
    [("Z" + "9" * 30, "1" + "0" * 30), ("Z99999999", "100000000"), ("1*Z0", "16777217")],
)
def test_qubit_count_past_the_cap_exits_1(ham, n, capsys):
    rc = run_cli(["synth", "--ham", ham, "--n", n, "--t", "1"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "usage error: n_qubits must be at most 16777216\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["synth", "--n", "2", "--t", "0.5"], None),  # missing source
        (["synth", "--ham", "Z0", "--ham-file", "x.ham", "--n", "1", "--t", "0.5"], None),
        (["synth", "--ham", "Z0", "--n", "1", "--t", "0.5", "--bogus"], None),
        (["synth", "--ham", "Z0", "--n", "0", "--t", "0.5"], "n_qubits must be positive, got 0"),
        (
            ["trotter", "--ham", "Z0", "--n", "1", "--t", "0.5", "--reps", "0"],
            "reps must be positive, got 0",
        ),
        (["frobnicate"], None),
        (["synth", "--n", "1", "--t", "0.5", "--ham"], None),  # missing values
        (["synth", "--ham", "Z0", "--n", "1", "--t"], None),
        (["synth", "--n", "1", "--t", "0.5", "--ham-file"], None),
        # out-of-range values, worded by the library's rules
        (["synth", "--ham", "Z0", "--n", "-5", "--t", "0.5"], "n_qubits must be positive, got -5"),
        (["synth", "--ham", "Z0", "--n", "1", "--t", "inf"], "t must be finite, got inf"),
        (["synth", "--ham", "Z0", "--n", "1", "--t", "nan"], "t must be finite, got nan"),
        (["synth", "--ham", "Z0", "--n", "1", "--t", "1e400"], "t must be finite, got inf"),
        # a bad --t comes before a parse error and before verify's size cap
        (["synth", "--ham", "1*Q0", "--n", "1", "--t", "inf"], "t must be finite, got inf"),
        (["verify", "--ham", "Z0", "--n", "13", "--t", "inf"], "t must be finite, got inf"),
        # text that is not a number, named by the type it should be
        (["synth", "--ham", "Z0", "--n", "x", "--t", "1"], "argument --n: invalid int value: 'x'"),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "1", "--variant", "bogus"],
            f"argument --variant: invalid choice: 'bogus' ({VARIANT_CHOICES})",
        ),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "y"],
            "argument --t: invalid float value: 'y'",
        ),
        (
            ["trotter", "--ham", "Z0", "--n", "1", "--t", "1", "--reps", "z"],
            "argument --reps: invalid int value: 'z'",
        ),
        # past 32 characters, rejected text is named by its length
        (
            ["synth", "--ham", "Z0", "--n", "9" * 5000, "--t", "1"],
            "argument --n: invalid int value: a text of 5000 characters",
        ),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "1_" * 3000],
            "argument --t: must be ASCII with no '_', got a text of 6000 characters",
        ),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "y" * 32],
            f"argument --t: invalid float value: '{'y' * 32}'",
        ),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "y" * 33],
            "argument --t: invalid float value: a text of 33 characters",
        ),
        # argparse's own messages name long text the same way
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "1", "--variant", "v" * 32],
            f"argument --variant: invalid choice: '{'v' * 32}' ({VARIANT_CHOICES})",
        ),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "1", "--variant", "v" * 200],
            f"argument --variant: invalid choice: a text of 200 characters ({VARIANT_CHOICES})",
        ),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "1", "stray", "words"],
            "unrecognized arguments: stray words",
        ),
        (
            ["synth", "--ham", "Z0", "--n", "1", "--t", "1", "w" * 100, "w" * 99],
            "unrecognized arguments: a text of 200 characters",
        ),
    ],
)
def test_usage_errors_exit_1(argv, err, capsys):
    rc, out, stderr = _run(argv, capsys)
    assert (rc, out) == (1, "")
    assert stderr.startswith("usage error: ")
    if err is not None:
        assert stderr == f"usage error: {err}\n"


@pytest.mark.parametrize("command", ["synth", "trotter", "verify", "stats"])
def test_help_lists_the_variant_choices(command, capsys):
    with pytest.raises(SystemExit) as done:
        run_cli([command, "--help"])
    assert done.value.code == 0
    assert "--variant {z-ladder,x-ladder,mixed}" in capsys.readouterr().out


def _run(argv, capsys):
    rc = run_cli(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("command", ["synth", "trotter", "verify", "stats"])
@pytest.mark.parametrize(
    "ham, t",
    [
        ("-1*Z0 Z1", "0.5"),
        ("-0.5*X0 Y1 + 0.25*Z1", "-1e-3"),  # repr() of a small float has an exponent
        ("1*Z0 - 2*Id", "-2.5e-07"),
        ("-1*Id", "-1"),
    ],
)
def test_option_values_may_start_with_a_dash(command, ham, t, tmp_path, monkeypatch, capsys):
    rest = ["--n", "2"]
    spaced = _run([command, "--ham", ham, *rest, "--t", t], capsys)
    assert spaced == _run([command, f"--ham={ham}", *rest, f"--t={t}"], capsys)
    assert (spaced[0], spaced[2]) == (0, "")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-h.ham").write_text(ham)
    assert _run([command, "--ham-file", "-h.ham", *rest, "--t", t], capsys) == spaced


@pytest.mark.parametrize("source", ["missing", "directory", "not-utf-8"])
def test_missing_ham_file_exits_1(source, tmp_path, capsys):
    path = tmp_path / "cost.ham"
    if source == "directory":
        path.mkdir()
    elif source == "not-utf-8":
        path.write_bytes(b"1*Z0 \xff\n")
    rc = run_cli(["synth", "--ham-file", str(path), "--n", "2", "--t", "0.5"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("cannot read Hamiltonian file: ")


def test_file_errors_name_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--n", "1", "--t", "0.5"]
    missing = str(tmp_path / "missing" / "cost.ham")
    assert _run([*argv, "--ham-file", missing], capsys) == (
        1,
        "",
        f"cannot read Hamiltonian file: [Errno 2] No such file or directory: {missing!r}\n",
    )
    # a name too long for the system is named by its length
    too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    assert _run([*argv, "--ham-file", "h" * 300], capsys) == (
        1,
        "",
        f"cannot read Hamiltonian file: {too_long}: a text of 300 characters\n",
    )
    assert _run([*argv, "--ham", "Z0", "--out", "q" * 300], capsys) == (
        1,
        "",
        f"cannot write output: {too_long}: a text of 300 characters\n",
    )


def test_ham_file_with_comments(tmp_path, capsys):
    source = tmp_path / "cost.ham"
    source.write_text("# two-qubit cost\n0.5*Z0 Z1\n+ 0.3*X0\n")
    rc = run_cli(["verify", "--ham-file", str(source), "--n", "2", "--t", "0.7"])
    assert rc == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_oracle_cap_exits_3(capsys):
    argv = ["verify", "--ham", "Z0", "--n", "13", "--t", "0.5"]
    message = "cannot verify: 13 qubits exceeds the dense-matrix cap of 12\n"
    assert _run(argv, capsys) == (3, "", message)
    argv = ["verify", "--ham", "Z0", "--n", "9", "--t", "0.5", "--exact"]
    message = "cannot verify --exact: 9 qubits exceeds the matrix exponential cap of 8\n"
    assert _run(argv, capsys) == (3, "", message)


@pytest.mark.parametrize(
    "ham, sectors, code, verdict",
    [
        # commuting terms in two-state sectors
        ("0.5*Z0 Z1 X2 + 0.3*X2 Z5 + 0.2*Z7", (128, 2), 0, " PASS"),
        # Z factors only: commuting terms in one-state sectors
        ("0.5*Z0 Z1 Z2 Z3 Z4 Z5 Z6 Z7 + 0.3*Z2 Z5 + 0.2*Z7", (256, 1), 0, " PASS"),
        # terms that do not commute, in eight-state sectors
        (
            "0.5*X0 X1 X2 X3 X4 X5 X6 X7 + 0.3*Z0 Z1 + 0.2*X0 Z7 + 0.1*Y3 Y4",
            (32, 8),
            2,
            "1.425986e+00 FAIL",
        ),
        # a field on every qubit: commuting terms in one sector of all states
        (
            "0.1*X0 + 0.2*X1 + 0.3*X2 + 0.4*X3 + 0.5*X4 + 0.6*X5 + 0.7*X6 + 0.8*X7",
            (1, 256),
            0,
            " PASS",
        ),
    ],
    ids=["commuting", "z-only", "non-commuting", "field"],
)
def test_verify_exact_at_the_exponential_cap(ham, sectors, code, verdict, capsys):
    """Eight qubits, the cap of --exact, in sectors of every size from one
    state to all 256: (count, states) of them."""
    found = oracle._sectors(oracle._diagonals(parse_hamiltonian(ham, 8)), 256, 0.9)
    assert [indices.shape for indices, _ in found] == [sectors]
    rc, out, err = _run(["verify", "--ham", ham, "--n", "8", "--t", "0.9", "--exact"], capsys)
    assert (rc, err) == (code, "")
    assert out.endswith(f"{verdict}\n") and out.count("\n") == 1


def test_verify_distance_is_scientific_notation(capsys):
    run_cli(["verify", "--ham", "1*Z0", "--n", "1", "--t", "0.3"])
    value = capsys.readouterr().out.split()[0]
    assert "e" in value


def test_synth_has_no_size_cap(capsys):
    rc = run_cli(["synth", "--ham", "1*Z0 X10 Y19", "--n", "20", "--t", "0.4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "qreg q[20];" in captured.out
    validate_qasm(captured.out)


def test_non_finite_t_is_a_usage_error(capsys):
    rc = run_cli(["synth", "--ham", "1*Z0", "--n", "1", "--t", "inf"])
    assert rc == 1
    assert "finite" in capsys.readouterr().err


def test_angle_overflow_exits_1(capsys):
    for ham, t in (("1e300*Z0", "1e300"), ("1e308*X0", "1e308")):
        assert _run(["synth", "--ham", ham, "--n", "1", "--t", t], capsys) == (
            1,
            "",
            "error: rz angle must be finite, got inf\n",
        )


@pytest.mark.parametrize(
    "option, text",
    [("--n", "٢"), ("--t", "٠.٥"), ("--reps", "٣"), ("--n", "1_0"), ("--t", "1_0.5")],
)
def test_numeric_options_take_ascii_without_underscores(option, text, capsys):
    """int() and float() would take these; the Hamiltonian grammar would not."""
    values = {"--n": "2", "--t": "0.5", "--reps": "1", option: text}
    rc, out, err = _run(["trotter", "--ham", "1*Z0 Z1", *itertools.chain(*values.items())], capsys)
    assert (rc, out) == (1, "")
    assert f"argument {option}: must be ASCII with no '_', got {text!r}" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "ham, expected",
    [
        (
            "1e308*Z0 + 1e308*Z0",
            (1, "", "error: the Hamiltonian's matrix has an entry past the float range\n"),
        ),
        ("1e308*Z0", (0, "0.000000e+00 PASS\n", "")),
        ("1e308*Z0 + 1e308*Z0 - 1e308*Z0", (0, "0.000000e+00 PASS\n", "")),
    ],
)
def test_verify_exact_at_the_edge_of_the_float_range(ham, expected, capsys):
    """A sum that overflows is an error, a large finite one verifies, also
    where a partial sum would overflow, and none prints a numpy warning."""
    argv = ["verify", "--ham", ham, "--n", "1", "--t", "1e-300", "--exact"]
    assert _run(argv, capsys) == expected


@pytest.mark.filterwarnings("error")
def test_verify_exact_names_a_spectrum_past_the_float_range(capsys):
    """Each entry fits in a float, but the commuting terms add up to
    eigenvalues of +-2e308: an error on stderr, not a NaN verdict."""
    ham = "1e308*X0 Z1 + 1e308*Z0 Y1"
    argv = ["verify", "--ham", ham, "--n", "2", "--t", "0.25", "--exact"]
    message = "error: t times an eigenvalue of the matrix is past the float range\n"
    assert _run(argv, capsys) == (1, "", message)


def _commute(a, b) -> bool:
    anti = sum(x is not y and "I" not in (x.value, y.value) for x, y in zip(a.ops, b.ops))
    return anti % 2 == 0


def _verify_jobs():
    """(n, variant, exact, Hamiltonian, t): per-term jobs at n = 6..9 and
    --exact jobs at n = 6..8, the latter with commuting (PASS) and
    non-commuting (FAIL) terms."""
    rng = Random(38)
    jobs = []
    for n in range(6, 10):
        for variant in SynthVariant:
            terms = [PauliTerm(rng.uniform(-2, 2), random_pauli_string(rng, n, 1)) for _ in range(3)]
            jobs.append((n, variant, False, Hamiltonian(n, tuple(terms)), rng.uniform(0.2, 1.5)))
            if n > 8:
                continue
            for commuting in (True, False):
                terms = []
                while len(terms) < 3:
                    p = random_pauli_string(rng, n, 1)
                    if all(_commute(p, q.string) for q in terms) == commuting or not terms:
                        terms.append(PauliTerm(rng.uniform(-2, 2), p))
                h = Hamiltonian(n, tuple(terms))
                jobs.append((n, variant, True, h, rng.uniform(0.5, 1.5)))
    return jobs


def test_verify_output_is_replayable_from_public_oracle_calls(capsys):
    # bench/spans.py replays verify through these public calls, with the
    # per-term reference as dense closed-form products, and requires the
    # CLI's stdout byte for byte; this pins that invariant.
    verdicts = set()
    for n, variant, exact, h, t in _verify_jobs():
        argv = ["verify", "--ham", format_hamiltonian(h), "--n", str(n), "--t", repr(t)]
        rc = run_cli([*argv, "--variant", variant.value] + ["--exact"] * exact)
        unitary = circuit_unitary(trotter_circuit(h, EvolutionParams(t), variant))
        if exact:
            reference = matrix_exponential(hamiltonian_matrix(h), t)
        else:
            reference = np.eye(2**n, dtype=complex)
            for term in h.terms:
                reference = exp_pauli_closed_form(term.string, t * term.coefficient) @ reference
        distance = phase_invariant_distance(unitary, reference)
        verdict = "PASS" if distance <= VERIFY_THRESHOLD else "FAIL"
        assert capsys.readouterr().out == f"{distance:.6e} {verdict}\n", argv
        assert rc == (0 if verdict == "PASS" else 2)
        verdicts.add((exact, verdict))
    assert verdicts == {(False, "PASS"), (True, "PASS"), (True, "FAIL")}


def test_per_term_verify_holds_no_dense_matrix_at_n10(capsys):
    n, d = 10, 2**10
    h = "0.3*X0 Y1 Z2 X3 Y4 Z5 X6 Y7 Z8 X9 + 0.2*Z0 Z1 Z2 Z3 Z4 + 0.1*Y0 Y1 X2 X3 Z4 Z5 Y6 Y7 X8 X9"
    rc, peak, _ = traced(run_cli, ["verify", "--ham", h, "--n", str(n), "--t", "0.4"])
    assert (rc, capsys.readouterr().out[-5:]) == (0, "PASS\n")
    # one set of block buffers (768 KiB) and the terms' set-up, far below
    # one d x d matrix (16 MiB); 1.24 MiB measured
    assert peak <= 2 * 2**20 < d * d * 16


def test_exact_verify_holds_neither_u_nor_the_reference_at_n8(capsys):
    # the sectors come from the terms' XOR-diagonals (4 KiB each) with no
    # d x d matrix, then one set of blocks lives: U's, the reference's and a
    # free one (256 KiB each); 0.83 MiB measured. Building H (1 MiB) and
    # labelling it through d x d arrays took 3.1 MiB with 512 KiB blocks, and
    # U, the reference and one eigh of the whole H 5.0 MiB
    argv = ["verify", "--ham", "0.5*Z0 Z1 X2 + 0.3*X2 Z5 + 0.2*Z7", "--n", "8", "--t", "0.9"]
    rc, peak, _ = traced(run_cli, [*argv, "--exact"])
    assert (rc, capsys.readouterr().out[-5:]) == (0, "PASS\n")
    assert peak <= 1.5 * 2**20


def test_per_term_verify_sets_each_term_up_once(monkeypatch, capsys):
    # at n=10 verify makes 32 column blocks of U and of the reference in each
    # of its two distance passes; each term's signed permutation is still
    # built only once
    calls = []
    setup = oracle._signed_permutation
    monkeypatch.setattr(oracle, "_signed_permutation", lambda p: calls.append(p) or setup(p))
    h = "0.3*X0 Y1 Z2 X3 Y4 Z5 X6 Y7 Z8 X9 + 0.5*Id + 0.2*Z0 Z1 Z2 Z3 Z4"
    rc = run_cli(["verify", "--ham", h, "--n", "10", "--t", "0.4"])
    assert (rc, capsys.readouterr().out[-5:]) == (0, "PASS\n")
    assert len(calls) == 3
