"""Tests of the benchmark's own code.

The checker must count each injected defect as a failure and pass the
untouched document; the documents under test come from the program itself,
which the checker never imports. The generated inputs must be seeded and
parse to the terms the checker expects, and the launcher must report each
child's own peak RSS. Run from the repository root: ``python -m pytest bench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from pauliexp import EvolutionParams, SynthVariant, emit_qasm, parse_hamiltonian  # noqa: E402
from pauliexp import trotter_circuit  # noqa: E402

HAM = check.Ham(5, (
    (0.8, ((0, "X"), (2, "Y"), (4, "Z"))),
    (-0.45, ((1, "Z"), (3, "Z"))),
    (0.3, ((0, "Y"), (1, "X"))),
    (0.25, ()),
))
T, REPS = 0.7, 2


def program_document(variant: str = "z-ladder", compact: bool = False) -> str:
    h = parse_hamiltonian(HAM.text("checker test"), HAM.n)
    return emit_qasm(trotter_circuit(h, EvolutionParams(T, REPS), SynthVariant(variant), compact))


def full_check(text: str, compact: bool = False) -> None:
    doc = check.read_qasm(text, HAM.n)
    check.check_counts(doc, HAM, REPS, compact)
    check.check_simulation(doc, HAM, T, REPS, seed=7)


def replace_first(text: str, prefix: str, new_line: str | None) -> str:
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i : i + 1] = [] if new_line is None else [new_line]
    return "\n".join(lines)


@pytest.mark.parametrize("variant", ["z-ladder", "x-ladder", "mixed"])
@pytest.mark.parametrize("compact", [False, True])
def test_untouched_document_passes(variant, compact):
    full_check(program_document(variant, compact), compact)


def test_flipped_rz_sign_fails():
    text = program_document()
    line = next(line for line in text.split("\n") if line.startswith("rz("))
    angle = line[3 : line.index(")")]
    flipped = angle[1:] if angle.startswith("-") else "-" + angle
    bad = replace_first(text, "rz(", line.replace(f"({angle})", f"({flipped})"))
    check.read_qasm(bad, HAM.n)  # still a well-formed document
    with pytest.raises(check.CheckError, match="state distance"):
        full_check(bad)


def test_dropped_cx_fails():
    bad = replace_first(program_document(), "cx ", None)
    with pytest.raises(check.CheckError, match="expected cx="):
        full_check(bad)
    doc = check.read_qasm(bad, HAM.n)
    with pytest.raises(check.CheckError, match="state distance"):
        check.check_simulation(doc, HAM, T, REPS, seed=7)


def test_qubit_out_of_range_fails():
    text = program_document()
    bad = replace_first(text, "h q[", f"h q[{HAM.n}];")
    with pytest.raises(check.CheckError, match="out of range"):
        full_check(bad)


def test_wrong_qreg_fails():
    bad = program_document().replace(f"qreg q[{HAM.n}];", f"qreg q[{HAM.n + 1}];")
    with pytest.raises(check.CheckError, match="qreg"):
        check.read_qasm(bad, HAM.n)


def test_non_finite_angle_fails():
    bad = replace_first(program_document(), "rz(", "rz(nan) q[0];")
    with pytest.raises(check.CheckError, match="not finite"):
        check.read_qasm(bad, HAM.n)


def test_pass_where_fail_is_known_fails():
    anticommuting = check.Ham(2, ((0.5, ((0, "X"),)), (0.5, ((0, "Z"),))))
    assert check.known_verdict(anticommuting, exact=True) == "FAIL"
    with pytest.raises(check.CheckError, match="known answer FAIL"):
        check.check_verdict("3.1e-15 PASS\n", 0, "FAIL")
    check.check_verdict("4.2e-01 FAIL\n", 2, "FAIL")


def test_verdict_exit_code_must_match():
    with pytest.raises(check.CheckError, match="exit code"):
        check.check_verdict("3.1e-15 PASS\n", 2, "PASS")


def test_known_verdicts():
    commuting = check.Ham(3, ((0.5, ((0, "X"), (1, "X"))), (0.3, ((0, "Z"), (1, "Z"))), (0.2, ((2, "Y"),))))
    assert check.known_verdict(commuting, exact=True) == "PASS"
    assert check.known_verdict(HAM, exact=True) == "FAIL"
    assert check.known_verdict(HAM, exact=False) == "PASS"


def test_stats_must_match_synth_histogram():
    doc = check.read_qasm(program_document(), HAM.n)
    printed = "".join(f"{k}={v}\n" for k, v in doc.histogram().items())
    check.check_stats(printed, doc.histogram())
    with pytest.raises(check.CheckError, match="differ"):
        check.check_stats(printed.replace("cx=", "cx=1"), doc.histogram())


def test_compacted_document_may_not_grow():
    doc = check.read_qasm(program_document(), HAM.n)
    check.check_counts(doc, HAM, REPS, compact=True)
    qreg = f"qreg q[{HAM.n}];\n"
    grown = check.read_qasm(program_document().replace(qreg, qreg + "cx q[0],q[1];\n"), HAM.n)
    with pytest.raises(check.CheckError, match="more than"):
        check.check_counts(grown, HAM, REPS, compact=True)


def test_depth_and_two_qubit_count():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\nh q[1];\ncx q[0],q[1];\ncz q[1],q[2];\nh q[0];\n'
    doc = check.read_qasm(text, 3)
    assert doc.depth() == 3
    assert doc.two_qubit_count() == 2
    assert len(doc.gates) == 5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_seeded_and_parse_to_the_generated_terms(name):
    workload = workloads.build(name, 3)
    assert workload == workloads.build(name, 3)
    assert workload != workloads.build(name, 4)
    for job in workload.jobs + workload.twins + workload.shadows:
        h = parse_hamiltonian(job.ham.text("round trip"), job.ham.n)
        parsed = tuple(
            (term.coefficient, tuple((q, op.value) for q, op in enumerate(term.string.ops) if op.value != "I"))
            for term in h.terms
        )
        assert parsed == job.ham.terms


def test_launcher_reports_each_childs_own_peak_rss(tmp_path):
    ballast = b"x" * (150 * 2**20)  # the process that starts the launcher is big
    launcher = subprocess.Popen(
        [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    replies = []
    for code in ("b = b'x' * (120 * 2**20)", "pass"):  # a big child, then a small one
        request = {"argv": [sys.executable, "-c", code], "env": {}, "timeout": 60,
                   "stdout": str(tmp_path / "out"), "stderr": str(tmp_path / "err")}
        launcher.stdin.write(json.dumps(request) + "\n")
        launcher.stdin.flush()
        replies.append(json.loads(launcher.stdout.readline()))
    launcher.stdin.close()
    assert launcher.wait(timeout=60) == 0
    big, small = replies
    assert big["exit_code"] == small["exit_code"] == 0
    assert big["maxrss_kb"] > 120 * 1024
    assert small["maxrss_kb"] < len(ballast) // 1024 // 3
