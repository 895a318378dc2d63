"""The CLI as its own process: ``python -m pauliexp.cli``, which exits through
``cli.main()``, with its exit codes, its documents byte for byte and its
peak RSS.

Each run goes through a small launcher that starts the CLI as its child and
reports the child's ``RUSAGE_CHILDREN`` peak. A child started straight from
this test session would report the session's peak as its own, since Linux
keeps the high-water RSS of the address space a process had before exec.
"""

import json
import random
from pathlib import Path

import pytest

from pauliexp import validate_qasm
from pauliexp.cli import run_cli
from helpers import fresh_python

GOLDEN_DIR = Path(__file__).parent / "golden"

LAUNCHER = r"""
import json, resource, subprocess, sys

done = subprocess.run([sys.executable, "-m", "pauliexp.cli", *sys.argv[1:]], capture_output=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(json.dumps([done.returncode, done.stdout.decode(), done.stderr.decode(), peak]))
"""


def cli_process(*argv: str, cwd: Path | None = None) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, peak RSS in MiB) of ``pauliexp *argv``
    run as a process in ``cwd``. Its output is read as bytes, so a stray
    carriage return would show."""
    launched = fresh_python("-c", LAUNCHER, *argv, cwd=cwd)
    assert launched.returncode == 0, launched.stderr
    return tuple(json.loads(launched.stdout))


@pytest.mark.parametrize(
    "code, argv, stderr",
    [
        (0, ["synth", "--ham", "1*Z0 Z1", "--n", "2", "--t", "0.5"], ""),
        (
            1,
            ["synth", "--ham", "1*Q0", "--n", "1", "--t", "1"],
            "parse error at offset 2: unknown token 'Q'\n",
        ),
        (2, ["verify", "--ham", "1*X0 + 1*Z0", "--n", "1", "--t", "0.7", "--exact"], ""),
        (
            3,
            ["verify", "--ham", "1*Z0", "--n", "13", "--t", "1"],
            "cannot verify: 13 qubits exceeds the dense-matrix cap of 12\n",
        ),
        (
            3,
            ["verify", "--ham", "1*Z0", "--n", "9", "--t", "1", "--exact"],
            "cannot verify --exact: 9 qubits exceeds the matrix exponential cap of 8\n",
        ),
    ],
    ids=["synth", "parse-error", "verify-fail", "verify-cap", "verify-exact-cap"],
)
def test_exit_codes_come_back_through_main(code, argv, stderr, capsys):
    rc, out, err, _ = cli_process(*argv)
    assert (rc, err) == (code, stderr)
    if stderr:  # an error leaves stdout empty
        assert out == ""
    # the process prints what run_cli prints in this one
    assert (run_cli(argv), *capsys.readouterr()) == (rc, out, err)


@pytest.mark.parametrize("variant", ["z-ladder", "x-ladder", "mixed"])
def test_layout_goldens_from_a_process(variant, tmp_path):
    expected = (GOLDEN_DIR / f"trotter_reps2_{variant.replace('-', '')}_t0p7.qasm").read_bytes()
    ham = "0.5*Z0 Y1 X3 + 0.3*X0 Z2 Y3 - 0.2*Id"
    argv = ["trotter", "--ham", ham, "--n", "4", "--t", "0.7", "--reps", "2", "--variant", variant]
    rc, out, err, _ = cli_process(*argv)
    assert (rc, out.encode(), err) == (0, expected, "")
    assert cli_process(*argv, "--out", "golden.qasm", cwd=tmp_path)[:3] == (0, "", "")
    assert (tmp_path / "golden.qasm").read_bytes() == expected


def test_per_term_verify_at_n11_stays_below_one_dense_matrix():
    # per-term verify holds no d x d matrix, so its process must peak below
    # the 64 MiB of one complex matrix at n=11
    ham = "0.3*X0 Y1 Z2 X3 Y4 Z5 X6 Y7 Z8 X9 Y10 + 0.2*Z0 Z1 Z2 Z3 Z4 + 0.1*Y0 X5 Z10"
    rc, out, err, peak = cli_process("verify", "--ham", ham, "--n", "11", "--t", "0.4")
    assert (rc, out[-6:], err) == (0, " PASS\n", "")
    assert peak < 64, f"{peak:.1f} MiB"


def test_compacted_trotter_of_100_slices_stays_below_32_mib(tmp_path):
    # a compacted product holds three copies of its slice, not reps copies,
    # so 100 slices of 500 weight-8 terms on 100 qubits must peak below
    # 32 MiB; holding every copy took 118 MB
    rng = random.Random(100)
    terms = []
    for _ in range(500):
        ops = " ".join(f"{rng.choice('XYZ')}{q}" for q in sorted(rng.sample(range(100), 8)))
        terms.append(f"{rng.uniform(-1, 1)!r}*{ops}")
    (tmp_path / "wide.ham").write_text(" + ".join(terms))
    argv = ["trotter", "--ham-file", "wide.ham", "--n", "100", "--t", "0.7", "--reps", "100"]
    argv += ["--compact", "--variant", "x-ladder", "--out", "wide.qasm"]
    rc, out, err, peak = cli_process(*argv, cwd=tmp_path)
    assert (rc, out, err) == (0, "", "")
    assert peak < 32, f"{peak:.1f} MiB"
    validate_qasm((tmp_path / "wide.qasm").read_text())
