"""Compiling never loads numpy: only the dense oracle, and so a ``verify``
within the oracle's caps, does. Nor does it load ``dataclasses`` or
``inspect``, which would cost every compile process more start-up than the
package itself, or, with no ``site`` to load it first, ``typing``.

Each check runs in a fresh interpreter, since this test session has long
imported numpy.
"""

from helpers import fresh_python

SCRIPT = r"""
import sys

import pauliexp
import pauliexp.cli
from pauliexp.cli import run_cli

assert "numpy" not in sys.modules, "loaded by import"
assert "circuit_unitary" in dir(pauliexp)
for argv in (
    ["synth", "--ham", "0.5*Z0 Z1 + 0.3*X0", "--n", "2", "--t", "1.0"],
    ["trotter", "--ham", "0.5*Z0 Z1 + 0.3*X0", "--n", "2", "--t", "1.0", "--reps", "4",
     "--compact"],
    ["stats", "--ham", "1*Y1 Y3 X5", "--n", "6", "--t", "0.7"],
):
    assert run_cli(argv) == 0, argv
    for module in ("numpy", "dataclasses", "inspect"):
        assert module not in sys.modules, f"{module} loaded by {argv[0]}"

for argv in (["--n", "13"], ["--n", "9", "--exact"]):  # past a cap: exit 3
    assert run_cli(["verify", "--ham", "1*Z0", "--t", "1", *argv]) == 3, argv
assert "numpy" not in sys.modules, "loaded by a verify past its cap"

assert run_cli(["verify", "--ham", "1*Y1 Y3 X5", "--n", "6", "--t", "0.7"]) == 0
assert run_cli(["verify", "--ham", "1*Z0 + 1*X0", "--n", "1", "--t", "0.7", "--exact"]) == 2
assert "numpy" in sys.modules

for name in pauliexp.__all__:
    getattr(pauliexp, name)
assert pauliexp.circuit_unitary is pauliexp.oracle.circuit_unitary
assert pauliexp.MAX_DENSE_QUBITS == 12
namespace = {}
exec("from pauliexp import *", namespace)
assert set(pauliexp.__all__) <= set(namespace)
try:
    pauliexp.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
print("ok", file=sys.stderr)
"""

# run under python -S, where site loads nothing before the package
BARE_SCRIPT = r"""
import sys

from pauliexp.cli import run_cli

argv = ["trotter", "--ham", "0.5*Z0 Z1 + 0.3*X0", "--n", "2", "--t", "1.0", "--reps", "4",
        "--compact"]
assert run_cli(argv) == 0
loaded = {"typing", "dataclasses", "inspect", "numpy"} & set(sys.modules)
assert not loaded, sorted(loaded)
print("ok", file=sys.stderr)
"""


def test_compile_path_leaves_numpy_unloaded():
    result = fresh_python("-c", SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stderr.endswith("ok\n")
    # two QASM documents, the stats census, then one PASS and one FAIL line
    assert result.stdout.count("OPENQASM 2.0;") == 2
    verdicts = [line.split()[-1] for line in result.stdout.splitlines()[-2:]]
    assert verdicts == ["PASS", "FAIL"]


def test_bare_interpreter_compiles_without_typing_dataclasses_or_inspect():
    result = fresh_python("-S", "-c", BARE_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "ok\n"
    assert result.stdout.count("OPENQASM 2.0;") == 1
