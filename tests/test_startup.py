"""Start-up: SciPy is imported where it is called.  ``import favard.cli``
loads no SciPy module, the commands that never call it run without one, and
the commands that do print in a fresh interpreter what they print here."""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import favard
from favard import cli

PACKAGE = Path(favard.__file__).resolve().parent

# commands that call no SciPy function, among them every command on a
# measure given only by its density or lattice masses
PLAIN = (
    ["basis", "eval", "--family", "legendre", "--n", "0:4", "--grid", "-2:2:0.5"],
    ["diffmat", "--family", "laguerre:0.0", "--N", "8"],
    ["periodic", "eval", "--a", "0.5", "--n", "0:3", "--grid", "-pi:pi:0.25"],
    ["basis", "eval", "--family", "charlier:0.5", "--n", "0:3", "--grid", "-pi:pi:0.25"],
    ["verify", "gram", "--family", "custom-weight:exp(-x^4)"],
    ["verify", "recurrence", "--family", "custom-weight:exp(-x^4)"],
    ["verify", "gram", "--family", "charlier:0.5"],
    ["verify", "recurrence", "--family", "charlier:0.5"],
)
_PROPAGATE = ["--N", "64", "--f0", "exp(-x^2)", "--potential", "x^2", "--T", "0.5",
              "--tau", "0.0625"]
# (argv, whether stdin is the stdout of the command before): the README
# commands that import SciPy on first use
FIRST_USE = (
    (["quad", "--family", "hermite", "--N", "12"], False),
    (["quad", "--family", "charlier:0.5", "--N", "12"], False),
    (["quad", "--family", "laguerre:0", "--N", "12"], False),
    (["quad", "--family", "jacobi:0.5,1.5", "--N", "12"], False),
    (["coeffs", "--family", "mt", "--f", "1/(1+(2*x)^4)", "--N", "256", "--method", "fft"], False),
    (["decay", "--model", "exp", "--skip", "8"], True),
    (["coeffs", "--family", "tanhjacobi:0.75,0.75", "--f", "exp(-x^2)", "--N", "64",
      "--method", "dct"], False),
    (["schrodinger", "--basis", "hermite", *_PROPAGATE], False),
    (["schrodinger", "--basis", "mt", *_PROPAGATE], False),
    (["verify", "all", "--family", "legendre"], False),
    (["verify", "all", "--family", "tanhjacobi:0.75,0.75"], False),
)
RUNS = [(argv, False) for argv in PLAIN] + list(FIRST_USE)

# Imports favard and favard.cli, then calls main on each run in order and
# prints, as JSON, the SciPy modules loaded after the imports and, per run,
# the exit code, stdout and SciPy modules loaded so far.
CHILD = """
import contextlib, io, json, sys
import favard, favard.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": scipy_modules(), "runs": []}
stdout = ""
for argv, piped in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(stdout if piped else "")
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = favard.cli.main(argv)
    stdout = buf.getvalue()
    report["runs"].append({"code": code, "stdout": stdout, "scipy": scipy_modules()})
json.dump(report, sys.__stdout__)
"""


@pytest.fixture(scope="module")
def child():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(RUNS)], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_scipy(child):
    assert child["import"] == []


def test_plain_commands_load_no_scipy(child):
    for argv, run in zip(PLAIN, child["runs"]):
        assert (run["code"], run["scipy"]) == (0, []), argv


def test_quad_reaches_lapack_without_scipy_linalg(child):
    # the first SciPy use, a symmetric Gauss rule, loads the LAPACK capsule
    # module on its own: the scipy package, not scipy.linalg
    argv, _ = RUNS[len(PLAIN)]
    run = child["runs"][len(PLAIN)]
    assert argv[:3] == ["quad", "--family", "hermite"]
    assert run["code"] == 0 and "scipy" in run["scipy"]
    assert [m for m in run["scipy"] if m.startswith("scipy.linalg")] == []


def test_charlier_quad_folds_without_scipy_linalg(child):
    # the lattice's diagonal is exactly zero, so its rule takes dqds through
    # the LAPACK capsule, not scipy.linalg's sterf
    index = RUNS.index((["quad", "--family", "charlier:0.5", "--N", "12"], False))
    run = child["runs"][index]
    assert run["code"] == 0 and run["stdout"].count("\n") == 13
    assert [m for m in run["scipy"] if m.startswith("scipy.linalg")] == []


def test_no_command_loads_scipy_linalg(child):
    # every LAPACK routine, the node solves of a non-symmetric section
    # included, is reached through the capsule module alone
    for (argv, _), run in zip(RUNS, child["runs"]):
        assert [m for m in run["scipy"] if m.startswith("scipy.linalg")] == [], argv


def test_fresh_interpreter_prints_the_in_process_bytes(child, monkeypatch, capsys):
    assert len(child["runs"]) == len(RUNS)
    stdout = ""
    for (argv, piped), run in zip(RUNS, child["runs"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdout if piped else ""))
        code = cli.main(argv)
        stdout = capsys.readouterr().out
        assert (run["code"], run["stdout"]) == (code, stdout), argv
        assert code == 0 and stdout, argv
    # the fresh interpreter did reach SciPy: the runs above were first uses
    assert child["runs"][-1]["scipy"]


def _import_time_nodes(tree: ast.Module):
    """Every node that runs when the module is imported: all but the bodies
    of functions and lambdas."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.append(f"{path.relative_to(PACKAGE.parent)}:{node.lineno}")
    assert not found, "SciPy imported at module level: " + ", ".join(sorted(found))


def _names_scipy_linalg(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.linalg") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        module = node.module or ""
        return module.startswith("scipy.linalg") or (
            module == "scipy" and any(alias.name == "linalg" for alias in node.names))
    return (isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name) and node.value.id == "scipy")


def test_only_the_capsule_fallback_names_scipy_linalg():
    # the one import of scipy.linalg is _lapack._capsules' fallback, for a
    # SciPy whose capsule module cannot be found on its own
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        stack = [(ast.parse(path.read_text(), str(path)), None)]  # (node, enclosing function)
        while stack:
            node, func = stack.pop()
            if _names_scipy_linalg(node):
                found.append((path.name, func))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert found == [("_lapack.py", "_capsules")]
