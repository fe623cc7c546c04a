"""Smoke tests in fresh interpreters: each sweep script runs as its own
process against the package sources, exits 0 and prints its summary line;
the package runs without importing numpy, and the first-order checker
without loading the algebra search."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, line", [
    (["fo_axiom_sweep.py", "--max-domain", "2"], "structures checked: 52"),
    (["cross_check.py", "--count", "30"], "violations: 0"),
    (["axiom_closure.py"], "open: 0"),
])
def test_script_runs(argv, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines(), done.stdout


def test_package_does_not_import_numpy():
    code = ("import sys\n"
            "import plausible, plausible.cli\n"
            "from plausible.algebra import find_countermodel\n"
            "from plausible.formula import parse\n"
            "assert find_countermodel(parse('#p -> #q')) is not None\n"
            "print('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_first_order_checker_does_not_load_the_algebra():
    # the first-order sweep times its imports; folp must stay clear of the
    # propositional search
    code = ("import sys\n"
            "import plausible.folp\n"
            "print('plausible.algebra' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
