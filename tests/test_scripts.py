"""Smoke test of the sweep scripts: each runs as its own process against
the package sources, exits 0 and prints its summary line."""

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
