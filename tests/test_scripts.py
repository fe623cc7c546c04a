"""Smoke tests in fresh interpreters: each sweep script runs as its own
process against the package sources, exits 0 and prints its summary line;
the package runs without importing numpy, and the first-order checker
without loading the algebra search.  Bad bounds are rejected at the call
and by the scripts with exit 2."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from plausible import sampling

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


def _sweep(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "fo_axiom_sweep.py"),
                           *argv], env=env, capture_output=True, timeout=120)


# sha256 of the sweep's standard output, by --max-domain
SWEEP_DIGESTS = {
    "3": "c95e6812779f193d9736d68e3d00b15708331b603e2df31dbb624b233604a5dc",
    "4": "278baa5b9c963b80ef010cc763e8818c05bd241d9f29bc77d0a3dbec6dc41b6d",
}


def test_fo_axiom_sweep_output_is_pinned():
    for max_domain, digest in SWEEP_DIGESTS.items():
        done = _sweep("--max-domain", max_domain)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == digest, max_domain


@pytest.mark.parametrize("max_domain", ["0", "5", "-1"])
def test_fo_axiom_sweep_rejects_bad_domain(max_domain):
    done = _sweep("--max-domain", max_domain)
    assert done.returncode == 2
    assert done.stdout == b""
    assert f"max_domain must be in 1..4, got {max_domain}".encode() \
        in done.stderr


@pytest.mark.parametrize("argv, message", [
    (["--max-size", "0"], "max_size must be at least 1, got 0"),
    (["--count", "-3"], "count must be at least 0, got -3"),
])
def test_cross_check_rejects_bad_bounds(argv, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "cross_check.py"), *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr


def test_sampling_rejects_bad_bounds_at_the_call():
    with pytest.raises(ValueError, match="max_size"):
        sampling.random_formula(random.Random(0), max_size=0)
    with pytest.raises(ValueError, match="max_size"):
        sampling.corpus(0, 0, max_size=0)
    with pytest.raises(ValueError, match="count"):
        sampling.corpus(0, -3)
    assert sampling.corpus(0, 0) == []


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


@pytest.mark.parametrize("modules", [
    "plausible.formula, plausible.tableau, plausible.algebra",
    "plausible.formula, plausible.hilbert, plausible.tableau, "
    "plausible.algebra",
    "plausible.folp, plausible.pseudotopology",
])
def test_the_benchmarked_engines_do_not_load_dataclasses(modules):
    # the corpus, theorem and first-order paths build their records on
    # namedtuples; dataclasses, and the inspect it imports, would cost
    # every fresh interpreter their import time and memory
    code = ("import sys\n"
            f"import {modules}\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
