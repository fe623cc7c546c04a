import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from plausible.algebra import MAX_ATOMS
from plausible.cli import run
from plausible.folp import parse_fo
from plausible.formula import ParseError, parse, render
from plausible.pseudotopology import MAX_UNIVERSE


def test_parse_echoes_canonical_form(capsys):
    assert run(["parse", "#p->p"]) == 0
    assert capsys.readouterr().out.strip() == "#p -> p"


def test_parse_error_exit_code(capsys):
    assert run(["parse", "p &"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_deep_nesting_is_input_error(capsys):
    assert run(["parse", "(" * 3000 + "p" + ")" * 3000]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"
    assert run(["parse", "(" * 100_000 + "p" + ")" * 100_000]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


def test_prove_closed_and_open(capsys):
    assert run(["prove", "#p -> p"]) == 0
    out = capsys.readouterr().out
    assert "verdict: closed" in out

    assert run(["prove", "#p -> #q"]) == 1
    out = capsys.readouterr().out
    assert "verdict: open" in out
    assert "open: ~#q" in out or "open:" in out


@pytest.mark.parametrize("argv, code", [
    (["prove", "#p -> p"], 0),
    (["prove", "#p -> #q"], 1),
    (["enum-spaces", "--size", "4"], 0),
    (["parse", "p &"], 2),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # a pipe whose read end is closed before the command writes, as after
    # `plausible ... | head` once head has exited
    read, write = os.pipe()
    os.close(read)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "plausible.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write)
    assert done.returncode == code
    # only an input error writes to standard error
    assert (done.stderr == b"") == (code != 2), done.stderr


def test_prove_with_premises(capsys):
    assert run(["prove", "q", "--premise", "p -> q", "--premise", "p"]) == 0


def test_prove_json(capsys):
    assert run(["prove", "#p -> p", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "closed"
    assert doc["nodes"][0]["formula"] == "~(#p -> p)"


def _balanced_conjunction(parts: list[str]) -> str:
    while len(parts) > 1:
        parts = [f"({a} & {b})" for a, b in zip(parts[::2], parts[1::2])] \
            + parts[len(parts) // 2 * 2:]
    return parts[0]


def test_prove_json_takes_a_branch_of_any_length(capsys):
    # each formula the rules add hangs under the one before it, so each
    # tree is as deep as its open branch; the second text nests 13 levels
    # deep, yet its open branch passes 1100 branchings
    for text, length in [
            ("~(" + " & ".join(f"p{i}" for i in range(450)) + ")", 900),
            ("~" + _balanced_conjunction([f"(p{i} | q{i})"
                                          for i in range(1100)]), 3300)]:
        assert run(["prove", text]) == 1
        opens = [line.removeprefix("  open: ")
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  open: ")]
        assert len(opens) == length
        assert run(["prove", text, "--json"]) == 1
        out = capsys.readouterr().out
        assert len(out) < 2_000_000
        doc = json.loads(out)
        assert doc["verdict"] == "open"
        assert doc["open_branch"] == opens


def test_prove_budget_exit_code(capsys):
    assert run(["prove", "#(p & q) -> #(q & p)", "--budget", "3"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_prove_rejects_nonpositive_budget(budget, capsys):
    assert run(["prove", "#p -> p", "--budget", budget]) == 2
    assert "budget must be at least 1" in capsys.readouterr().err


def test_prove_deep_nesting_is_input_error(capsys):
    assert run(["prove", "~" * 3000 + "p"]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


def test_countermodel(capsys):
    assert run(["countermodel", "#p"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"algebra": {"n_atoms": 1, "sharp": [0, 1]},
                   "valuation": {"p": 0}}

    assert run(["countermodel", "#p -> p"]) == 0
    assert "valid up to bound" in capsys.readouterr().out


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_countermodel_rejects_nonpositive_bound(bound, capsys):
    assert run(["countermodel", "p & ~p", "--max-atoms", bound]) == 2
    captured = capsys.readouterr()
    assert "valid up to bound" not in captured.out
    assert "max_atoms must be between 1 and 3" in captured.err


def test_check_proof(tmp_path, capsys):
    good = tmp_path / "good.prf"
    good.write_text("1. #p -> p ; axiom AX3 A=p\n")
    assert run(["check-proof", str(good)]) == 0
    assert "accepted: theorem #p -> p" in capsys.readouterr().out

    bad = tmp_path / "bad.prf"
    bad.write_text("1. #p -> q ; axiom AX3 A=p\n")
    assert run(["check-proof", str(bad)]) == 1
    assert "rejected at line 1" in capsys.readouterr().out

    assert run(["check-proof", str(tmp_path / "missing.prf")]) == 2


def test_check_proof_names_the_unreadable_line(tmp_path, capsys):
    bad = tmp_path / "bad.prf"
    bad.write_text("1. p ; mp x y\n")
    assert run(["check-proof", str(bad)]) == 2
    assert capsys.readouterr() == \
        ("", "error: line 1: mp takes two line numbers, got 'x y'\n")

    bad.write_text("-- comment\n1. p ; premise\n2. p ; rnabla\n")
    assert run(["check-proof", str(bad)]) == 2
    assert capsys.readouterr().err == \
        "error: line 3: rnabla takes one line number, got ''\n"


def test_enum_spaces(capsys):
    assert run(["enum-spaces", "--size", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "count: 3"
    opens = sorted(json.loads(line)["opens"] for line in lines[:-1])
    assert opens == [[1, 3], [2, 3], [3]]


def test_enum_algebras(capsys):
    assert run(["enum-algebras", "--atoms", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "count: 4"
    assert json.loads(lines[0])["n_atoms"] == 2


def test_enum_limits_are_input_errors(capsys):
    assert run(["enum-spaces", "--size", "9"]) == 2
    capsys.readouterr()
    assert run(["enum-algebras", "--atoms", "9"]) == 2
    capsys.readouterr()
    for argv, message in (
            (["enum-spaces", "--size", "-1"],
             f"universe_size must be in 1..{MAX_UNIVERSE}, got -1"),
            (["enum-spaces", "--size", "0"],
             f"universe_size must be in 1..{MAX_UNIVERSE}, got 0"),
            (["enum-algebras", "--atoms", "-1"],
             f"n_atoms must be in 0..{MAX_ATOMS}, got -1")):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")


@pytest.fixture
def model_file(tmp_path):
    doc = {
        "domain_size": 3,
        "relations": {"R": [[1], [2]]},
        "functions": {},
        "constants": {"c": 0},
        "omega": [4, 5, 6, 7],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_fol_eval(model_file, capsys):
    assert run(["fol-eval", "P x. R(x)", "--model", model_file]) == 0
    assert capsys.readouterr().out.strip() == "true"

    assert run(["fol-eval", "P x. x = c", "--model", model_file]) == 1
    assert capsys.readouterr().out.strip() == "false"

    assert run(["fol-eval", "forall x R(x)", "--model", model_file]) == 2


def test_fol_eval_reads_the_constants(model_file, capsys):
    assert run(["fol-eval", "true", "--model", model_file]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(["fol-eval", "false", "--model", model_file]) == 1
    assert capsys.readouterr().out == "false\n"


@pytest.mark.parametrize("text", ["false & R(z)", "R(z) & false"])
def test_fol_eval_unbound_name_is_input_error_in_either_order(
        model_file, capsys, text):
    assert run(["fol-eval", text, "--model", model_file]) == 2
    assert capsys.readouterr() == ("", "error: unbound name 'z'\n")


@pytest.mark.parametrize("doc, message", [
    ({"domain_size": "3", "omega": [1]},
     "'domain_size' must be a positive integer, got '3'"),
    ([1, 2], "model must be a JSON object, got list"),
    ({"domain_size": 1, "omega": [1], "relations": {"R": 3}},
     "'relations.R' must be a list of lists of integers"),
    ({"domain_size": 1, "omega": [1], "functions": {"f": [[]]}},
     "'functions.f' rows must end in the value"),
    ({"domain_size": 1, "omega": [1], "constants": {"c": 0.0}},
     "'constants.c' must be an integer, got 0.0"),
    ({"domain_size": 2, "omega": [1, 3], "functions": {"f": [[0, 1], [5, 0]]}},
     "function f argument out of range"),
    ({"domain_size": 2, "omega": [3], "functions": {"f": [[0, 1], [0, 0],
                                                          [1, 0]]}},
     "'functions.f' lists the argument (0,) twice"),
], ids=["domain-size-text", "top-level-list", "relation-not-a-list",
        "function-row-without-value", "constant-not-an-integer",
        "function-argument-out-of-range", "function-argument-twice"])
def test_fol_eval_rejects_malformed_models(tmp_path, capsys, doc, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["fol-eval", "true", "--model", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_fol_eval_rejects_overwide_scopes_before_allocating(tmp_path,
                                                            capsys):
    # seven binders on 32 points would make masks of 32^7 bits (4 GiB); the
    # fifth one already passes the limit of 2^20 assignments
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"domain_size": 32, "omega": [2 ** 32 - 1]}))
    text = "".join(f"forall x{i}. " for i in range(7)) + "true"
    start = time.perf_counter()
    assert run(["fol-eval", text, "--model", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "error: 5 nested binders on 32 points make 33554432 "
            "assignments, more than 1048576\n")
    # four binders stay within it
    assert run(["fol-eval", text.replace("forall x4. forall x5. forall x6. ",
                                         ""), "--model", str(path)]) == 0


@pytest.mark.parametrize("size", [10 ** 15, 10 ** 21])
def test_fol_eval_reports_models_too_large_to_hold(tmp_path, size):
    # checking the opens-family asks for a mask of `size` bits: MemoryError
    # at 10^15, OverflowError at 10^21; the child's address space is capped
    # so that the first fails at once even where the kernel overcommits
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"domain_size": size, "omega": [1]}))
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "from plausible.cli import run\n"
            "sys.exit(run(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", code, "fol-eval", "true", "--model",
         str(path)], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", b"error: input too large\n")


def test_unknown_command_is_input_error():
    assert run(["frobnicate"]) == 2


# the tokens of both languages, plus characters that neither accepts
TOKENS = ["p", "q", "x", "R", "S", "f", "c", "P", "forall", "exists", "true",
          "false", "~", "#", "&", "|", "->", "<->", "(", ")", ".", ",", "=",
          "$", "-", "<", " "]
texts = st.lists(st.sampled_from(TOKENS), max_size=14).map("".join)


@settings(max_examples=600, deadline=None)
@example("(p -> P x. p) <-> p")
@given(texts)
def test_parsers_reject_or_round_trip(text):
    for read in (parse, parse_fo):
        try:
            f = read(text)
        except ParseError:
            continue
        assert read(render(f)) is f


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps({
        "domain_size": 2,
        "relations": {"R": [[0]], "S": [[0, 1]]},
        "functions": {"f": [[0, 1], [1, 0]]},
        "constants": {"c": 0},
        "omega": [1, 3],
    }))
    return str(path)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_exit_codes_hold_on_any_text(small_model, text):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        proved = run(["prove", text, "--budget", "200"])
        proved_json = run(["prove", text, "--budget", "200", "--json"])
        codes = {run(["parse", text]), proved,
                 run(["countermodel", text, "--max-atoms", "1"]),
                 run(["fol-eval", text, "--model", small_model])}
    assert codes <= {0, 1, 2, 3}
    assert proved_json == proved


def _holds_contract(argv, verdicts):
    """Run the CLI: the exit code is one of 0-3, nothing escapes as a
    traceback, and exit 1 comes with its verdict line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue().splitlines()[-1].startswith(verdicts)


numbers = st.integers(0, 6).map(str)
justifications = st.one_of(
    st.sampled_from(["premise", "axiom LPC", "axiom", "axiom AX9", ""]),
    st.tuples(st.sampled_from(["AX1", "AX2", "AX3", "AX4"]), texts, texts)
    .map(lambda t: f"axiom {t[0]} A={t[1]} B={t[2]}"),
    st.tuples(st.sampled_from(["mp", "rnabla"]),
              st.lists(numbers | texts, max_size=3))
    .map(lambda t: " ".join([t[0], *t[1]])),
    texts)
proof_lines = st.one_of(
    st.tuples(numbers, texts, justifications)
    .map(lambda t: f"{t[0]}. {t[1]} ; {t[2]}"),
    st.sampled_from(["", "-- note", "1. p", "x. p ; premise"]), texts)
proof_files = st.one_of(
    st.lists(proof_lines, max_size=6).map("\n".join).map(str.encode),
    st.binary(max_size=24))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "input"


@settings(max_examples=100, deadline=None)
@given(proof_files)
@example(b"1. p ;\n")  # an empty justification once escaped as IndexError
def test_check_proof_exit_codes_hold_on_any_file(scratch_file, data):
    scratch_file.write_bytes(data)
    _holds_contract(["check-proof", str(scratch_file)], ("rejected at line",))


small_ints = st.integers(-1, 9)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), small_ints, st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6)
rows = st.lists(st.lists(small_ints, max_size=3), max_size=4)


def _or_junk(strategy):
    return st.one_of(strategy, json_values)


model_docs = st.one_of(st.fixed_dictionaries({}, optional={
    "domain_size": _or_junk(st.integers(0, 3)),
    "omega": _or_junk(st.lists(st.integers(0, 9), max_size=5)),
    "relations": _or_junk(st.dictionaries(st.sampled_from(["R", "S"]),
                                          _or_junk(rows), max_size=2)),
    "functions": _or_junk(st.dictionaries(st.just("f"), _or_junk(rows),
                                          max_size=1)),
    "constants": _or_junk(st.dictionaries(st.just("c"), _or_junk(small_ints),
                                          max_size=1)),
}), json_values)
fo_texts = st.one_of(st.sampled_from([
    "true", "R(c)", "S(c, c)", "P x. R(x)", "forall x. R(x) -> S(x)",
    "exists x. f(x) = c", "P x. ~S(x) | x = c", "R(y)"]), texts)


@settings(max_examples=100, deadline=None)
@given(st.one_of(model_docs.map(json.dumps), st.text(max_size=12)), fo_texts)
def test_fol_eval_exit_codes_hold_on_any_model(scratch_file, doc, text):
    scratch_file.write_text(doc, encoding="utf-8")
    _holds_contract(["fol-eval", text, "--model", str(scratch_file)],
                    ("false",))
