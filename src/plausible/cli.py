"""Command-line entry point.

Exit codes: 0 proved / valid / accepted / true, 1 open / countermodel /
rejected / false, 2 parse or input error, 3 node budget exceeded.  A
standard output whose reader has gone (``plausible enum-spaces --size 4 |
head``) is no error: the rest of the output is discarded, nothing is
written to standard error, and the command exits with its own code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra, folp, hilbert, pseudotopology, tableau
from .formula import parse, render

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plausible",
        description="Theorem proving and finite model finding for the "
                    "propositional logic of the plausible")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical rendering")
    p.add_argument("formula")

    p = sub.add_parser("prove", help="run the tableau prover")
    p.add_argument("formula")
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget", type=int, default=tableau.DEFAULT_BUDGET)

    p = sub.add_parser("countermodel",
                       help="search the finite algebras for a countermodel")
    p.add_argument("formula")
    p.add_argument("--max-atoms", type=int, default=algebra.MAX_ATOMS)

    p = sub.add_parser("check-proof", help="validate a Hilbert proof file")
    p.add_argument("file")

    p = sub.add_parser("enum-spaces", help="stream the pseudo-topologies")
    p.add_argument("--size", type=int, required=True)

    p = sub.add_parser("enum-algebras", help="stream the plausible algebras")
    p.add_argument("--atoms", type=int, required=True)

    p = sub.add_parser("fol-eval",
                       help="evaluate a first-order formula in a structure")
    p.add_argument("formula")
    p.add_argument("--model", required=True)

    return top


def _print(text: str) -> None:
    """Write one line of a command's output.  Once the reader of standard
    output has gone, stdout is pointed at devnull, as the Python
    documentation's note on SIGPIPE does, so that neither a later line nor
    the flush at exit raises."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_parse(args) -> int:
    _print(render(parse(args.formula)))
    return EXIT_OK


def _cmd_prove(args) -> int:
    premises = [parse(text) for text in args.premise]
    goal = parse(args.formula)
    result = tableau.prove(premises, goal, budget=args.budget)
    if args.json:
        _print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        _print(result.to_text())
        _print(f"verdict: {result.verdict}")
        if result.open_branch is not None:
            for f in result.open_branch:
                _print(f"  open: {render(f)}")
    return EXIT_OK if result.verdict == "closed" else EXIT_NEGATIVE


def _cmd_countermodel(args) -> int:
    f = parse(args.formula)
    hit = algebra.find_countermodel(f, max_atoms=args.max_atoms)
    if hit is None:
        _print(f"valid up to bound (max_atoms={args.max_atoms})")
        return EXIT_OK
    alg, valuation = hit
    _print(json.dumps(algebra.countermodel_to_json(alg, valuation),
                      sort_keys=True))
    return EXIT_NEGATIVE


def _cmd_check_proof(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    lines, premises = hilbert.parse_proof(text)
    result = hilbert.check_proof(lines, premises)
    if result.ok:
        kind = "theorem" if result.is_theorem else "derivation"
        _print(f"accepted: {kind} {render(result.proved)}")
        return EXIT_OK
    _print(f"rejected at line {result.line}: {result.reason}")
    return EXIT_NEGATIVE


def _stream(items) -> int:
    """Print each item's ``to_json()`` on its own line, then the count."""
    count = 0
    for item in items:
        _print(json.dumps(item.to_json(), sort_keys=True))
        count += 1
    _print(f"count: {count}")
    return EXIT_OK


def _cmd_enum_spaces(args) -> int:
    return _stream(pseudotopology.enumerate_spaces(args.size))


def _cmd_enum_algebras(args) -> int:
    return _stream(algebra.enumerate_algebras(args.atoms))


def _cmd_fol_eval(args) -> int:
    with open(args.model, encoding="utf-8") as handle:
        doc = json.load(handle)
    structure = folp.PlausibleStructure.from_json(doc)
    f = folp.parse_fo(args.formula)
    value = folp.satisfies(structure, f)
    _print("true" if value else "false")
    return EXIT_OK if value else EXIT_NEGATIVE


_COMMANDS = {
    "parse": _cmd_parse,
    "prove": _cmd_prove,
    "countermodel": _cmd_countermodel,
    "check-proof": _cmd_check_proof,
    "enum-spaces": _cmd_enum_spaces,
    "enum-algebras": _cmd_enum_algebras,
    "fol-eval": _cmd_fol_eval,
}


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except tableau.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except (MemoryError, OverflowError):
        print("error: input too large", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
