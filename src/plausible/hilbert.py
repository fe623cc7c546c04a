"""Hilbert-style proof checking for the plausibility logic.

Axiom schemas:

  LPC  any classical tautology (#-subformulas read as opaque units)
  AX1  (#A & #B) -> #(A & B)
  AX2  (#A | #B) -> #(A | B)
  AX3  #A -> A
  AX4  #(A | ~A)

Rules: modus ponens, and the transfer rule taking a premise-free
implication A -> B to #A -> #B.

Proof file format, one line per step:

  <index>. <formula> ; <justification>

with justification one of ``premise``, ``axiom LPC``,
``axiom AX3 A=<formula>`` (``B=<formula>`` where the schema needs it;
each of the schema's variables is bound exactly once), ``mp <i> <j>``
(line j must be: line i -> this line), ``rnabla <i>``, and nothing
else.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

from .formula import (And, Atom, Formula, Implies, Nabla, Not, Or,
                      is_classical_tautology, parse, render)
from .pseudotopology import _record

SCHEMA_VARS = {"LPC": (), "AX1": ("A", "B"), "AX2": ("A", "B"),
               "AX3": ("A",), "AX4": ("A",)}


# justifications and proof lines are records, built like
# pseudotopology.Verdict; an axiom's bindings are (variable, formula) pairs

class Premise(_record("")):
    __slots__ = ()


class AxiomJust(_record("schema bindings", ((),))):
    __slots__ = ()


class MP(_record("i j")):
    __slots__ = ()


class RNabla(_record("i")):
    __slots__ = ()


Justification = Union[Premise, AxiomJust, MP, RNabla]


class ProofLine(_record("index formula justification")):
    __slots__ = ()


def axiom(schema: str, **bindings: Formula) -> AxiomJust:
    return AxiomJust(schema, tuple(sorted(bindings.items())))


def instantiate(schema: str, bindings: dict[str, Formula]) -> Formula:
    """Substitution instance of a schema; LPC has no template."""
    if schema not in SCHEMA_VARS:
        raise ValueError(f"unknown schema {schema!r}")
    missing = [v for v in SCHEMA_VARS[schema] if v not in bindings]
    if missing:
        raise ValueError(f"missing binding for {', '.join(missing)}")
    if schema == "LPC":
        raise ValueError("LPC has no template to instantiate")
    a = bindings["A"]
    if schema == "AX1":
        b = bindings["B"]
        return Implies(And(Nabla(a), Nabla(b)), Nabla(And(a, b)))
    if schema == "AX2":
        b = bindings["B"]
        return Implies(Or(Nabla(a), Nabla(b)), Nabla(Or(a, b)))
    if schema == "AX3":
        return Implies(Nabla(a), a)
    return Nabla(Or(a, Not(a)))  # AX4


class CheckResult(_record("ok proved is_theorem line reason",
                          (None, False, None, ""))):
    """Whether the proof was accepted, the formula and theoremhood of its
    last line, or the line that failed and why; true exactly when ok is."""
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def check_proof(lines: Iterable[ProofLine],
                premises: Iterable[Formula] = ()) -> CheckResult:
    """Accept iff every line is correctly justified.  The transfer rule may
    only cite a line whose justification subtree is premise-free."""
    lines = list(lines)
    premises = list(premises)
    if not lines:
        return CheckResult(False, reason="empty proof")
    formulas: dict[int, Formula] = {}
    depends_on_premise: dict[int, bool] = {}
    for pos, line in enumerate(lines, start=1):
        n, f, just = line.index, line.formula, line.justification
        if n != pos:
            return CheckResult(False, line=n,
                               reason=f"indices must run 1..n (expected {pos})")

        def reject(reason: str) -> CheckResult:
            return CheckResult(False, line=n, reason=reason)

        if isinstance(just, Premise):
            if f not in premises:
                return reject("premise line not among the declared premises")
            depends_on_premise[n] = True
        elif isinstance(just, AxiomJust):
            if just.schema not in SCHEMA_VARS:
                return reject(f"unknown axiom schema {just.schema!r}")
            names = [name for name, _ in just.bindings]
            for name in names:
                if name not in SCHEMA_VARS[just.schema]:
                    return reject(f"{just.schema} has no variable {name}")
                if names.count(name) > 1:
                    return reject(f"repeated binding for {name}")
            if just.schema == "LPC":
                if not is_classical_tautology(f):
                    return reject("not a classical tautology")
            else:
                try:
                    expected = instantiate(just.schema, dict(just.bindings))
                except ValueError as exc:
                    return reject(str(exc))
                if expected != f:
                    return reject(
                        f"bad {just.schema} instance (expected "
                        f"{render(expected)})")
            depends_on_premise[n] = False
        elif isinstance(just, MP):
            if not (1 <= just.i < n and 1 <= just.j < n):
                return reject("modus ponens must cite earlier lines")
            if formulas[just.j] != Implies(formulas[just.i], f):
                return reject("bad modus ponens shape (line j must be "
                              "line i -> this line)")
            depends_on_premise[n] = (depends_on_premise[just.i]
                                     or depends_on_premise[just.j])
        elif isinstance(just, RNabla):
            if not 1 <= just.i < n:
                return reject("transfer rule must cite an earlier line")
            if depends_on_premise[just.i]:
                return reject("transfer rule applied to a premise-dependent "
                              "line")
            cited = formulas[just.i]
            if not isinstance(cited, Implies):
                return reject("transfer rule needs an implication theorem "
                              "line")
            if f != Implies(Nabla(cited.left), Nabla(cited.right)):
                return reject("bad transfer shape (expected #A -> #B from "
                              "A -> B)")
            depends_on_premise[n] = False
        else:
            return reject(f"unknown justification {just!r}")
        formulas[n] = f
    last = lines[-1].index
    return CheckResult(True, proved=formulas[last],
                       is_theorem=not depends_on_premise[last])


# ---------------------------------------------------------------------------
# text format

_LINE_RE = re.compile(r"^\s*(\d+)\.\s*(.*?)\s*;\s*(.*?)\s*$")
_BINDING_RE = re.compile(r"(?:^|\s)([A-Z])=")


def _parse_justification(text: str) -> Justification:
    parts = text.split(None, 1)
    head = parts[0].lower() if parts else ""
    rest = parts[1] if len(parts) > 1 else ""
    if head == "premise":
        if rest:
            raise ValueError(f"premise takes nothing after it, got {rest!r}")
        return Premise()
    if head == "axiom":
        sub = rest.split(None, 1)
        if not sub:
            raise ValueError("axiom justification needs a schema name")
        schema = sub[0].upper()
        arg_text = sub[1] if len(sub) > 1 else ""
        # a repeated variable is kept, for check_proof to reject
        bindings = []
        marks = list(_BINDING_RE.finditer(arg_text))
        stray = arg_text[:marks[0].start()] if marks else arg_text
        if stray:
            raise ValueError(f"axiom {schema} takes bindings X=formula, "
                             f"got {stray!r}")
        for k, m in enumerate(marks):
            end = marks[k + 1].start() if k + 1 < len(marks) else len(arg_text)
            bindings.append((m.group(1), parse(arg_text[m.end():end])))
        return AxiomJust(schema, tuple(sorted(bindings,
                                              key=lambda b: b[0])))
    if head == "mp":
        return MP(*_line_numbers(head, rest, 2))
    if head == "rnabla":
        return RNabla(*_line_numbers(head, rest, 1))
    raise ValueError(f"unknown justification {text!r}")


def _line_numbers(head: str, rest: str, count: int) -> list[int]:
    numbers = rest.split()
    if len(numbers) != count or not all(n.isdecimal() for n in numbers):
        wanted = "two line numbers" if count == 2 else "one line number"
        raise ValueError(f"{head} takes {wanted}, got {rest!r}")
    return [int(n) for n in numbers]


def parse_proof(text: str) -> tuple[list[ProofLine], list[Formula]]:
    """Parse the line-oriented proof format; formulas on premise lines make
    up the premise list.  An unreadable line raises ValueError naming its
    line number in the text."""
    lines: list[ProofLine] = []
    premises: list[Formula] = []
    for number, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("--"):
            continue
        m = _LINE_RE.match(raw)
        if m is None:
            raise ValueError(f"line {number}: malformed proof line: {raw!r}")
        index = int(m.group(1))
        try:
            f = parse(m.group(2))
            just = _parse_justification(m.group(3))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        if isinstance(just, Premise):
            premises.append(f)
        lines.append(ProofLine(index, f, just))
    return lines, premises


def nabla_lift(lines: list[ProofLine]) -> list[ProofLine]:
    """Given a premise-free proof of f, extend it to a proof of #f.

    The tail derives (p | ~p) -> f classically, transfers it to
    #(p | ~p) -> #f, and discharges with the excluded-middle axiom.
    """
    n = len(lines)
    f = lines[-1].formula
    em = Or(Atom("p"), Not(Atom("p")))
    tail = [
        ProofLine(n + 1, Implies(f, Implies(em, f)), axiom("LPC")),
        ProofLine(n + 2, Implies(em, f), MP(n, n + 1)),
        ProofLine(n + 3, Implies(Nabla(em), Nabla(f)), RNabla(n + 2)),
        ProofLine(n + 4, Nabla(em), axiom("AX4", A=Atom("p"))),
        ProofLine(n + 5, Nabla(f), MP(n + 4, n + 3)),
    ]
    return lines + tail


# ---------------------------------------------------------------------------
# shipped proof library

LIBRARY: dict[str, str] = {
    "no_plausible_falsum": """
        1. #false -> false ; axiom AX3 A=false
        2. (#false -> false) -> ~#false ; axiom LPC
        3. ~#false ; mp 1 2
    """,
    "plausible_weakening": """
        1. p -> (p | q) ; axiom LPC
        2. #p -> #(p | q) ; rnabla 1
    """,
    "plausible_weakening_qp": """
        1. q -> (q | p) ; axiom LPC
        2. #q -> #(q | p) ; rnabla 1
    """,
    "fact_excludes_implausible_negation": """
        1. #~p -> ~p ; axiom AX3 A=~p
        2. (#~p -> ~p) -> (p -> ~#~p) ; axiom LPC
        3. p -> ~#~p ; mp 1 2
    """,
    "fact_excludes_implausible_negation_q": """
        1. #~q -> ~q ; axiom AX3 A=~q
        2. (#~q -> ~q) -> (q -> ~#~q) ; axiom LPC
        3. q -> ~#~q ; mp 1 2
    """,
    "plausible_excludes_negation": """
        1. #p -> p ; axiom AX3 A=p
        2. #~p -> ~p ; axiom AX3 A=~p
        3. (#p -> p) -> ((#~p -> ~p) -> (#p -> ~#~p)) ; axiom LPC
        4. (#~p -> ~p) -> (#p -> ~#~p) ; mp 1 3
        5. #p -> ~#~p ; mp 2 4
    """,
    "plausible_negation_excludes": """
        1. #p -> p ; axiom AX3 A=p
        2. #~p -> ~p ; axiom AX3 A=~p
        3. (#~p -> ~p) -> ((#p -> p) -> (#~p -> ~#p)) ; axiom LPC
        4. (#p -> p) -> (#~p -> ~#p) ; mp 2 3
        5. #~p -> ~#p ; mp 1 4
    """,
    "plausible_excludes_negation_conj": """
        1. #(p & q) -> (p & q) ; axiom AX3 A=p & q
        2. #~(p & q) -> ~(p & q) ; axiom AX3 A=~(p & q)
        3. (#(p & q) -> (p & q)) -> ((#~(p & q) -> ~(p & q)) -> (#(p & q) -> ~#~(p & q))) ; axiom LPC
        4. (#~(p & q) -> ~(p & q)) -> (#(p & q) -> ~#~(p & q)) ; mp 1 3
        5. #(p & q) -> ~#~(p & q) ; mp 2 4
    """,
    "disjunction_transfer": """
        1. p -> (p | q) ; axiom LPC
        2. #p -> #(p | q) ; rnabla 1
        3. q -> (p | q) ; axiom LPC
        4. #q -> #(p | q) ; rnabla 3
        5. (#p -> #(p | q)) -> ((#q -> #(p | q)) -> ((#p | #q) -> #(p | q))) ; axiom LPC
        6. (#q -> #(p | q)) -> ((#p | #q) -> #(p | q)) ; mp 2 5
        7. (#p | #q) -> #(p | q) ; mp 4 6
    """,
    "disjunction_transfer_converse": """
        1. (#p | #q) -> #(p | q) ; axiom AX2 A=p B=q
        2. #p -> (#p | #q) ; axiom LPC
        3. (#p -> (#p | #q)) -> (((#p | #q) -> #(p | q)) -> (#p -> #(p | q))) ; axiom LPC
        4. ((#p | #q) -> #(p | q)) -> (#p -> #(p | q)) ; mp 2 3
        5. #p -> #(p | q) ; mp 1 4
    """,
    "biconditional_transfer": """
        1. (p | q) -> (q | p) ; axiom LPC
        2. #(p | q) -> #(q | p) ; rnabla 1
        3. (q | p) -> (p | q) ; axiom LPC
        4. #(q | p) -> #(p | q) ; rnabla 3
        5. (#(p | q) -> #(q | p)) -> ((#(q | p) -> #(p | q)) -> (#(p | q) <-> #(q | p))) ; axiom LPC
        6. (#(q | p) -> #(p | q)) -> (#(p | q) <-> #(q | p)) ; mp 2 5
        7. #(p | q) <-> #(q | p) ; mp 4 6
    """,
    "conjunction_axiom": """
        1. (#p & #q) -> #(p & q) ; axiom AX1 A=p B=q
    """,
    "disjunction_axiom": """
        1. (#p | #q) -> #(p | q) ; axiom AX2 A=p B=q
    """,
    "factivity_axiom": """
        1. #p -> p ; axiom AX3 A=p
    """,
    "factivity_nested": """
        1. ##p -> #p ; axiom AX3 A=#p
    """,
    "excluded_middle_plausible": """
        1. #(p | ~p) ; axiom AX4 A=p
    """,
    "excluded_middle_plausible_q": """
        1. #(q | ~q) ; axiom AX4 A=q
    """,
    "identity": """
        1. p -> p ; axiom LPC
    """,
    "verum_plausible": """
        1. true ; axiom LPC
        2. true -> ((p | ~p) -> true) ; axiom LPC
        3. (p | ~p) -> true ; mp 1 2
        4. #(p | ~p) -> #true ; rnabla 3
        5. #(p | ~p) ; axiom AX4 A=p
        6. #true ; mp 5 4
    """,
    "plausible_conjunct_projection": """
        1. #(p & q) -> (p & q) ; axiom AX3 A=p & q
        2. (#(p & q) -> (p & q)) -> (#(p & q) -> p) ; axiom LPC
        3. #(p & q) -> p ; mp 1 2
    """,
}
