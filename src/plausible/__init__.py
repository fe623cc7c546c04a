"""Theorem proving and finite model finding for the propositional logic of
the plausible, with a first-order model checker for the plausibility
quantifier."""

from .formula import (And, Atom, Bottom, Formula, Iff, Implies, Nabla, Not,
                      Or, Top, erase_nabla, is_classical_tautology, parse,
                      render)
from .tableau import BudgetExceeded, ProveResult, is_valid, prove

__all__ = [
    "And", "Atom", "Bottom", "BudgetExceeded", "Formula", "Iff", "Implies",
    "Nabla", "Not", "Or", "ProveResult", "Top", "erase_nabla",
    "is_classical_tautology", "is_valid", "parse", "prove", "render",
]
