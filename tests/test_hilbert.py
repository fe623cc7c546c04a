import pytest

from plausible.formula import And, Atom, Implies, Nabla, Not, Or, parse
from plausible.hilbert import (MP, AxiomJust, Premise, ProofLine, RNabla,
                               axiom, check_proof, instantiate, nabla_lift,
                               parse_proof)
from plausible.tableau import prove

from conftest import LIBRARY_PROOFS

p, q = Atom("p"), Atom("q")


def test_instantiate_examples():
    assert instantiate("AX4", {"A": q}) == Nabla(Or(q, Not(q)))
    assert instantiate("AX1", {"A": p, "B": p}) == \
        Implies(And(Nabla(p), Nabla(p)), Nabla(And(p, p)))
    assert instantiate("AX3", {"A": Nabla(p)}) == \
        Implies(Nabla(Nabla(p)), Nabla(p))
    with pytest.raises(ValueError, match="missing binding"):
        instantiate("AX1", {"A": p})
    with pytest.raises(ValueError, match="unknown schema"):
        instantiate("AX9", {"A": p})
    with pytest.raises(ValueError, match="^LPC has no template"):
        instantiate("LPC", {})


def test_check_proof_accepts_axiom_instance():
    lines = [ProofLine(1, Implies(Nabla(p), p), axiom("AX3", A=p))]
    result = check_proof(lines)
    assert result.ok and result.is_theorem
    assert result.proved == Implies(Nabla(p), p)


def test_check_proof_accepts_transfer():
    lines = [
        ProofLine(1, Implies(p, Or(p, q)), axiom("LPC")),
        ProofLine(2, Implies(Nabla(p), Nabla(Or(p, q))), RNabla(1)),
    ]
    result = check_proof(lines)
    assert result.ok and result.is_theorem


def test_check_proof_rejects_transfer_on_premise_line():
    lines = [
        ProofLine(1, p, Premise()),
        ProofLine(2, Implies(Nabla(p), Nabla(p)), RNabla(1)),
    ]
    result = check_proof(lines, premises=[p])
    assert not result.ok
    assert result.line == 2


def test_check_proof_rejects_transfer_on_non_implication():
    lines = [
        ProofLine(1, Nabla(Or(p, Not(p))), axiom("AX4", A=p)),
        ProofLine(2, Implies(Nabla(Nabla(Or(p, Not(p)))),
                             Nabla(Nabla(Or(p, Not(p))))), RNabla(1)),
    ]
    result = check_proof(lines)
    assert not result.ok
    assert "implication" in result.reason


def test_check_proof_rejects_premise_dependent_transfer():
    lines = [
        ProofLine(1, Implies(p, q), Premise()),
        ProofLine(2, Implies(Nabla(p), Nabla(q)), RNabla(1)),
    ]
    result = check_proof(lines, premises=[Implies(p, q)])
    assert not result.ok and result.line == 2
    assert "premise-dependent" in result.reason


def test_check_proof_rejects_transitively_premise_dependent_transfer():
    lines = [
        ProofLine(1, p, Premise()),
        ProofLine(2, Implies(p, Implies(q, q)), axiom("LPC")),
        ProofLine(3, Implies(q, q), MP(1, 2)),
        ProofLine(4, Implies(Nabla(q), Nabla(q)), RNabla(3)),
    ]
    result = check_proof(lines, premises=[p])
    assert not result.ok and result.line == 4


def test_check_proof_rejects_bad_shapes():
    bad_axiom = [ProofLine(1, Implies(Nabla(p), q), axiom("AX3", A=p))]
    result = check_proof(bad_axiom)
    assert not result.ok and "instance" in result.reason

    bad_lpc = [ProofLine(1, Implies(Nabla(p), p), axiom("LPC"))]
    assert not check_proof(bad_lpc).ok

    bad_mp = [
        ProofLine(1, p, Premise()),
        ProofLine(2, Implies(q, q), axiom("LPC")),
        ProofLine(3, q, MP(1, 2)),
    ]
    result = check_proof(bad_mp, premises=[p])
    assert not result.ok and result.line == 3


LPC_LINE = ProofLine(1, Implies(p, Or(p, q)), axiom("LPC"))


@pytest.mark.parametrize("lines, line, reason", [
    ([LPC_LINE, ProofLine(3, p, Premise())], 3,
     "indices must run 1..n (expected 2)"),
    ([ProofLine(1, q, Premise())], 1,
     "premise line not among the declared premises"),
    ([ProofLine(1, p, AxiomJust("AX9"))], 1, "unknown axiom schema 'AX9'"),
    ([ProofLine(1, Implies(And(Nabla(p), Nabla(p)), Nabla(And(p, p))),
                axiom("AX1", A=p))], 1, "missing binding for B"),
    ([LPC_LINE, ProofLine(2, Or(p, q), MP(2, 1))], 2,
     "modus ponens must cite earlier lines"),
    ([ProofLine(1, Implies(Nabla(p), Nabla(p)), RNabla(1))], 1,
     "transfer rule must cite an earlier line"),
    ([LPC_LINE, ProofLine(2, Implies(Nabla(p), Nabla(q)), RNabla(1))], 2,
     "bad transfer shape (expected #A -> #B from A -> B)"),
    ([LPC_LINE, ProofLine(2, p, "lemma")], 2,
     "unknown justification 'lemma'"),
], ids=["indices", "undeclared-premise", "unknown-schema", "instance",
        "mp-later-line", "rnabla-own-line", "transfer-shape",
        "justification-type"])
def test_check_proof_names_each_rejection(lines, line, reason):
    result = check_proof(lines, premises=[p])
    assert not result
    assert (result.line, result.reason) == (line, reason)


@pytest.mark.parametrize("text, message", [
    ("1. p -> p ; axiom", "line 1: axiom justification needs a schema name"),
    ("-- note\n1. p ; lemma 1", "line 2: unknown justification 'lemma 1'"),
])
def test_parse_proof_names_the_unreadable_line(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_proof(text)


def test_proofs_with_premises():
    lines = [
        ProofLine(1, p, Premise()),
        ProofLine(2, Implies(p, q), Premise()),
        ProofLine(3, q, MP(1, 2)),
    ]
    result = check_proof(lines, premises=[p, Implies(p, q)])
    assert result.ok
    assert not result.is_theorem


def test_proof_file_format():
    text = """
        1. p ; premise
        2. p -> (p | q) ; axiom LPC
        3. p | q ; mp 1 2
    """
    lines, premises = parse_proof(text)
    assert premises == [p]
    result = check_proof(lines, premises)
    assert result.ok and result.proved == Or(p, q)


def test_proof_file_bindings_with_spaces():
    text = "1. (#(p & q) | #r) -> #((p & q) | r) ; axiom AX2 A=p & q B=r"
    lines, _ = parse_proof(text)
    assert check_proof(lines).ok


def test_k_axiom_is_a_theorem():
    # K follows from AX1 and the transfer rule, so the operator is monotone
    # and closed under conjunction: a normal modal operator, not subnormal
    steps = [
        "(p -> q) & p -> q ; axiom LPC",
        "#((p -> q) & p) -> #q ; rnabla 1",
        "#(p -> q) & #p -> #((p -> q) & p) ; axiom AX1 A=p -> q B=p",
        "(#(p -> q) & #p -> #((p -> q) & p)) -> (#((p -> q) & p) -> #q)"
        " -> #(p -> q) -> #p -> #q ; axiom LPC",
        "(#((p -> q) & p) -> #q) -> #(p -> q) -> #p -> #q ; mp 3 4",
        "#(p -> q) -> #p -> #q ; mp 2 5",
    ]
    text = "\n".join(f"{n}. {step}" for n, step in enumerate(steps, 1))
    lines, premises = parse_proof(text)
    result = check_proof(lines, premises)
    assert result.ok and result.is_theorem
    assert result.proved == parse("#(p -> q) -> #p -> #q")


def test_library_all_check_and_close():
    assert len(LIBRARY_PROOFS) == 20
    for name, (lines, premises) in LIBRARY_PROOFS.items():
        result = check_proof(lines, premises)
        assert result.ok, (name, result.line, result.reason)
        assert prove([], result.proved).verdict == "closed", name


def test_library_proofs_are_theorems():
    for name, (lines, premises) in LIBRARY_PROOFS.items():
        result = check_proof(lines, premises)
        assert result.ok and result.is_theorem, name


def test_nabla_lift_is_admissible():
    for name, (lines, premises) in LIBRARY_PROOFS.items():
        lifted = nabla_lift(lines)
        result = check_proof(lifted, premises)
        assert result.ok, (name, result.reason)
        assert result.proved == Nabla(lines[-1].formula)
