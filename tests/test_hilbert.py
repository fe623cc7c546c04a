import pytest

from plausible.formula import (And, Atom, Implies, Nabla, Not, Or, parse,
                               render)
from plausible.hilbert import (MP, AxiomJust, CheckResult, Premise, ProofLine,
                               RNabla, axiom, check_proof, instantiate,
                               library_proofs, library_theorems, nabla_lift,
                               parse_proof)
from plausible.tableau import prove

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
    theorems = library_theorems()
    assert len(theorems) == 20
    for name, f in theorems.items():
        assert prove([], f).verdict == "closed", name


def test_library_proofs_are_theorems():
    for name, (lines, premises) in library_proofs().items():
        result = check_proof(lines, premises)
        assert result.ok and result.is_theorem, name


def test_nabla_lift_is_admissible():
    for name, (lines, premises) in library_proofs().items():
        lifted = nabla_lift(lines)
        result = check_proof(lifted, premises)
        assert result.ok, (name, result.reason)
        assert result.proved == Nabla(lines[-1].formula)
