import dataclasses
import pathlib

import pytest

from dlpcf import checker as ck
from dlpcf import index as ix
from dlpcf import machine
from dlpcf import pcf
from dlpcf.checker import (Annotations, Derivation, StructuralError, bind,
                           check, erase_derivation, load_derivation,
                           parse_derivation, root_bounds)
from dlpcf.index import (App, Constraint, ConstraintSet, EMPTY_CTX, Lit,
                         Refuted, Var, Verified, entails, parse_constraint,
                         parse_equations, parse_index)
from dlpcf.types import alpha_eq_type, parse_basic_type, parse_modal_type


def cs(variables="", *constraints):
    return ConstraintSet(tuple(variables.split()),
                         tuple(parse_constraint(c) for c in constraints))


def B(text):
    return parse_basic_type(text)


def M(text):
    return parse_modal_type(text)


def leaf_n(value, ctx=EMPTY_CTX, context=(), weight="0", type_text=None):
    return Derivation("N", ctx, context, parse_index(weight),
                      B(type_text or f"Nat[{value}]"), Annotations(), (),
                      subject=pcf.Const(value))


# ---------------------------------------------------------------------------
# Leaves and a small application derivation

def test_constant_leaf_verifies(arith):
    report = check(leaf_n(3, type_text="Nat[3, 3]"), arith, bound=6)
    assert isinstance(report.overall, Verified)


def test_constant_leaf_wrong_interval_refuted(arith):
    report = check(leaf_n(3, type_text="Nat[4, 5]"), arith, bound=6)
    assert isinstance(report.overall, Refuted)


def test_leaf_rule_must_match_subject(arith):
    bad = dataclasses.replace(leaf_n(3), subject=pcf.Succ(pcf.Const(2)))
    with pytest.raises(StructuralError):
        check(bad, arith)


def small_app_derivation():
    """(\\x. s x) 2 at type Nat[3] with weight 1 (one argument copy)."""
    entry = M("[c < 1] Nat[2, 2]")
    v = Derivation("V", EMPTY_CTX, (entry,), Lit(0), B("Nat[2, 2]"),
                   Annotations(), (), subject=pcf.TVar(0))
    s = Derivation("S", EMPTY_CTX, (entry,), Lit(0), B("Nat[3, 3]"),
                   Annotations(), (v,), subject=pcf.Succ(pcf.TVar(0)))
    lam = Derivation("L", EMPTY_CTX, (), Lit(0),
                     B("[c < 1] Nat[2, 2] -o Nat[3, 3]"),
                     Annotations(), (s,),
                     subject=pcf.Lam(pcf.Succ(pcf.TVar(0))))
    arg = Derivation("N", cs("c", "c < 1"), (), Lit(0), B("Nat[2, 2]"),
                     Annotations(), (), subject=pcf.Const(2))
    return Derivation("A", EMPTY_CTX, (), Lit(1), B("Nat[3, 3]"),
                      Annotations(ctxsum=(), ctxjoin=()), (lam, arg),
                      subject=pcf.App(pcf.Lam(pcf.Succ(pcf.TVar(0))),
                                      pcf.Const(2)))


def test_small_application_derivation_verifies(arith):
    report = check(small_app_derivation(), arith, bound=6)
    assert isinstance(report.overall, Verified)
    # and the weight is tight: one unit less is refuted
    low = dataclasses.replace(small_app_derivation(), weight=Lit(0))
    report = check(low, arith, bound=6)
    assert isinstance(report.overall, Refuted)


def test_small_application_runs_within_its_weight(arith):
    d = small_app_derivation()
    r = machine.run(d.subject)
    weight, _ = root_bounds(d)
    assert r.steps <= pcf.size(d.subject) * (ix.eval_index(weight, {}, arith) + 1)
    assert r.value == 3


def test_argument_premise_context_is_checked(arith):
    d = small_app_derivation()
    bad_arg = dataclasses.replace(d.premises[1], ctx=EMPTY_CTX)
    with pytest.raises(StructuralError):
        check(dataclasses.replace(d, premises=(d.premises[0], bad_arg)),
              arith)


def test_missing_witness_annotation_is_structural(arith):
    d = dataclasses.replace(small_app_derivation(), annots=Annotations())
    with pytest.raises(StructuralError):
        check(d, arith)


# ---------------------------------------------------------------------------
# The golden doubling derivation

def test_golden_dbl_verifies_at_bound_6(arith, dbl_derivation):
    report = check(dbl_derivation, arith, bound=6)
    assert isinstance(report.overall, Verified)
    assert report.bound == 6


def test_golden_dbl_is_precise(arith, dbl_derivation):
    # the corrected weights are exact: every inequality premise holds as an
    # equality, so the derivation also passes precise mode
    report = check(dbl_derivation, arith, bound=3, precise=True)
    assert isinstance(report.overall, Verified)


def test_derivations_are_hashable(dbl_term):
    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures/dbl.deriv"
    first, second = load_derivation(path), load_derivation(path)
    assert first == second and hash(first) == hash(second)
    assert hash(bind(first, dbl_term)) == hash(bind(second, dbl_term))


def test_golden_dbl_root_bounds(dbl_derivation):
    weight, ty = root_bounds(dbl_derivation)
    assert alpha_eq_type(ty, B("[b < a + 1] Nat[a] -o Nat[mult(2, a)]"))
    assert ix.alpha_eq_index(weight, parse_index("a + sum(b < a+1, a - b)"))


def test_golden_dbl_erasure(dbl_derivation, dbl_term):
    erased = erase_derivation(dbl_derivation)
    assert erased.type == pcf.Arrow(pcf.NAT, pcf.NAT)
    assert erased.term == dbl_term
    assert erased.node_count() == 11
    assert pcf.pcf_typecheck((), erased.term) == pcf.Arrow(pcf.NAT, pcf.NAT)


def test_erased_premises_carry_binder_annotations(dbl_derivation):
    erased = erase_derivation(dbl_derivation)
    lam = erased.premises[0]
    assert lam.term.ann == pcf.NAT
    assert erased.term.body is lam.term


def test_lambda_of_interval_type_does_not_erase():
    body = leaf_n(0, context=(M("[c < 1] Nat[0]"),))
    lam = Derivation("L", EMPTY_CTX, (), Lit(0), B("Nat[0]"), Annotations(),
                     (body,), subject=pcf.Lam(pcf.Const(0)))
    with pytest.raises(StructuralError):
        erase_derivation(lam)


def test_single_node_erasure(arith):
    erased = erase_derivation(leaf_n(3, type_text="Nat[3, 3]"))
    assert erased.type == pcf.NAT and erased.node_count() == 1


def test_paper_claimed_linear_weight_is_refuted(arith, dbl_derivation):
    """The a-weighted root from the worked example fails its own
    application-rule premise; see the decisions ledger."""
    claimed = dataclasses.replace(dbl_derivation, weight=parse_index("a"))
    report = check(claimed, arith, bound=4)
    assert isinstance(report.overall, Refuted)


# ---------------------------------------------------------------------------
# Mutations (single-field corruption must never verify)

def mutations(gold):
    def annots(**changes):
        return dataclasses.replace(gold.annots, **changes)

    yield "weight decremented", dataclasses.replace(
        gold, weight=parse_index("(a + sum(b < a+1, a - b)) - 1"))
    ty2 = B("[b < a] Nat[a] -o Nat[mult(2, a)]")
    yield "argument bound shrunk", dataclasses.replace(
        gold, type=ty2, annots=annots(resulttype=ty2))
    ty3 = B("[b < a + 1] Nat[a] -o Nat[mult(2, a) - 1]")
    yield "result interval shrunk", dataclasses.replace(
        gold, type=ty3, annots=annots(resulttype=ty3))
    yield "weight cap shrunk", dataclasses.replace(
        gold, annots=annots(callcap=parse_index("a")))
    yield "unfolding bound shrunk", dataclasses.replace(
        gold, annots=annots(unfoldbound=parse_index("a")))
    yield "body weight zeroed", dataclasses.replace(
        gold, annots=annots(bodyweight=Lit(0)))


def test_mutated_derivations_never_verify(arith, dbl_derivation):
    count = 0
    for label, mutant in mutations(dbl_derivation):
        count += 1
        try:
            report = check(mutant, arith, bound=4)
        except StructuralError:
            continue
        assert isinstance(report.overall, Refuted), label
        assert report.overall.witness, label
    assert count >= 5


def test_refutation_is_monotone_in_bound(arith, dbl_derivation):
    mutant = dataclasses.replace(
        dbl_derivation, weight=parse_index("(a + sum(b < a+1, a - b)) - 1"))
    for bound in (4, 5, 6):
        report = check(mutant, arith, bound=bound)
        assert isinstance(report.overall, Refuted)


def test_obligations_are_deterministic(arith, dbl_derivation):
    first = check(dbl_derivation, arith, bound=4)
    second = check(dbl_derivation, arith, bound=4)
    assert first.obligations == second.obligations
    assert first == second


# ---------------------------------------------------------------------------
# The entailment memo lives for one check

def direct_entails_evals(program, bound, monkeypatch):
    """The eval_index calls made by each of two identical direct `entails`
    calls at `bound` and the default fuel, as a check would make them."""
    calls = []
    real = ix.eval_index
    monkeypatch.setattr(ix, "eval_index",
                        lambda *args: calls.append(args) or real(*args))
    counts = []
    for _ in range(2):
        before = len(calls)
        entails(cs("a b", "b < a + 1"), parse_constraint("b <= a"), program,
                bound)
        counts.append(len(calls) - before)
    monkeypatch.undo()
    return counts


def test_no_memo_outlives_a_check(arith, dbl_derivation, monkeypatch):
    check(dbl_derivation, arith, bound=3)
    first, second = direct_entails_evals(arith, 3, monkeypatch)
    assert first == second > 0
    # a weight out of scope two nodes down, after the root's obligations
    lam = dbl_derivation.premises[0]
    branch = dataclasses.replace(lam.premises[0], weight=parse_index("q"))
    broken = dataclasses.replace(
        dbl_derivation, premises=(dataclasses.replace(lam, premises=(branch,)),))
    with pytest.raises(StructuralError, match="root.0.0"):
        check(broken, arith, bound=3)
    assert direct_entails_evals(arith, 3, monkeypatch) == [first, first]


def test_entails_memo_serves_only_its_program_and_bound():
    ctx = ConstraintSet(("a",), ())
    goal = Constraint(App("f", (Var("a"),)), "<=", Lit(0))
    zero = parse_equations("f(a) = 0")
    succ = parse_equations("f(a) = a + 1")
    with ix.entails_memo(zero, 3, 1000):
        assert entails(ctx, goal, zero, 3, 1000) == Verified(3)
        assert entails(ctx, goal, succ, 3, 1000) == Refuted((("a", 0),))
        assert entails(ctx, goal, zero, 2, 1000) == Verified(2)


# ---------------------------------------------------------------------------
# A fixpoint under a nonempty context (vacuous self-use)

def delay5(arith):
    import pathlib
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    term = pcf.parse_term((fixtures / "delay5.pcf").read_text())
    return bind(load_derivation(fixtures / "delay5.deriv"), term), term


def test_vacuous_fix_under_lambda_verifies(arith):
    deriv, _ = delay5(arith)
    report = check(deriv, arith, bound=6)
    assert isinstance(report.overall, Verified)


def test_vacuous_fix_context_sum_is_tight(arith):
    deriv, _ = delay5(arith)
    r_node = deriv.premises[0].premises[0]
    # claim the outer variable budget twice what the unfoldings provide
    fat = dataclasses.replace(
        r_node, context=(M("[c < 2] Nat[5, 5]"),))
    lam = dataclasses.replace(deriv.premises[0], premises=(fat,))
    with pytest.raises(StructuralError):
        # the lambda rule now sees a mismatched passed-through entry
        check(dataclasses.replace(deriv, premises=(lam, deriv.premises[1])),
              arith, bound=4)


def test_vacuous_fix_runs_within_its_weight(arith):
    deriv, term = delay5(arith)
    weight, ty_root = root_bounds(deriv)
    r = machine.run(term)
    w = ix.eval_index(weight, {}, arith)
    assert r.value == 5 and r.steps == 4
    assert r.steps <= pcf.size(term) * (w + 1)


# ---------------------------------------------------------------------------
# Binding and files

def test_bind_attaches_subjects(dbl_term):
    import pathlib
    raw = load_derivation(
        pathlib.Path(__file__).resolve().parent.parent / "fixtures/dbl.deriv")
    assert raw.subject is None
    bound = bind(raw, dbl_term)
    assert bound.subject == dbl_term
    lam = bound.premises[0]
    assert isinstance(lam.subject, pcf.Lam)
    assert isinstance(lam.premises[0].subject, pcf.IfZ)


def test_bind_rejects_mismatched_program(omega_term):
    import pathlib
    raw = load_derivation(
        pathlib.Path(__file__).resolve().parent.parent / "fixtures/dbl.deriv")
    with pytest.raises(StructuralError):
        bind(raw, omega_term)


def test_unbound_derivation_is_structural(arith):
    raw = dataclasses.replace(leaf_n(3), subject=None)
    with pytest.raises(StructuralError):
        check(raw, arith)


def test_placeholder_resolution(dbl_derivation):
    # the scrutinee's second slot was written `_` and resolves to width 0
    scrutinee = dbl_derivation.premises[0].premises[0].premises[0]
    entry = scrutinee.context[1]
    assert entry.bound == Lit(0)
    assert alpha_eq_type(
        entry.body, B("[c < a-b] Nat[a-b-1] -o Nat[mult(2, a-b-1)]"))


def test_placeholder_in_root_is_rejected(dbl_term):
    text = '(N (phi) (context _) (weight "0") (type "Nat[0]"))'
    with pytest.raises(StructuralError):
        bind(parse_derivation(text), pcf.Const(0))


def test_parse_rejects_unknown_sections():
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (wrong "x") (weight "0") (type "Nat[0]"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (annots (mystery "x")) (weight "0") (type "Nat[0]"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(Z (weight "0") (type "Nat[0]"))')


def test_parse_rejects_duplicates_and_missing_sections():
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (weight "0") (weight "1") (type "Nat[0]"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (weight "0"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (weight "0" "1") (type "Nat[0]"))')


def test_unknown_symbol_is_structural(arith):
    d = leaf_n(3, type_text="Nat[zap(3), 3]")
    with pytest.raises(StructuralError):
        check(d, arith)


def test_scope_violation_is_structural(arith):
    d = leaf_n(3, weight="q", type_text="Nat[3, 3]")
    with pytest.raises(StructuralError):
        check(d, arith)


def test_precise_mode_rejects_slack(arith):
    slack = dataclasses.replace(small_app_derivation(), weight=Lit(5))
    assert isinstance(check(slack, arith, bound=6).overall, Verified)
    assert isinstance(check(slack, arith, bound=6, precise=True).overall,
                      Refuted)
