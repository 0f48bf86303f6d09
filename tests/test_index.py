import itertools
import pathlib
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from dlpcf import index as ix
from dlpcf import types
from dlpcf.checker import check
from dlpcf.fuel import FuelExhausted
from dlpcf.index import (App, BoundedSum, Constraint, ConstraintSet, Defined,
                         EMPTY_CTX, Forest, IndexUndefined, LinArrow, Lit,
                         ModalType, NatI, NatPattern, NonLinearPattern, Oracle,
                         OverlapError, Refuted, Rule, UnboundRhsVar, Var,
                         Verified, declare, entails, eval_index,
                         parse_equations, parse_index, register_program,
                         show_index, subst_index)

from genterms import Fuel, gen_basic_type, table_program


def ev(text, rho, program, fuel=10**6):
    return eval_index(parse_index(text), rho, program, fuel)


# ---------------------------------------------------------------------------
# Registration

def test_paper_arithmetic_program_accepted(arith):
    assert {"gt", "add", "mult"} <= set(arith.signature.arities)


def test_overlapping_rules_rejected():
    rules = [Rule("f", (NatPattern("a", 0),), Var("a")),
             Rule("f", (NatPattern(None, 0),), Lit(1))]
    with pytest.raises(OverlapError):
        register_program(rules, declare({"f": 1}))


def test_nonlinear_lhs_rejected():
    rules = [Rule("f", (NatPattern("a", 0), NatPattern("a", 0)), Var("a"))]
    with pytest.raises(NonLinearPattern):
        register_program(rules, declare({"f": 2}))


def test_unbound_rhs_variable_rejected():
    rules = [Rule("f", (NatPattern("a", 0),), Var("b"))]
    with pytest.raises(UnboundRhsVar):
        register_program(rules, declare({"f": 1}))


def test_builtins_cannot_be_redeclared():
    with pytest.raises(ix.EquationError):
        declare({"+": 3})
    # builtin heads do not even lex as rule heads
    with pytest.raises(ValueError):
        parse_equations("add(0, b) = b\n+(a, b) = a")


def test_disjoint_exact_patterns_are_orthogonal():
    program = parse_equations("f(0) = 3\nf(0+1) = 5\nf(a+1+1) = 0")
    assert ev("f(0)", {}, program) == 3
    assert ev("f(1)", {}, program) == 5
    assert ev("f(7)", {}, program) == 0


# ---------------------------------------------------------------------------
# Evaluation

def test_mult_2_3_by_hand_rewrite(arith):
    # mult(2,3) -> add(3, mult(1,3)) -> add(3, add(3, mult(0,3)))
    #           -> add(3, add(3, 0)) -> add(3, 3) -> 6
    assert ev("mult(2, 3)", {}, arith) == 6


def test_builtin_plus_and_monus(arith):
    assert ev("2 + 3", {}, arith) == 5
    assert ev("2 - 3", {}, arith) == 0
    assert ev("3 - 2", {}, arith) == 1


def test_empty_sum_is_zero(arith):
    # body would be undefined, but a sum over an empty range never looks
    assert eval_index(BoundedSum("a", Lit(0), App("nosuch", ())),
                      {}, arith) == 0


def test_sum_over_range(arith):
    assert ev("sum(a < 4, a + 1)", {}, arith) == 1 + 2 + 3 + 4


def test_forest_of_zero_trees_is_empty(arith):
    assert ev("forest(a, 5, 0, gt(a, a))", {}, arith) == 0


def test_forest_two_tree_example(ktab):
    assert ev("forest(a, 0, 2, ktab(a))", {}, ktab) == 13
    assert ev("forest(a, 0, 1, ktab(a))", {}, ktab) == 8
    assert ev("forest(a, 8, 1, ktab(a))", {}, ktab) == 5
    assert ev("forest(a, 2, 3, ktab(a))", {}, ktab) == 6


def test_undefined_symbol_application(arith):
    program = register_program([], declare({"undef": 0}))
    with pytest.raises(IndexUndefined):
        ev("undef()", {}, program)


def test_partial_function_stuck_redex():
    program = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    assert ev("half(6)", {}, program) == 3
    with pytest.raises(IndexUndefined):
        ev("half(3)", {}, program)


def test_divergent_rewrite_exhausts_fuel():
    program = parse_equations("loop(a) = loop(a + 1)")
    with pytest.raises(FuelExhausted):
        ev("loop(0)", {}, program, fuel=5000)


def test_infinite_forest_exhausts_fuel(arith):
    # every node has one child: a single infinite chain
    program = parse_equations("one(a) = 1")
    with pytest.raises(FuelExhausted):
        ev("forest(a, 0, 1, one(a))", {}, program, fuel=5000)


def test_unbound_variable_is_an_error(arith):
    with pytest.raises(ValueError):
        ev("a + 1", {}, arith)


def test_eval_is_deterministic(ktab):
    term = parse_index("forest(a, 0, 2, ktab(a)) + sum(b < 3, b)")
    assert eval_index(term, {}, ktab) == eval_index(term, {}, ktab)


def test_eval_fuel_monotonicity(ktab):
    term = parse_index("forest(a, 0, 2, ktab(a))")
    for fuel in (200, 400, 10**6):
        assert eval_index(term, {}, ktab, fuel) == 13
    half = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    for fuel in (50, 100, 10**6):
        with pytest.raises(IndexUndefined):
            eval_index(parse_index("half(3)"), {}, half, fuel)


def test_numerals_are_a_primitive(arith):
    assert parse_index("3") == Lit(3)
    assert ev("0 + 1 + 1 + 1", {}, arith) == 3


# ---------------------------------------------------------------------------
# Substitution and alpha-equality

def test_subst_respects_binders():
    t = parse_index("sum(b < a, b + a)")
    got = subst_index(t, "a", parse_index("b + 1"))
    # the bound b must not capture the substituted b
    assert ev_closed(got, {"b": 2}) == sum(i + 3 for i in range(3))


def ev_closed(term, rho):
    return eval_index(term, rho, ix.EMPTY_PROGRAM, 10**6)


def test_forest_binder_shadows_in_body_only():
    # start and count see the outer b; the body's b is the node label
    t = Forest("b", ix.add(Var("b"), Lit(1)), Lit(0), Var("b"))
    assert ev_closed(t, {"b": 4}) == 0
    assert "forest(b, b + 1, 0, b)" == show_index(t)


def test_subst_renames_forest_binder_away_from_replacement():
    # forest(c, 0, 1, a - c) with a := c: the bound c must not capture it
    t = Forest("c", Lit(0), Lit(1), ix.monus(Var("a"), Var("c")))
    got = subst_index(t, "a", Var("c"))
    assert isinstance(got, Forest) and got.binder != "c"
    # at c = 2 the nodes 0, 1, 2, 3 have 2, 1, 0, 0 children
    assert ev_closed(got, {"c": 2}) == ev_closed(t, {"a": 2}) == 4


def test_a_renamed_binder_avoids_the_free_variables_of_its_outer_terms():
    # x := b renames the binder b, and b_0 is taken: it is free in the bound
    got = subst_index(parse_index("sum(b < b_0, b + x)"), "x", Var("b"))
    assert got == parse_index("sum(b_1 < b_0, b_1 + b)")
    # b_0 := b renames the binder b away from b_0 too, the name replaced in
    # the bound: the body's b stays bound
    got = subst_index(parse_index("sum(b < b_0, b)"), "b_0", Var("b"))
    assert got == parse_index("sum(b_1 < b, b_1)")
    assert ev_closed(got, {"b": 3}) == 0 + 1 + 2


# A small pool of names, so that substitutions regularly hit a binder equal
# to the substituted name, or a replacement that mentions a binder.
NAMES = ("a", "b", "x")
names = st.sampled_from(NAMES)
index_terms = st.recursive(
    st.one_of(st.integers(0, 3).map(Lit), names.map(Var)),
    lambda sub: st.one_of(st.builds(ix.add, sub, sub),
                          st.builds(ix.monus, sub, sub),
                          st.builds(BoundedSum, names, sub, sub),
                          st.builds(Forest, names, sub, sub, sub)),
    max_leaves=8)
LEMMA_FUEL = 10**4


@given(index_terms, names, index_terms,
       st.fixed_dictionaries({n: st.integers(0, 3) for n in NAMES}))
@example(parse_index("sum(b < x, b + x)"), "x", parse_index("b + 1"),
         {"a": 0, "b": 1, "x": 2})
@example(parse_index("forest(x, 0, x, 1 - x)"), "x", parse_index("x + 1"),
         {"a": 0, "b": 0, "x": 1})
@example(parse_index("forest(b, x, 1, x - b)"), "x", parse_index("b"),
         {"a": 0, "b": 2, "x": 1})
@settings(max_examples=300, deadline=None)
def test_substitution_lemma(t, name, repl, rho):
    # [[t[name := repl]]]rho = [[t]]rho[name := [[repl]]rho]
    try:
        value = eval_index(repl, rho, ix.EMPTY_PROGRAM, LEMMA_FUEL)
        got = eval_index(subst_index(t, name, repl), rho, ix.EMPTY_PROGRAM,
                         LEMMA_FUEL)
        want = eval_index(t, {**rho, name: value}, ix.EMPTY_PROGRAM,
                          LEMMA_FUEL)
    except FuelExhausted:
        return
    assert got == want


def test_alpha_eq_on_binders():
    a = parse_index("sum(x < 3, x + c)")
    b = parse_index("sum(y < 3, y + c)")
    c = parse_index("sum(y < 3, y + y)")
    assert ix.alpha_eq_index(a, b)
    assert not ix.alpha_eq_index(a, c)


def test_alpha_eq_on_forest_binders():
    a = parse_index("forest(x, x, 1, x + c)")
    b = parse_index("forest(y, x, 1, y + c)")
    c = parse_index("forest(y, y, 1, y + c)")
    assert ix.alpha_eq_index(a, b)
    assert not ix.alpha_eq_index(a, c)


def test_alpha_eq_never_equates_a_sum_with_a_forest():
    s = BoundedSum("x", Var("c"), Var("x"))
    f = Forest("x", Var("c"), Var("c"), Var("x"))
    assert not ix.alpha_eq_index(s, f)
    assert not ix.alpha_eq_index(f, s)


def test_parse_show_roundtrip():
    for text in ("a + b - 1", "mult(2, a - b)", "sum(a < b + 1, a - b)",
                 "forest(a, 0, 1, gt(a, b))", "a - (b + 1)"):
        term = parse_index(text)
        assert ix.alpha_eq_index(parse_index(show_index(term)), term)


def test_show_walks_the_one_bound_of_a_nat_once(monkeypatch):
    # Nat[I, I] prints as Nat[I]: when both bounds are one object the
    # printer visits the nodes of I once; alpha-equal bounds built apart
    # are both visited and printed once
    shown = []
    show_node = ix._show_node
    monkeypatch.setattr(ix, "_show_node", lambda node, *rest: (
        shown.append(node), show_node(node, *rest))[1])
    lo = parse_index("sum(b < a, b + 1) + a")
    assert show_index(NatI(lo, lo)) == "Nat[sum(b < a, b + 1) + a]"
    assert len(shown) == 1 + len(ix.walk(lo))
    shown.clear()
    hi = parse_index("sum(c < a, c + 1) + a")
    assert show_index(NatI(lo, hi)) == "Nat[sum(b < a, b + 1) + a]"
    assert len(shown) == 1 + 2 * len(ix.walk(lo))


# ---------------------------------------------------------------------------
# Entailment

def test_entails_trivial(arith):
    v = entails(EMPTY_CTX, Constraint(Lit(0), "<=", Lit(1)), Oracle(arith))
    assert isinstance(v, Verified)


def test_entails_vacuous_on_inconsistent_constraints(arith):
    ctx = ConstraintSet(("a",), (Constraint(Var("a"), "<", Lit(0)),))
    v = entails(ctx, Constraint(Lit(1), "<=", Lit(0)), Oracle(arith))
    assert isinstance(v, Verified)


def test_entails_refutes_with_least_witness(arith):
    ctx = ConstraintSet(("a",), ())
    v = entails(ctx, Constraint(ix.add(Var("a"), Lit(1)), "<=", Var("a")),
                Oracle(arith))
    assert v == Refuted((("a", 0),))


def test_entails_shifted_forest_lemma_instance(arith):
    # forest(a, i+j, k, H) ~ forest(a, j, k, H[a := a+i]) at i=2, j=1, k=2
    rng = random.Random(7)
    program, body = table_program(rng)
    lhs = Forest("a", Lit(3), Lit(2), body)
    rhs = Forest("a", Lit(1), Lit(2), subst_index(body, "a",
                                                  ix.add(Var("a"), Lit(2))))
    v = entails(EMPTY_CTX, Constraint(lhs, "~", rhs), Oracle(program, bound=8))
    assert isinstance(v, Verified)


def test_entails_definedness_goal(arith):
    undef = register_program([], declare({"undef": 0}))
    v = entails(EMPTY_CTX, Defined(App("undef", ())), Oracle(undef))
    assert isinstance(v, Refuted)
    v = entails(EMPTY_CTX, Defined(Lit(3)), Oracle(arith))
    assert isinstance(v, Verified)


def test_entails_kleene_equality_of_undefined_sides():
    half = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    both = Constraint(App("half", (Lit(3),)), "~", App("half", (Lit(5),)))
    assert isinstance(entails(EMPTY_CTX, both, Oracle(half)), Verified)
    mixed = Constraint(App("half", (Lit(3),)), "~", App("half", (Lit(4),)))
    assert isinstance(entails(EMPTY_CTX, mixed, Oracle(half)), Refuted)


def test_entails_undefined_goal_side_refutes():
    half = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    goal = Constraint(App("half", (Lit(3),)), "<=", Lit(9))
    assert isinstance(entails(EMPTY_CTX, goal, Oracle(half)), Refuted)


def test_entails_undefined_constraint_side_excludes_assignment():
    half = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    # half(a) only constrains even a; at odd a the constraint is false
    ctx = ConstraintSet(("a",), (Constraint(App("half", (Var("a"),)), "<=",
                                            Lit(9)),))
    goal = Constraint(App("half", (Var("a"),)), "<=", Var("a"))
    assert isinstance(entails(ctx, goal, Oracle(half)), Verified)


def test_entails_fuel_exhaustion_is_unknown():
    loop = parse_equations("loop(a) = loop(a + 1)")
    goal = Constraint(App("loop", (Lit(0),)), "<=", Lit(1))
    v = entails(EMPTY_CTX, goal, Oracle(loop, fuel=2000))
    assert isinstance(v, ix.Unknown)
    assert v.reason == "fuel-exhausted"


def test_fuel_exhausted_constraint_makes_entailment_unknown():
    # the constraint's truth is not known at any a, so the goal was never
    # checked and may not be reported Verified
    loop = parse_equations("loop(a) = loop(a)")
    runs_out = Constraint(App("loop", (Var("a"),)), "<=", Lit(0))
    ctx = ConstraintSet(("a",), (runs_out,))
    goal = Constraint(Lit(1), "<=", Lit(0))
    v = entails(ctx, goal, Oracle(loop, bound=3, fuel=1000))
    assert v == ix.Unknown("fuel-exhausted", (("a", 0),))
    # a later constraint that is false everywhere still rules every a out
    never = ctx.extend(None, Constraint(Var("a"), "<", Lit(0)))
    assert (entails(never, goal, Oracle(loop, bound=3, fuel=1000))
            == Verified(3))


def test_a_closed_false_constraint_prunes_every_assignment(monkeypatch):
    calls = []
    real = ix.eval_index
    monkeypatch.setattr(ix, "eval_index",
                        lambda *args: calls.append(args) or real(*args))
    ctx = ConstraintSet(("a", "b", "c"), (Constraint(Lit(1), "<=", Lit(0)),))
    goal = Constraint(Var("a"), "<", Var("b"))
    assert entails(ctx, goal, Oracle(ix.EMPTY_PROGRAM, bound=4)) == Verified(4)
    # the constraint's two sides, once, and no assignment beyond
    assert len(calls) == 2


# The full enumeration `entails` used before constraints pruned it: every
# point of {0..bound}^k in lexicographic order, then filtered.  The pruned
# enumerator must give exactly its verdicts, witnesses and reasons.

def reference_satisfies(ctx, rho, oracle):
    out = True
    for c in ctx.constraints:
        tl, vl = ix._outcome(c.lhs, rho, oracle)
        if tl == ix._UNDEF:
            return False
        tr, vr = ix._outcome(c.rhs, rho, oracle)
        if tr == ix._UNDEF:
            return False
        if ix._FUEL in (tl, tr):
            out = None
        elif not ix._related(c.rel, vl, vr):
            return False
    return out


def goal_at(goal, rho, oracle):
    """The goal's verdict at rho, None where it holds: the one-point
    specification of `_goal_over`, evaluating every side afresh."""
    return ix._verdict_at(
        ix._fate(goal, [ix._outcome(term, rho, oracle)
                        for term in ix._goal_sides(goal)]),
        rho)


def reference_entails(ctx, goal, oracle):
    unknown = None
    for values in itertools.product(range(oracle.bound + 1),
                                    repeat=len(ctx.variables)):
        rho = dict(zip(ctx.variables, values))
        satisfied = reference_satisfies(ctx, rho, oracle)
        if satisfied is False:
            continue
        verdict = (goal_at(goal, rho, oracle) if satisfied
                   else ix.Unknown("fuel-exhausted", tuple(sorted(rho.items()))))
        if isinstance(verdict, Refuted):
            return verdict
        if isinstance(verdict, ix.Unknown) and unknown is None:
            unknown = verdict
    return unknown if unknown is not None else Verified(oracle.bound)


# arith's symbols, one undefined at odd arguments and one that never
# terminates; the small fuel also runs out on some large products.
DIFF_PROGRAM = parse_equations(
    (pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "arith.eqs")
    .read_text() + "half(0) = 0\nhalf(a+1+1) = half(a) + 1\nloop(a) = loop(a)\n")
DIFF_FUEL = 200


def query_terms(variables, binders=()):
    """Index terms over `variables` with DIFF_PROGRAM's symbols, and with
    sums and forests whose binders are drawn from `binders`."""
    leaves = st.integers(0, 3).map(Lit)
    if variables:
        leaves = leaves | st.sampled_from(variables).map(Var)

    def compound(sub):
        forms = [st.builds(ix.add, sub, sub), st.builds(ix.monus, sub, sub),
                 st.builds(lambda f, x, y: App(f, (x, y)),
                           st.sampled_from(("gt", "add", "mult")), sub, sub),
                 st.builds(lambda f, x: App(f, (x,)),
                           st.sampled_from(("half", "loop")), sub)]
        if binders:
            names = st.sampled_from(binders)
            forms += [st.builds(BoundedSum, names, sub, sub),
                      st.builds(Forest, names, sub, sub, sub)]
        return st.one_of(forms)

    return st.recursive(leaves, compound, max_leaves=5)


@st.composite
def entailment_queries(draw):
    k = draw(st.integers(0, 3))
    variables = tuple(draw(st.permutations(("a", "b", "c")))[:k])
    terms = query_terms(variables)
    constraints = st.builds(Constraint, terms,
                            st.sampled_from(("<=", "<", "=")), terms)
    ctx = ConstraintSet(variables,
                        tuple(draw(st.lists(constraints, max_size=3))))
    goal = draw(st.builds(Constraint, terms,
                          st.sampled_from(("<=", "<", "=", "~")), terms)
                | st.builds(Defined, terms))
    return ctx, goal, draw(st.integers(0, 4))


@given(entailment_queries())
# a constraint that runs out of fuel everywhere: Unknown, never Verified
@example((ConstraintSet(("a",), (Constraint(App("loop", (Var("a"),)), "<=",
                                            Lit(0)),)),
          Constraint(Lit(1), "<=", Lit(0)), 3))
# a closed false constraint: every assignment pruned, Verified
@example((ConstraintSet(("a", "b"), (Constraint(Var("b"), "<", Var("a")),
                                     Constraint(Lit(1), "<=", Lit(0)))),
          Constraint(Var("a"), "<", Var("b")), 4))
# constraints listed in another order than their variables: Refuted at
# the least witness a=3, b=1, c=0
@example((ConstraintSet(("a", "b", "c"),
                        (Constraint(Var("c"), "<", Var("b")),
                         Constraint(App("half", (Var("c"),)), "=", Lit(0)),
                         Constraint(Var("b"), "<", Var("a")))),
          Constraint(Var("a"), "<", ix.add(Var("b"), Lit(2))), 4))
@settings(max_examples=200, deadline=None)
def test_pruned_entails_matches_the_full_enumeration(query):
    ctx, goal, bound = query
    oracle = Oracle(DIFF_PROGRAM, bound, DIFF_FUEL)
    want = reference_entails(ctx, goal, oracle)
    assert entails(ctx, goal, oracle) == want
    # asked again, the oracle answers from its memo without evaluating
    calls = []
    real = ix.eval_index
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ix, "eval_index",
                   lambda *args: calls.append(args) or real(*args))
        assert entails(ctx, goal, oracle) == want
    assert calls == []


def record_evals(mp):
    """Patch eval_index to record the term of each call it serves."""
    calls = []
    real = ix.eval_index
    mp.setattr(ix, "eval_index",
               lambda *args: calls.append(args[0]) or real(*args))
    return calls


def test_a_goal_side_is_evaluated_once_per_value_of_its_own_variables(
        monkeypatch):
    calls = record_evals(monkeypatch)
    ctx = ConstraintSet(("a", "b", "c"), ())
    goal = Constraint(Var("b"), "<", ix.add(Var("b"), Lit(1)))
    assert entails(ctx, goal, Oracle(ix.EMPTY_PROGRAM, bound=4)) == Verified(4)
    # 5 values of b, not 125 assignments of (a, b, c), for each side
    assert [sum(t is side for t in calls) for side in (goal.lhs, goal.rhs)] \
        == [5, 5]
    assert len(calls) == 10


def half(term):
    return App("half", (term,))


@given(entailment_queries(), entailment_queries())
# half(a) is a constraint side and a goal side of the first query, and a
# goal side of the second, whose variables come in the other order
@example((ConstraintSet(("a", "b"), (Constraint(half(Var("a")), "<=",
                                                Var("b")),)),
          Constraint(half(Var("a")), "<", ix.add(Var("b"), Lit(1))), 4),
         (ConstraintSet(("b", "a"), (Constraint(Var("b"), "<", Var("a")),)),
          Constraint(half(Var("a")), "<=", Var("b")), 4))
# one goal under two contexts: Refuted at a=3 without the constraint,
# Verified with it, so a verdict must not be found by its goal alone
@example((ConstraintSet(("a",), ()), Constraint(Var("a"), "<", Lit(3)), 4),
         (ConstraintSet(("a",), (Constraint(Var("a"), "<", Lit(3)),)),
          Constraint(Var("a"), "<", Lit(3)), 4))
@settings(max_examples=200, deadline=None)
def test_a_shared_oracle_answers_as_a_fresh_one(first, then):
    (ctx1, goal1, _), (ctx2, goal2, bound) = first, then
    shared = Oracle(DIFF_PROGRAM, bound, DIFF_FUEL)
    entails(ctx1, goal1, shared)
    fresh = Oracle(DIFF_PROGRAM, bound, DIFF_FUEL)
    assert entails(ctx2, goal2, shared) == entails(ctx2, goal2, fresh)


def record_calls(mp, *names):
    """Patch each of `ix`'s functions `names` to record its name on each
    call; the list of names called."""
    calls = []
    for name in names:
        real = getattr(ix, name)
        mp.setattr(ix, name, lambda *args, real=real, name=name:
                   calls.append(name) or real(*args))
    return calls


def test_a_repeated_query_is_answered_from_the_verdict_table(monkeypatch):
    def query():
        """(ctx, goal), built anew: equal to, and not the same as, the last."""
        return (ConstraintSet(("a", "b"), (Constraint(Var("b"), "<",
                                                      Var("a")),)),
                Constraint(half(Var("a")), "<=", Var("b")))

    oracle = Oracle(DIFF_PROGRAM, 4, DIFF_FUEL)
    first = entails(*query(), oracle)
    # half(1) is undefined
    assert first == Refuted((("a", 1), ("b", 0)))
    calls = record_calls(monkeypatch, "_goal_over", "_satisfying",
                         "eval_index")
    assert entails(*query(), oracle) == first
    assert calls == []


def test_a_query_that_raises_raises_each_time_it_is_asked():
    oracle = Oracle(DIFF_PROGRAM, 4, DIFF_FUEL)
    ctx, goal = ConstraintSet(("a",), ()), Constraint(Var("a"), "<", Var("c"))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"goal mentions undeclared "
                                             r"variables \['c'\]"):
            entails(ctx, goal, oracle)


def test_a_check_decides_each_distinct_query_once(arith, dbl_derivation,
                                                  monkeypatch):
    calls = record_calls(monkeypatch, "entails", "_goal_over")
    # `types` calls `entails` through its own module attribute
    monkeypatch.setattr(types, "entails", ix.entails)
    assert check(dbl_derivation, arith, bound=4).overall == Verified(4)
    assert [calls.count(name) for name in ("entails", "_goal_over")] \
        == [183, 95]


@pytest.mark.parametrize("where", ["goal", "constraint"])
def test_exhausted_fuel_is_replayed_exactly(arith, where):
    ground = parse_index("mult(2, 3)")
    k = next(fuel for fuel in itertools.count(1)
             if ix._outcome(ground, {}, Oracle(arith, fuel=fuel))[0] == ix._OK)
    with pytest.raises(FuelExhausted):
        eval_index(ground, {}, arith, k - 1)
    fits = Constraint(ground, "<=", ix.add(Var("a"), Lit(6)))
    ctx = again = ConstraintSet(("a",), ())
    goal = fits
    if where == "constraint":
        ctx, goal = ConstraintSet(("a",), (fits,)), Constraint(Var("a"), "<=",
                                                               Lit(2))
        # not equal to ctx, so not answered from the satisfying memo, but
        # with the same sides
        again = ctx.extend(None, fits)
    for fuel, want in ((k, Verified(2)),
                       (k - 1, ix.Unknown("fuel-exhausted", (("a", 0),)))):
        oracle = Oracle(arith, bound=2, fuel=fuel)
        assert entails(ctx, goal, oracle) == want
        with pytest.MonkeyPatch.context() as mp:
            calls = record_evals(mp)
            assert entails(again, goal, oracle) == want
        assert calls == []


def test_oracle_rejects_a_negative_bound_and_no_fuel(arith):
    with pytest.raises(ValueError, match="bound must be a natural, got -1"):
        Oracle(arith, bound=-1)
    with pytest.raises(ValueError, match="fuel budget must be positive"):
        Oracle(arith, fuel=0)


def test_fresh_name_depends_only_on_its_arguments():
    avoid = frozenset({"a", "a_0"})
    assert ix.fresh_name("a", avoid) == "a_1"
    assert ix.fresh_name("a", avoid) == "a_1"


def test_entails_rejects_stray_goal_variables(arith):
    with pytest.raises(ValueError):
        entails(EMPTY_CTX, Constraint(Var("a"), "<=", Lit(1)), Oracle(arith))


def test_constraint_set_scope_validation():
    with pytest.raises(ValueError):
        ConstraintSet(("a",), (Constraint(Var("b"), "<=", Lit(1)),))


# ---------------------------------------------------------------------------
# Equation file parsing

def test_eqs_comments_and_format(tmp_path):
    path = tmp_path / "t.eqs"
    path.write_text("# a comment\nid(a) = a  # trailing\n\n")
    program = ix.load_equations(path)
    assert ev("id(9)", {}, program) == 9


def test_eqs_bad_pattern_rejected():
    with pytest.raises(ix.IndexSyntaxError):
        parse_equations("f(a+b) = a")
    with pytest.raises(ix.IndexSyntaxError):
        parse_equations("f(2) = 1")


def test_rhs_arity_mismatch_rejected():
    with pytest.raises(ix.ArityError):
        parse_equations("g(a, b) = a\nf(a) = g(a)")


def test_under_enters_a_binder_scope():
    ctx = ConstraintSet(("a",), ())
    inner = ctx.under("b", Var("a"))
    assert inner == ctx.extend("b", Constraint(Var("b"), "<", Var("a")))
    with pytest.raises(ValueError):
        inner.under("a", Lit(1))


def test_duplicate_constraint_variable_rejected():
    with pytest.raises(ValueError):
        ConstraintSet(("a", "a"), ())


def test_index_parser_rejects_trailing_tokens():
    with pytest.raises(ix.IndexSyntaxError):
        parse_index("a + 1 b")
    with pytest.raises(ix.IndexSyntaxError):
        parse_index("sum(a < 3)")


@pytest.mark.parametrize("text", ["sum(( < 2, 1)", "sum(3 < 2, 1)",
                                  "sum(sum < 2, 1)", "forest(forest, 0, 1, 0)",
                                  "forest(+, 0, 1, 0)"])
def test_a_binder_must_be_a_name(text):
    with pytest.raises(ix.IndexSyntaxError, match="expected a variable name"):
        parse_index(text)


def test_binders_that_are_names_print_back_to_themselves():
    for text in ("sum(b < 2, b)", "forest(x', 0, 1, x')", "sum(_a < 1, 0)"):
        assert show_index(parse_index(text)) == text


# ---------------------------------------------------------------------------
# Index syntax walkers and the evaluator loop
#
# Recursive copies of `free_vars`, `subst_index`, `alpha_eq_index`,
# `check_symbols`, `show_index` (with the cases of `types.show_type`, and of
# the checker's printer of constraint sets) and the evaluator (`_eval`,
# `_apply` and `_forest_nodes`) as they were before `walk` and the
# evaluator's frame stack replaced them: the walkers and the loop must agree
# with them wherever these do not run out of stack.

def reference_node(t):
    """The binder of a compound node (None unless its first field is
    `binder`) and its other fields' values, in order."""
    names = t._fields
    binds = names[0] == "binder"
    return ((t.binder if binds else None),
            tuple(getattr(t, name) for name in names[binds:]))


def reference_free_vars(t):
    match t:
        case Var(name):
            return frozenset((name,))
        case Lit():
            return frozenset()
        case App(_, args):
            binder, parts = None, args
        case _:
            binder, parts = reference_node(t)
    out = frozenset()
    if binder is not None:
        *parts, body = parts
        out = reference_free_vars(body) - {binder}
    for part in parts:
        out |= reference_free_vars(part)
    return out


def reference_subst_index(t, name, repl):
    match t:
        case Var(n):
            return repl if n == name else t
        case Lit():
            return t
        case App(sym, args):
            return App(sym, tuple(reference_subst_index(a, name, repl)
                                  for a in args))
    binder, parts = reference_node(t)
    if binder is None:
        return type(t)(*(reference_subst_index(p, name, repl) for p in parts))
    *outer, body = parts
    outer = [reference_subst_index(o, name, repl) for o in outer]
    if binder != name:
        if (binder in reference_free_vars(repl)
                and name in reference_free_vars(t)):
            nb = ix.fresh_name(binder, reference_free_vars(repl)
                               | reference_free_vars(t))
            body = reference_subst_index(body, binder, Var(nb))
            binder = nb
        body = reference_subst_index(body, name, repl)
    return type(t)(binder, *outer, body)


def reference_alpha_eq_index(a, b, env_a=None, env_b=None, depth=0):
    ea = env_a or {}
    eb = env_b or {}
    match (a, b):
        case (Var(x), Var(y)):
            ia, ib = ea.get(x), eb.get(y)
            return ia == ib if (ia is not None or ib is not None) else x == y
        case (Lit(m), Lit(n)):
            return m == n
        case (App(f, xs), App(g, ys)):
            return (f == g and len(xs) == len(ys)
                    and all(reference_alpha_eq_index(x, y, ea, eb, depth)
                            for x, y in zip(xs, ys)))
    if type(a) is not type(b):
        return False
    binder_a, parts_a = reference_node(a)
    binder_b, parts_b = reference_node(b)
    if binder_a is None:
        return all(reference_alpha_eq_index(x, y, ea, eb, depth)
                   for x, y in zip(parts_a, parts_b))
    return (all(reference_alpha_eq_index(x, y, ea, eb, depth)
                for x, y in zip(parts_a[:-1], parts_b[:-1]))
            and reference_alpha_eq_index(parts_a[-1], parts_b[-1],
                                         {**ea, binder_a: depth},
                                         {**eb, binder_b: depth}, depth + 1))


def reference_check_symbols(t, signature):
    match t:
        case Var() | Lit() | str() | None:
            return
        case App(sym, args):
            expected = signature.arity(sym)
            if len(args) != expected:
                raise ix.ArityError(sym, expected, len(args))
            parts = args
        case tuple():
            parts = t
        case _:
            parts = reference_node(t)[1]
    for part in parts:
        reference_check_symbols(part, signature)


def reference_show_index(t):
    match t:
        case Var(name):
            return name
        case Lit(v):
            return str(v)
        case App("+" | "-" as op, (a, b)):
            left = reference_show_index(a)
            right = reference_show_index(b)
            if isinstance(b, App) and b.symbol in ("+", "-"):
                right = f"({right})"
            return f"{left} {op} {right}"
        case App(sym, args):
            return f"{sym}({', '.join(reference_show_index(a) for a in args)})"
        case BoundedSum(binder, bound, body):
            return (f"sum({binder} < {reference_show_index(bound)}, "
                    f"{reference_show_index(body)})")
        case Forest(binder, start, count, body):
            return (f"forest({binder}, {reference_show_index(start)}, "
                    f"{reference_show_index(count)}, "
                    f"{reference_show_index(body)})")
        case Constraint(lhs, rel, rhs):
            return (f"{reference_show_index(lhs)} {rel} "
                    f"{reference_show_index(rhs)}")
        case ConstraintSet(variables, constraints):
            vs = ", ".join(variables) or "(none)"
            cs = "; ".join(map(reference_show_index, constraints)) or "(none)"
            return f"[vars {vs} | {cs}]"
        case NatI(lo, hi):
            if lo == hi or reference_alpha_eq_index(lo, hi):
                return f"Nat[{reference_show_index(lo)}]"
            return (f"Nat[{reference_show_index(lo)}, "
                    f"{reference_show_index(hi)}]")
        case LinArrow(dom, cod):
            return (f"{reference_show_index(dom)} -o "
                    f"{reference_show_index(cod)}")
        case ModalType(binder, bound, body):
            inner = reference_show_index(body)
            if isinstance(body, LinArrow):
                inner = f"({inner})"
            return f"[{binder} < {reference_show_index(bound)}] {inner}"
    raise TypeError(f"cannot print {t!r}")


def reference_eval(term, rho, program, gas):
    gas.tick()
    match term:
        case Var(name):
            if name not in rho:
                raise ValueError(f"unbound index variable {name!r}")
            return rho[name]
        case Lit(value):
            return value
        case App("+", (a, b)):
            return (reference_eval(a, rho, program, gas)
                    + reference_eval(b, rho, program, gas))
        case App("-", (a, b)):
            return max(0, reference_eval(a, rho, program, gas)
                       - reference_eval(b, rho, program, gas))
        case App("0", ()):
            return 0
        case App("1", ()):
            return 1
        case App(sym, args):
            values = [reference_eval(a, rho, program, gas) for a in args]
            return reference_apply(sym, values, program, gas)
        case BoundedSum(binder, bound, body):
            n = reference_eval(bound, rho, program, gas)
            total = 0
            inner = dict(rho)
            for v in range(n):
                gas.tick()
                inner[binder] = v
                total += reference_eval(body, inner, program, gas)
            return total
        case Forest(binder, start, count, body):
            start_v = reference_eval(start, rho, program, gas)
            count_v = reference_eval(count, rho, program, gas)
            inner = dict(rho)

            def children(pos):
                inner[binder] = pos
                return reference_eval(body, inner, program, gas)

            return reference_forest_nodes(start_v, count_v, children, gas)
    raise TypeError(f"not an index term: {term!r}")


def reference_apply(symbol, values, program, gas):
    while True:
        if symbol not in program.signature:
            raise ix.ArityError(symbol, -1, len(values))
        for rule in program.rules:
            if rule.symbol != symbol:
                continue
            binding = {}
            ok = True
            for pat, v in zip(rule.params, values):
                m = pat.match(v)
                if m is None:
                    ok = False
                    break
                binding.update(m)
            if ok:
                gas.tick()
                rhs = rule.rhs
                if (isinstance(rhs, App)
                        and rhs.symbol not in ix.BUILTIN_ARITIES):
                    gas.tick(len(rhs.args))
                    symbol = rhs.symbol
                    values = [reference_eval(a, binding, program, gas)
                              for a in rhs.args]
                    break
                return reference_eval(rhs, binding, program, gas)
        else:
            raise IndexUndefined(
                f"no rule matches {symbol}({', '.join(map(str, values))})")


def reference_forest_nodes(start, count, children, gas):
    total = 0
    pos = start
    stack = [count]
    while stack:
        c = stack.pop()
        if c == 0:
            continue
        gas.tick()
        stack.append(c - 1)
        total += 1
        stack.append(children(pos))
        pos += 1
    return total


def raised(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except (ValueError, TypeError, ix.EquationError, IndexUndefined,
            FuelExhausted) as e:
        return type(e), str(e)


# Sums, forests and applications of DIFF_PROGRAM's symbols, over the free
# variables a and x, whose binders clash with them and with one another.
syntax_terms = query_terms(("a", "x"), NAMES)
# Types with modal binders drawn from NAMES, which may shadow a or x.
syntax_types = st.integers(0, 10**6).map(
    lambda seed: gen_basic_type(random.Random(seed), ("a", "x"), 3, NAMES))
syntax = syntax_terms | syntax_types | index_terms


def alpha_variant(t):
    """`t` with every binder renamed to a fresh name, by the reference
    substitution: alpha-equal to `t`, and equal to it nowhere a binder is."""
    if isinstance(t, (Var, Lit)):
        return t
    if isinstance(t, App):
        return App(t.symbol, tuple(map(alpha_variant, t.args)))
    binder, parts = reference_node(t)
    parts = tuple(map(alpha_variant, parts))
    if binder is None:
        return type(t)(*parts)
    *outer, body = parts
    renamed = ix.fresh_name(binder + "'", reference_free_vars(t)
                            | reference_free_vars(body))
    return type(t)(renamed, *outer,
                   reference_subst_index(body, binder, Var(renamed)))


@given(syntax, syntax, names, syntax)
# the renamed outer binder's new name, b_0, is the inner binder's, which is
# renamed in turn
@example(parse_index("sum(b < 1, sum(b_0 < 1, b + b_0 + x))"), Lit(0), "x",
         Var("b"))
# ... and renamed again, away from the replacement, for the substitution
@example(parse_index("sum(b < 1, sum(b_0 < 1, b + b_0 + x))"), Lit(0), "x",
         parse_index("b + b_0_0"))
# the renaming reaches the inner sum's bound, an outer part
@example(parse_index("forest(b, x, 1, sum(b_0 < b, x - b_0))"), Lit(0), "x",
         Var("b"))
# the inner b is renamed away from b_0, which its bound is renamed to first
@example(parse_index("sum(b < 1, sum(b < b, b + x))"), Lit(0), "x", Var("b"))
@settings(max_examples=300, deadline=None)
def test_syntax_walkers_match_the_recursive_references(t, other, name, repl):
    assert ix.free_vars(t) == reference_free_vars(t)
    goal = Constraint(t, "<=", other)
    for shown in (t, goal, ConstraintSet(tuple(sorted(ix.free_vars(goal))),
                                         (goal,))):
        assert show_index(shown) == reference_show_index(shown)
    got = raised(subst_index, t, name, repl)
    assert got == raised(reference_subst_index, t, name, repl)
    assert ix.free_vars(got) == reference_free_vars(got)
    variant = alpha_variant(t)
    for a, b in ((t, other), (t, variant), (variant, t), (t, t)):
        assert ix.alpha_eq_index(a, b) == reference_alpha_eq_index(a, b)
    assert ix.alpha_eq_index(t, variant)
    record = (t, "<=", None, (other, repl))
    for signature in (DIFF_PROGRAM.signature, declare({"gt": 1, "half": 1})):
        assert (raised(ix.check_symbols, record, signature)
                == raised(reference_check_symbols, record, signature))


def rebuilt(t):
    """An equal copy of the syntax `t` made of new nodes."""
    if isinstance(t, tuple):
        return tuple(map(rebuilt, t))
    if not isinstance(t, ix._Syntax):
        return t
    return type(t)(*(rebuilt(getattr(t, f)) for f in t._fields))


def with_z(t):
    """`t` with its first field replaced, by building its class anew from
    its fields, with a value that names the variable z wherever it names
    one."""
    name, *rest = t._fields
    old = getattr(t, name)
    new = ("z" if isinstance(old, str)
           else tuple(Var("z") for _ in old) if isinstance(old, tuple)
           else 7 if isinstance(old, int) else Var("z"))
    return type(t)(new, *(getattr(t, f) for f in rest))


@given(syntax)
@settings(max_examples=300, deadline=None)
def test_free_variables_kept_on_a_node_change_nothing_else(t):
    unasked = rebuilt(t)
    want = reference_free_vars(t)
    assert ix.free_vars(t) == want
    assert ix.free_vars(t) == want
    # each node holds them, where equality, hashing and printing do not look
    assert unasked._free == want
    assert t == unasked and unasked == t
    assert hash(t) == hash(unasked) and repr(t) == repr(unasked)
    # a node made from it with one field changed gets its own
    other = with_z(t)
    assert other._free == reference_free_vars(other)
    assert ix.free_vars(other) == reference_free_vars(other)


@given(syntax, names, names.map(Var) | syntax_terms)
# the outer binder is renamed to b_0, the inner one then to b_0_0
@example(parse_index("sum(b < 1, sum(b_0 < 1, b + b_0 + x))"), "x", Var("b"))
# the renamed binder reaches the inner sum's bound, an outer part
@example(parse_index("forest(b, x, 1, sum(b_0 < b, x - b_0))"), "x",
         Var("b"))
@settings(max_examples=300, deadline=None)
def test_every_node_is_built_holding_its_free_variables(t, name, repl):
    # also the nodes `subst_index` builds, where it renames binders
    for term in (t, subst_index(t, name, repl)):
        for node, _, _ in ix.walk(term):
            if isinstance(node, ix._Syntax):
                assert node._free == reference_free_vars(node)


def test_a_constraint_asked_its_free_variables_is_still_checked_in_its_set():
    c = Constraint(Var("a"), "<", Var("b"))
    assert ix.free_vars(c) == {"a", "b"}
    ctx = ConstraintSet(("a",))
    for make in (lambda: ctx.extend(None, c),
                 lambda: ConstraintSet(("a",), (c,))):
        with pytest.raises(ValueError,
                           match=r"undeclared variables \['b'\]"):
            make()
    assert ctx.extend("b", c).constraints == (c,)


EVAL_CAP = 200


# At the top, often a symbol whose rules rewrite to a defined symbol.
eval_terms = (st.builds(lambda f, x, y: App(f, (x, y)),
                        st.sampled_from(("gt", "add", "mult")),
                        syntax_terms, syntax_terms)
              | syntax_terms | index_terms)


@given(eval_terms,
       st.fixed_dictionaries({"a": st.integers(0, 3), "x": st.integers(0, 3)})
       | st.just({}))
@example(parse_index("mult(2, 3)"), {})
@example(parse_index("forest(a, x, 2, half(a))"), {"a": 0, "x": 2})
@example(parse_index("sum(a < x, a + y)"), {"a": 0, "x": 2})
@example(BoundedSum("a", Lit(1), App("+", (Lit(1),))), {})
@example(App("nosuch", (Lit(1),)), {})
@example(Constraint(Lit(0), "<", Lit(1)), {})
@settings(max_examples=150, deadline=None)
def test_the_evaluator_loop_matches_the_recursive_evaluator(term, rho):
    # at every budget from 1 to one more than the evaluation costs, or to
    # EVAL_CAP: the same value or exception
    gas = Fuel(EVAL_CAP)
    want = raised(reference_eval, term, rho, DIFF_PROGRAM, gas)
    cost = EVAL_CAP - max(gas.remaining, 0)
    for budget in range(1, cost + 2):
        assert (raised(ix._eval, term, rho, DIFF_PROGRAM, budget)
                == raised(reference_eval, term, rho, DIFF_PROGRAM,
                          Fuel(budget)))
    # where the reference returns, the loop returns at exactly its ticks
    # and runs out at one fewer
    if isinstance(want, int):
        assert ix._eval(term, rho, DIFF_PROGRAM, cost) == want
        with pytest.raises(FuelExhausted) as err:
            ix._eval(term, rho, DIFF_PROGRAM, cost - 1)
        assert err.value.budget == cost - 1


@given(st.lists(st.tuples(eval_terms,
                          st.fixed_dictionaries({"a": st.integers(0, 3),
                                                 "x": st.integers(0, 3)})
                          | st.just({})),
                min_size=1, max_size=3))
# half(3) is recorded inside half(5), which is undefined and recorded
# nowhere, and is then found inside half(7)
@example([(half(Lit(5)), {}), (half(Lit(7)), {})])
# mult(2, 3) is recorded and then found under a sum that runs out before or
# after it; loop(1) runs out at every budget
@example([(parse_index("mult(2, 3)"), {}),
          (parse_index("sum(a < 2, mult(2, 3) + loop(a))"), {})])
@example([(parse_index("add(x, mult(x, 2)) + half(a + 1)"), {"a": 2, "x": 3})])
@settings(max_examples=100, deadline=None)
def test_a_shared_rewrite_table_changes_no_result_and_no_fuel(pairs):
    # every pair at every budget from 1 to one more than it costs, twice,
    # so the second time below the ticks the first recorded: the same value
    # or exception as the recursive evaluator, which has no table
    table = {}
    for term, rho in pairs + pairs:
        gas = Fuel(EVAL_CAP)
        want = raised(reference_eval, term, rho, DIFF_PROGRAM, gas)
        cost = EVAL_CAP - max(gas.remaining, 0)
        for budget in range(1, cost + 2):
            assert (raised(ix._eval, term, rho, DIFF_PROGRAM, budget, table)
                    == raised(reference_eval, term, rho, DIFF_PROGRAM,
                              Fuel(budget)))
        if isinstance(want, int):
            assert ix._eval(term, rho, DIFF_PROGRAM, cost, table) == want
            with pytest.raises(FuelExhausted):
                ix._eval(term, rho, DIFF_PROGRAM, cost - 1, table)


@given(query_terms(("x",), NAMES), st.integers(0, 10**3),
       st.integers(1, DIFF_FUEL))
@example(parse_index("mult(x, x) + sum(x < x, half(x))"), 400, DIFF_FUEL)
@settings(max_examples=200, deadline=None)
def test_a_term_at_an_instance_evaluates_as_the_instance(t, n, fuel):
    # [[t]]{x: n} = [[t[x := n]]]{}, at the same fuel: a variable and a
    # numeral each cost one tick.  With a rewrite table shared by both
    # sides, twice, the same again.
    instance = subst_index(t, "x", Lit(n))
    want = raised(eval_index, instance, {}, DIFF_PROGRAM, fuel)
    assert raised(eval_index, t, {"x": n}, DIFF_PROGRAM, fuel) == want
    table = {}
    for _ in range(2):
        assert raised(eval_index, t, {"x": n}, DIFF_PROGRAM, fuel,
                      table) == want
        assert raised(eval_index, instance, {}, DIFF_PROGRAM, fuel,
                      table) == want


def test_a_recorded_call_is_answered_without_rewriting(monkeypatch):
    rewritten = []
    real = ix._rewrite
    monkeypatch.setattr(ix, "_rewrite",
                        lambda *args: rewritten.append(args[0]) or real(*args))
    table = {}

    def run(text, fuel):
        rewritten.clear()
        return (raised(ix._eval, parse_index(text), {}, DIFF_PROGRAM, fuel,
                       table), len(rewritten))

    def cost(text):
        gas = Fuel(EVAL_CAP)
        raised(reference_eval, parse_index(text), {}, DIFF_PROGRAM, gas)
        return EVAL_CAP - gas.remaining

    def exhausted(fuel):
        return FuelExhausted, f"fuel exhausted (budget {fuel})"

    # a call that came to a value: answered at its ticks, and out of fuel
    # one below them
    k = cost("mult(2, 3)")
    assert run("mult(2, 3)", k)[0] == 6
    assert run("mult(2, 3)", k) == (6, 0)
    assert run("mult(2, 3)", k - 1) == (exhausted(k - 1), 0)
    # gt's self-calls are in tail position: only the outer one is kept
    assert run("gt(3, 2)", cost("gt(3, 2)")) == (1, 3)
    assert [key for key in table if key[0] == "gt"] == [("gt", 3, 2)]
    # undefined or out of fuel: not kept, so rewritten again
    undefined = IndexUndefined, "no rule matches half(1)"
    assert run("half(3)", cost("half(3)")) == (undefined, 2)
    assert run("half(3)", cost("half(3)")) == (undefined, 2)
    assert run("loop(1)", 50)[1] == run("loop(1)", 50)[1] > 0
    assert not [key for key in table if key[0] in ("half", "loop")]


DEPTH = 5000


def deep_terms(binder="a"):
    """A `+` chain over a, sums over x and forests, each DEPTH deep, the
    sums and forests binding `binder` at every level."""
    plus, sums, forests = Var("a"), Var("x"), Lit(1)
    for _ in range(DEPTH):
        plus = ix.add(plus, Lit(1))
        sums = BoundedSum(binder, Lit(1), ix.add(sums, Var(binder)))
        forests = Forest(binder, Lit(0), Lit(1), ix.monus(forests, Lit(1)))
    return plus, sums, forests


def test_the_walkers_and_the_evaluator_handle_terms_5000_deep():
    plus, sums, forests = deep_terms()
    texts = ("a" + " + 1" * DEPTH,
             "sum(a < 1, " * DEPTH + "x" + " + a)" * DEPTH,
             "forest(a, 0, 1, " * DEPTH + "1" + " - 1)" * DEPTH)
    for term, text, free, value in zip(deep_terms(), texts, ("a", "x", ""),
                                       (2 + DEPTH, 7, 1)):
        assert show_index(term) == text
        assert ix.free_vars(term) == frozenset(free)
        assert eval_index(term, {"a": 2, "x": 7}, ix.EMPTY_PROGRAM) == value
        ix.check_symbols(term, ix.EMPTY_PROGRAM.signature)
        with pytest.raises(ix.ArityError, match="'zap'"):
            ix.check_symbols((term, App("zap", ())),
                             ix.EMPTY_PROGRAM.signature)
        # a is bound in the sums and the forests, x only free in the sums
        for name in ("a", "x"):
            got = show_index(subst_index(term, name, Var("y")))
            assert got == (text.replace(name, "y") if name == free else text)
        assert ix.alpha_eq_index(term, subst_index(term, "y", Lit(0)))
    for term, variant in zip((sums, forests), deep_terms("b")[1:]):
        assert ix.alpha_eq_index(term, variant)
    # a type of DEPTH nested arrows prints, as index syntax does
    arrows = NatI(Lit(0), Lit(0))
    for _ in range(DEPTH):
        arrows = LinArrow(ModalType("a", Lit(1), NatI(Var("a"), Lit(1))),
                          arrows)
    assert show_index(arrows) == "[a < 1] Nat[a, 1] -o " * DEPTH + "Nat[0]"
    assert not ix.alpha_eq_index(plus, subst_index(plus, "a", Var("b")))
    assert not ix.alpha_eq_index(sums, subst_index(sums, "x", Var("y")))
    # a node hashes by identity, so the oracle's tables take a weight of
    # 5,000 terms
    assert hash(plus) == hash(plus) and plus in {plus: 0}
    # equal chains built apart are one object, so `==` does not recurse
    again = deep_terms()
    assert again[0] == plus and again[1] == sums and again[2] == forests
    weight = Constraint(plus, "<=", ix.add(plus, Var("a")))
    assert (entails(ConstraintSet(("a",)), weight,
                    Oracle(ix.EMPTY_PROGRAM, bound=4)) == Verified(4))


def test_subst_index_renames_at_every_level_of_a_deep_term():
    # x := a under 2,000 sums that each bind a: every binder is renamed to
    # a_0.  Reading the free variables each form holds takes a fraction of
    # a second; recomputing them at each binder took seconds.
    depth = 2000
    sums = Var("x")
    for _ in range(depth):
        sums = BoundedSum("a", Lit(1), ix.add(sums, Var("a")))
    started = time.monotonic()
    got = subst_index(sums, "x", Var("a"))
    elapsed = time.monotonic() - started
    assert show_index(got) == ("sum(a_0 < 1, " * depth + "a"
                               + " + a_0)" * depth)
    assert elapsed < 2.0


CNT = parse_equations("cnt(0) = 0\ncnt(a+1) = cnt(a) + 1")


def test_deep_non_tail_rewriting_runs_out_of_fuel_only():
    term = parse_index("cnt(5000)")
    assert eval_index(term, {}, CNT, 10**6) == 5000
    with pytest.raises(FuelExhausted,
                       match=r"^fuel exhausted \(budget 3000\)$"):
        eval_index(term, {}, CNT, 3000)
