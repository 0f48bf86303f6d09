import itertools
import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dlpcf import index as ix
from dlpcf.fuel import FuelExhausted
from dlpcf.index import (App, BoundedSum, Constraint, ConstraintSet, Defined,
                         EMPTY_CTX, Forest, IndexUndefined, Lit, NatPattern,
                         NonLinearPattern, OverlapError, Refuted, Rule,
                         UnboundRhsVar, Var, Verified, declare, entails,
                         eval_index, parse_equations, parse_index,
                         register_program, show_index, subst_index)

from genterms import table_program


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


# ---------------------------------------------------------------------------
# Entailment

def test_entails_trivial(arith):
    v = entails(EMPTY_CTX, Constraint(Lit(0), "<=", Lit(1)), arith)
    assert isinstance(v, Verified)


def test_entails_vacuous_on_inconsistent_constraints(arith):
    ctx = ConstraintSet(("a",), (Constraint(Var("a"), "<", Lit(0)),))
    v = entails(ctx, Constraint(Lit(1), "<=", Lit(0)), arith)
    assert isinstance(v, Verified)


def test_entails_refutes_with_least_witness(arith):
    ctx = ConstraintSet(("a",), ())
    v = entails(ctx, Constraint(ix.add(Var("a"), Lit(1)), "<=", Var("a")),
                arith)
    assert v == Refuted((("a", 0),))


def test_entails_shifted_forest_lemma_instance(arith):
    # forest(a, i+j, k, H) ~ forest(a, j, k, H[a := a+i]) at i=2, j=1, k=2
    rng = random.Random(7)
    program, body = table_program(rng)
    lhs = Forest("a", Lit(3), Lit(2), body)
    rhs = Forest("a", Lit(1), Lit(2), subst_index(body, "a",
                                                  ix.add(Var("a"), Lit(2))))
    v = entails(EMPTY_CTX, Constraint(lhs, "~", rhs), program, bound=8)
    assert isinstance(v, Verified)


def test_entails_definedness_goal(arith):
    undef = register_program([], declare({"undef": 0}))
    v = entails(EMPTY_CTX, Defined(App("undef", ())), undef)
    assert isinstance(v, Refuted)
    v = entails(EMPTY_CTX, Defined(Lit(3)), arith)
    assert isinstance(v, Verified)


def test_entails_kleene_equality_of_undefined_sides():
    half = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    both = Constraint(App("half", (Lit(3),)), "~", App("half", (Lit(5),)))
    assert isinstance(entails(EMPTY_CTX, both, half), Verified)
    mixed = Constraint(App("half", (Lit(3),)), "~", App("half", (Lit(4),)))
    assert isinstance(entails(EMPTY_CTX, mixed, half), Refuted)


def test_entails_undefined_goal_side_refutes():
    half = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    goal = Constraint(App("half", (Lit(3),)), "<=", Lit(9))
    assert isinstance(entails(EMPTY_CTX, goal, half), Refuted)


def test_entails_undefined_constraint_side_excludes_assignment():
    half = parse_equations("half(0) = 0\nhalf(a+1+1) = half(a) + 1")
    # half(a) only constrains even a; at odd a the constraint is false
    ctx = ConstraintSet(("a",), (Constraint(App("half", (Var("a"),)), "<=",
                                            Lit(9)),))
    goal = Constraint(App("half", (Var("a"),)), "<=", Var("a"))
    assert isinstance(entails(ctx, goal, half), Verified)


def test_entails_fuel_exhaustion_is_unknown():
    loop = parse_equations("loop(a) = loop(a + 1)")
    goal = Constraint(App("loop", (Lit(0),)), "<=", Lit(1))
    v = entails(EMPTY_CTX, goal, loop, fuel=2000)
    assert isinstance(v, ix.Unknown)
    assert v.reason == "fuel-exhausted"


def test_fuel_exhausted_constraint_makes_entailment_unknown():
    # the constraint's truth is not known at any a, so the goal was never
    # checked and may not be reported Verified
    loop = parse_equations("loop(a) = loop(a)")
    runs_out = Constraint(App("loop", (Var("a"),)), "<=", Lit(0))
    ctx = ConstraintSet(("a",), (runs_out,))
    goal = Constraint(Lit(1), "<=", Lit(0))
    v = entails(ctx, goal, loop, bound=3, fuel=1000)
    assert v == ix.Unknown("fuel-exhausted", (("a", 0),))
    # a later constraint that is false everywhere still rules every a out
    never = ctx.extend(None, Constraint(Var("a"), "<", Lit(0)))
    assert entails(never, goal, loop, bound=3, fuel=1000) == Verified(3)


def test_a_closed_false_constraint_prunes_every_assignment(monkeypatch):
    calls = []
    real = ix.eval_index
    monkeypatch.setattr(ix, "eval_index",
                        lambda *args: calls.append(args) or real(*args))
    ctx = ConstraintSet(("a", "b", "c"), (Constraint(Lit(1), "<=", Lit(0)),))
    goal = Constraint(Var("a"), "<", Var("b"))
    assert entails(ctx, goal, ix.EMPTY_PROGRAM, bound=4) == Verified(4)
    # the constraint's two sides, once, and no assignment beyond
    assert len(calls) == 2


# The full enumeration `entails` used before constraints pruned it: every
# point of {0..bound}^k in lexicographic order, then filtered.  The pruned
# enumerator must give exactly its verdicts, witnesses and reasons.

def reference_satisfies(ctx, rho, program, fuel):
    out = True
    for c in ctx.constraints:
        tl, vl = ix._outcome(c.lhs, rho, program, fuel)
        if tl == ix._UNDEF:
            return False
        tr, vr = ix._outcome(c.rhs, rho, program, fuel)
        if tr == ix._UNDEF:
            return False
        if ix._FUEL in (tl, tr):
            out = None
        elif not ix._related(c.rel, vl, vr):
            return False
    return out


def reference_entails(ctx, goal, program, bound, fuel):
    unknown = None
    for values in itertools.product(range(bound + 1),
                                    repeat=len(ctx.variables)):
        rho = dict(zip(ctx.variables, values))
        satisfied = reference_satisfies(ctx, rho, program, fuel)
        if satisfied is False:
            continue
        verdict = (ix._goal_at(goal, rho, program, fuel) if satisfied
                   else ix.Unknown("fuel-exhausted", tuple(sorted(rho.items()))))
        if isinstance(verdict, Refuted):
            return verdict
        if isinstance(verdict, ix.Unknown) and unknown is None:
            unknown = verdict
    return unknown if unknown is not None else Verified(bound)


# arith's symbols, one undefined at odd arguments and one that never
# terminates; the small fuel also runs out on some large products.
DIFF_PROGRAM = parse_equations(
    (pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "arith.eqs")
    .read_text() + "half(0) = 0\nhalf(a+1+1) = half(a) + 1\nloop(a) = loop(a)\n")
DIFF_FUEL = 200


@st.composite
def entailment_queries(draw):
    k = draw(st.integers(0, 3))
    variables = tuple(draw(st.permutations(("a", "b", "c")))[:k])
    leaves = st.integers(0, 3).map(Lit)
    if variables:
        leaves = leaves | st.sampled_from(variables).map(Var)
    terms = st.recursive(leaves, lambda sub: st.one_of(
        st.builds(ix.add, sub, sub), st.builds(ix.monus, sub, sub),
        st.builds(lambda f, x, y: App(f, (x, y)),
                  st.sampled_from(("gt", "add", "mult")), sub, sub),
        st.builds(lambda f, x: App(f, (x,)),
                  st.sampled_from(("half", "loop")), sub)),
        max_leaves=5)
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
    want = reference_entails(ctx, goal, DIFF_PROGRAM, bound, DIFF_FUEL)
    assert entails(ctx, goal, DIFF_PROGRAM, bound, DIFF_FUEL) == want
    with ix.entails_memo(DIFF_PROGRAM, bound, DIFF_FUEL):
        # the first call fills the memo, the second is answered from it
        assert entails(ctx, goal, DIFF_PROGRAM, bound, DIFF_FUEL) == want
        assert entails(ctx, goal, DIFF_PROGRAM, bound, DIFF_FUEL) == want


def test_fresh_name_depends_only_on_its_arguments():
    avoid = frozenset({"a", "a_0"})
    assert ix.fresh_name("a", avoid) == "a_1"
    assert ix.fresh_name("a", avoid) == "a_1"


def test_entails_rejects_stray_goal_variables(arith):
    with pytest.raises(ValueError):
        entails(EMPTY_CTX, Constraint(Var("a"), "<=", Lit(1)), arith)


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
