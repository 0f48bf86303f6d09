import random

import pytest

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


def test_alpha_eq_on_binders():
    a = parse_index("sum(x < 3, x + c)")
    b = parse_index("sum(y < 3, y + c)")
    c = parse_index("sum(y < 3, y + y)")
    assert ix.alpha_eq_index(a, b)
    assert not ix.alpha_eq_index(a, c)


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


def test_duplicate_constraint_variable_rejected():
    with pytest.raises(ValueError):
        ConstraintSet(("a", "a"), ())


def test_index_parser_rejects_trailing_tokens():
    with pytest.raises(ix.IndexSyntaxError):
        parse_index("a + 1 b")
    with pytest.raises(ix.IndexSyntaxError):
        parse_index("sum(a < 3)")
