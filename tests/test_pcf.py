import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dlpcf import pcf
from dlpcf.fuel import DEFAULT_FUEL, Fuel, FuelExhausted
from dlpcf.pcf import (NAT, App, Arrow, Const, Fix, IfZ, Lam, PcfSyntaxError,
                       PcfTypeError, Pred, StuckTerm, Succ, TVar,
                       max_free_index, parse_term, pcf_typecheck, shift, size,
                       subst, subterm_sizes, wh_eval, wh_step)

from genterms import gen_nat_term
from test_machine import CORPUS


DBL_TEXT = r"fix f. \x. ifz x then 0 else s(s(f (p x)))"
DBL = Fix(Lam(IfZ(TVar(0), Const(0), Succ(Succ(App(TVar(1), Pred(TVar(0))))))))


# ---------------------------------------------------------------------------
# Parsing

def test_parse_dbl_shape():
    assert parse_term(DBL_TEXT) == DBL


def test_parse_identity():
    assert parse_term(r"\x. x") == Lam(TVar(0))


def test_unbound_identifier_has_position():
    with pytest.raises(PcfSyntaxError) as err:
        parse_term("x")
    assert "unbound identifier 'x'" in str(err.value)
    assert err.value.line == 1


def test_alpha_equivalent_inputs_parse_identically():
    assert parse_term(r"\x. \y. x y") == parse_term(r"\u. \v. u v")


def test_shadowing_resolves_to_innermost():
    assert parse_term(r"\x. \x. x") == Lam(Lam(TVar(0)))


def test_application_is_left_associative():
    assert parse_term(r"\f. \x. f x x") == Lam(Lam(App(App(TVar(1), TVar(0)),
                                                       TVar(0))))


def test_s_p_take_the_next_atom():
    assert parse_term("p 3") == Pred(Const(3))
    assert parse_term("s(s 0)") == Succ(Succ(Const(0)))


def test_annotations_survive_parsing():
    t = parse_term(r"\x: Nat -> Nat. x")
    assert isinstance(t, Lam) and t.ann == Arrow(NAT, NAT)
    # annotations are invisible to equality
    assert t == Lam(TVar(0))


def test_syntax_error_position():
    with pytest.raises(PcfSyntaxError) as err:
        parse_term("ifz 0 then 1")
    assert "end of input" in str(err.value)


# ---------------------------------------------------------------------------
# Size

def test_size_clauses():
    assert size(Const(0)) == 1
    assert size(Const(2**30)) == 1
    assert size(TVar(0)) == 1
    assert size(Succ(Const(0))) == 3
    assert size(Pred(Const(0))) == 3
    assert size(Lam(TVar(0))) == 2
    assert size(Fix(TVar(0))) == 2
    assert size(App(Lam(TVar(0)), Const(1))) == 4
    assert size(IfZ(Const(0), Const(1), Const(2))) == 4
    assert size(DBL) == 14


def _subterms(t):
    yield t
    match t:
        case Succ(b) | Pred(b) | Lam(b) | Fix(b):
            yield from _subterms(b)
        case App(f, a):
            yield from _subterms(f)
            yield from _subterms(a)
        case IfZ(s, z, u):
            yield from _subterms(s)
            yield from _subterms(z)
            yield from _subterms(u)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_subterm_size_bounded(seed):
    t = gen_nat_term(random.Random(seed), (), 4)
    whole = size(t)
    assert all(size(u) <= whole for u in _subterms(t))


# ---------------------------------------------------------------------------
# Simple typing

def test_dbl_typechecks(dbl_term):
    assert pcf_typecheck((), dbl_term) == Arrow(NAT, NAT)


def test_constant_types():
    assert pcf_typecheck((), Const(5)) == NAT


def test_ill_typed_application():
    with pytest.raises(PcfTypeError):
        pcf_typecheck((), App(Const(0), Const(0)))


def test_type_errors_name_the_subterm():
    t = parse_term(r"\x: Nat. ifz x then 0 else (\z: Nat. z)")
    with pytest.raises(PcfTypeError) as err:
        pcf_typecheck((), t)
    assert "branches disagree" in str(err.value)
    assert "in the body" in str(err.value)


def test_missing_annotation_is_an_error():
    with pytest.raises(PcfTypeError):
        pcf_typecheck((), parse_term(r"\x. x"))


def test_fix_annotation_must_match():
    with pytest.raises(PcfTypeError):
        pcf_typecheck((), parse_term(r"fix f: Nat -> Nat. 0"))


def test_branch_types_must_agree():
    bad = IfZ(Const(0), Const(1), Lam(TVar(0), NAT))
    with pytest.raises(PcfTypeError):
        pcf_typecheck((), bad)


# ---------------------------------------------------------------------------
# Weak-head reduction

def test_pred_of_zero_steps_to_zero():
    assert wh_step(Pred(Const(0))) == Const(0)


def test_ifz_on_successor_takes_the_second_branch():
    u, v = Const(10), Const(20)
    assert wh_step(IfZ(Const(3), u, v)) == v
    assert wh_step(IfZ(Const(0), u, v)) == u


def test_numerals_and_lambdas_are_normal():
    assert wh_step(Const(7)) is None
    assert wh_step(Lam(TVar(0))) is None


def test_fix_unfolds():
    t = Fix(Lam(TVar(1)))
    assert wh_step(t) == Lam(Fix(Lam(TVar(1))))


def test_beta_substitutes():
    assert wh_step(App(Lam(Succ(TVar(0))), Const(1))) == Succ(Const(1))


def test_reduction_under_contexts():
    t = Succ(Pred(Const(0)))
    assert wh_step(t) == Succ(Const(0))


def test_stuck_on_ill_typed_head():
    with pytest.raises(StuckTerm):
        wh_step(App(Const(0), Const(0)))
    with pytest.raises(StuckTerm):
        wh_step(Succ(Lam(TVar(0))))


def test_wh_eval_succ():
    assert wh_eval(Succ(Const(0))) == (1, 1)


def test_wh_eval_dbl(dbl_term):
    value, steps = wh_eval(App(dbl_term, Const(3)))
    assert value == 6 and steps > 0


def test_wh_eval_omega_diverges(omega_term):
    with pytest.raises(FuelExhausted):
        wh_eval(App(omega_term, Const(1)), fuel=20000)


# ---------------------------------------------------------------------------
# The refocusing reducer against its one-step specification

def reference_wh_eval(t, fuel=DEFAULT_FUEL):
    """`wh_eval` as it was before refocusing: `wh_step` iterated from the
    root, one fuel tick per step."""
    gas = Fuel(fuel)
    steps = 0
    current = t
    while True:
        if isinstance(current, Const):
            return current.value, steps
        gas.tick()
        nxt = wh_step(current)
        if nxt is None:
            raise StuckTerm("normal form is not a numeral")
        current = nxt
        steps += 1


def outcome(evaluate, t, fuel):
    """(value, steps), or the type and message of the exception raised."""
    try:
        return evaluate(t, fuel)
    except (StuckTerm, FuelExhausted) as e:
        return type(e), str(e)


def assert_refocusing_matches(t, fuel=DEFAULT_FUEL):
    got = outcome(wh_eval, t, fuel)
    assert got == outcome(reference_wh_eval, t, fuel), pcf.show_term(t)
    if isinstance(got[0], int) and got[1] > 0:
        steps = got[1]
        assert wh_eval(t, fuel=steps) == got
        if steps > 1:
            with pytest.raises(FuelExhausted) as err:
                wh_eval(t, fuel=steps - 1)
            assert err.value.budget == steps - 1


# Normal forms in every frame, free variables, and divergence.
STUCK_OR_DIVERGENT = [
    Lam(TVar(0)),
    TVar(0),
    App(Const(0), Const(1)),
    Succ(Lam(TVar(0))),
    Pred(Succ(Lam(TVar(0)))),
    IfZ(Lam(TVar(0)), Const(1), Const(2)),
    Succ(IfZ(Const(0), TVar(3), Const(2))),
    App(Lam(Succ(TVar(0))), Lam(TVar(0))),
    App(App(Lam(Lam(TVar(1))), Const(4)), Const(5)),
    Fix(TVar(0)),
    Succ(Fix(Succ(TVar(0)))),
]


def test_refocusing_matches_iterated_wh_step_on_the_corpus():
    for t, _ in CORPUS:
        assert_refocusing_matches(t)
    for t in STUCK_OR_DIVERGENT:
        assert_refocusing_matches(t, fuel=500)
        for fuel in range(1, 6):
            assert outcome(wh_eval, t, fuel) == outcome(reference_wh_eval, t,
                                                        fuel)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_refocusing_matches_iterated_wh_step_on_generated_terms(seed):
    assert_refocusing_matches(gen_nat_term(random.Random(seed), (), 5))


def test_wh_eval_on_constructed_chains_1100_deep():
    succs, preds, ifzs = Const(0), Const(0), Const(0)
    for _ in range(1100):
        succs = Succ(succs)
        preds = Pred(preds)
        ifzs = IfZ(ifzs, Const(1), Const(0))
    assert wh_eval(succs, fuel=10**8) == (1100, 1100)
    assert wh_eval(preds, fuel=10**8) == (0, 1100)
    # the innermost test picks 1, the next 0, and so on: 1,100 is even
    assert wh_eval(ifzs, fuel=10**8) == (0, 1100)


def test_capture_avoidance_in_beta():
    # (\x. \y. x) y-free-term keeps the argument out of the inner binder
    const_fn = parse_term(r"(\x. \y. x) 1")
    t = wh_step(const_fn)
    assert t == Lam(Const(1))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_subject_reduction_fuzz(seed):
    t = gen_nat_term(random.Random(seed), (), 4)
    assert pcf_typecheck((), t) == NAT
    for _ in range(60):
        nxt = wh_step(t)
        if nxt is None:
            assert isinstance(t, Const)
            break
        t = nxt
        assert pcf_typecheck((), t) == NAT


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_wh_step_deterministic(seed):
    t = gen_nat_term(random.Random(seed), (), 4)
    assert wh_step(t) == wh_step(t)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_show_parse_roundtrip(seed):
    t = gen_nat_term(random.Random(seed), (), 4)
    assert parse_term(pcf.show_term(t)) == t


# ---------------------------------------------------------------------------
# Structural walkers
#
# Recursive copies of `size`, `max_free_index`, `shift` and `subst` as they
# were before the subterm table and its iterative walkers replaced them:
# the walkers must agree with them wherever these do not run out of stack.


def reference_max_free_index(t, depth=0):
    match t:
        case TVar(k):
            return k - depth if k >= depth else -1
        case Const():
            return -1
        case Succ(b) | Pred(b):
            return reference_max_free_index(b, depth)
        case Lam(b) | Fix(b):
            return reference_max_free_index(b, depth + 1)
        case App(f, a):
            return max(reference_max_free_index(f, depth),
                       reference_max_free_index(a, depth))
        case IfZ(s, z, u):
            return max(reference_max_free_index(s, depth),
                       reference_max_free_index(z, depth),
                       reference_max_free_index(u, depth))


def reference_size(t):
    match t:
        case TVar() | Const():
            return 1
        case Succ(b) | Pred(b):
            return reference_size(b) + 2
        case Lam(b) | Fix(b):
            return reference_size(b) + 1
        case App(f, a):
            return reference_size(f) + reference_size(a) + 1
        case IfZ(s, z, u):
            return (reference_size(s) + reference_size(z)
                    + reference_size(u) + 1)


def reference_shift(t, by, cutoff=0):
    match t:
        case TVar(k):
            return TVar(k + by) if k >= cutoff else t
        case Const():
            return t
        case Succ(b):
            return Succ(reference_shift(b, by, cutoff))
        case Pred(b):
            return Pred(reference_shift(b, by, cutoff))
        case Lam(b, ann):
            return Lam(reference_shift(b, by, cutoff + 1), ann)
        case App(f, a):
            return App(reference_shift(f, by, cutoff),
                       reference_shift(a, by, cutoff))
        case IfZ(s, z, u):
            return IfZ(reference_shift(s, by, cutoff),
                       reference_shift(z, by, cutoff),
                       reference_shift(u, by, cutoff))
        case Fix(b, ann):
            return Fix(reference_shift(b, by, cutoff + 1), ann)


def reference_subst(t, repl, j=0):
    match t:
        case TVar(k):
            if k == j:
                return repl
            return TVar(k - 1) if k > j else t
        case Const():
            return t
        case Succ(b):
            return Succ(reference_subst(b, repl, j))
        case Pred(b):
            return Pred(reference_subst(b, repl, j))
        case Lam(b, ann):
            return Lam(reference_subst(b, reference_shift(repl, 1), j + 1), ann)
        case App(f, a):
            return App(reference_subst(f, repl, j), reference_subst(a, repl, j))
        case IfZ(s, z, u):
            return IfZ(reference_subst(s, repl, j), reference_subst(z, repl, j),
                       reference_subst(u, repl, j))
        case Fix(b, ann):
            return Fix(reference_subst(b, reference_shift(repl, 1), j + 1), ann)


def annotations(t):
    """The binder annotations of `t` in pre-order: equality ignores them."""
    return [u.ann for u in _subterms(t) if isinstance(u, (Lam, Fix))]


# Open terms: free variables at several binder depths, annotated binders.
open_terms = st.recursive(
    st.builds(TVar, st.integers(0, 4)) | st.builds(Const, st.integers(0, 3)),
    lambda sub: (st.builds(Succ, sub) | st.builds(Pred, sub)
                 | st.builds(Lam, sub, st.sampled_from([None, NAT,
                                                        Arrow(NAT, NAT)]))
                 | st.builds(Fix, sub, st.sampled_from([None, NAT]))
                 | st.builds(App, sub, sub) | st.builds(IfZ, sub, sub, sub)),
    max_leaves=12)


@given(open_terms, st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_refocusing_matches_iterated_wh_step_on_open_terms(t, fuel):
    # untyped and open: every StuckTerm message, and fuel running out
    # before, at and after a stuck step
    assert outcome(wh_eval, t, fuel) == outcome(reference_wh_eval, t, fuel)


@given(open_terms, open_terms, st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
# both occurrences of the free variable get the annotated replacement
@example(Lam(App(TVar(1), Fix(TVar(2), NAT)), Arrow(NAT, NAT)),
         Lam(TVar(0), NAT), 2, 0, 0)
@settings(max_examples=200, deadline=None)
def test_walkers_match_the_recursive_references(t, repl, by, cutoff, j):
    assert size(t) == reference_size(t)
    sizes = subterm_sizes(t)
    assert all(sizes[id(u)] == reference_size(u) for u in _subterms(t))
    assert max_free_index(t) == reference_max_free_index(t)
    assert max_free_index(t, cutoff) == reference_max_free_index(t, cutoff)
    for got, want in ((shift(t, by, cutoff), reference_shift(t, by, cutoff)),
                      (subst(t, repl, j), reference_subst(t, repl, j))):
        assert got == want
        assert annotations(got) == annotations(want)


def nested_succ(depth, inner=Const(0)):
    t = inner
    for _ in range(depth):
        t = Succ(t)
    return t


def same_term(a, b):
    """Structural equality without recursion, for terms too deep for `==`."""
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (TVar, Const)):
            if x != y:
                return False
        else:
            pairs.extend(zip(pcf.subterms(x), pcf.subterms(y)))
    return True


def test_walkers_handle_a_term_5000_deep():
    t = nested_succ(5000)
    assert size(t) == subterm_sizes(t)[id(t)] == 10001
    assert max_free_index(t) == -1
    assert same_term(shift(t, 1), t)
    assert same_term(subst(t, Const(7)), t)
    opened = nested_succ(5000, TVar(0))
    assert max_free_index(opened) == 0
    assert same_term(shift(opened, 3), nested_succ(5000, TVar(3)))
    assert same_term(subst(opened, Const(7)), nested_succ(5000, Const(7)))
