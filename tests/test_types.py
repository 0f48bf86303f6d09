import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dlpcf import index as ix
from dlpcf import pcf
from dlpcf.index import (App, BoundedSum, ConstraintSet, EMPTY_CTX, Forest,
                         Lit, Oracle, Refuted, Unknown, Var, Verified,
                         alpha_eq_index, declare, free_vars, parse_index,
                         register_program, show_index, subst_index)
from dlpcf.types import (BoundedSumWitness, LinArrow, ModalType, NatI,
                         ShapeMismatch, SumWitness, bounded_sum_modal, equiv,
                         erase, parse_basic_type, parse_modal_type, subtype,
                         sum_modal, well_defined)

from genterms import gen_basic_type, widen


def B(text):
    return parse_basic_type(text)


def M(text):
    return parse_modal_type(text)


CTX_A = ConstraintSet(("a",), ())


# ---------------------------------------------------------------------------
# Syntax and erasure

def test_parse_show_roundtrip():
    assert show_index(B("Nat[3,3]")) == "Nat[3]"
    arrow = B("[a < 5] Nat[a] -o Nat[0]")
    assert isinstance(arrow, LinArrow)
    assert alpha_eq_index(B(show_index(arrow)), arrow)
    nested = M("[v < 2] ([c < a] Nat[c] -o Nat[a])")
    assert alpha_eq_index(M(show_index(nested)), nested)


def test_interval_sugar():
    assert B("Nat[a]") == NatI(Var("a"), Var("a"))


def test_modal_bound_cannot_mention_binder():
    with pytest.raises(ValueError):
        ModalType("a", Var("a"), NatI(Lit(0), Lit(0)))


def test_erase_examples():
    assert erase(B("Nat[a, 2 + a]")) == pcf.NAT
    assert erase(B("[a < 5] Nat[a] -o Nat[0]")) == pcf.Arrow(pcf.NAT, pcf.NAT)
    nested = B("[q < 1] ([r < 2] Nat[0] -o Nat[0]) -o Nat[3]")
    assert erase(nested) == pcf.Arrow(pcf.Arrow(pcf.NAT, pcf.NAT), pcf.NAT)


def test_alpha_eq_type_on_binders():
    assert alpha_eq_index(M("[a < 3] Nat[a]"), M("[b < 3] Nat[b]"))
    assert not alpha_eq_index(M("[a < 3] Nat[a]"), M("[b < 3] Nat[1]"))


def test_subst_type_capture_avoiding():
    t = B("[c < a] Nat[c + a] -o Nat[a]")
    got = subst_index(t, "a", parse_index("c + 1"))
    # the bound c must be renamed away from the free c being substituted in
    assert isinstance(got, LinArrow)
    assert got.dom.binder != "c"
    assert ix.alpha_eq_index(got.dom.bound, parse_index("c + 1"))


def test_subst_type_renames_binder_captured_in_bound():
    # x := b lands in the bound only, beside a binder also named b
    got = subst_index(M("[b < x] Nat[b]"), "x", Var("b"))
    assert alpha_eq_index(got, M("[b_0 < b] Nat[b_0]"))


def test_renamed_binder_avoids_the_free_variables_of_its_bound():
    # x := b renames the binder b, and b_0 is taken: it is free in the bound
    got = subst_index(M("[b < b_0] Nat[b + x]"), "x", Var("b"))
    assert got == M("[b_1 < b_0] Nat[b_1 + b]")


# ---------------------------------------------------------------------------
# Well-definedness

def test_wd_closed_interval(arith):
    v = well_defined(EMPTY_CTX, B("Nat[3, 5]"), Oracle(arith))
    assert isinstance(v, Verified)


def test_wd_with_builtins_total(arith):
    v = well_defined(CTX_A, B("Nat[a - 1, mult(2, a)]"), Oracle(arith, bound=8))
    assert isinstance(v, Verified)


def test_wd_undefined_symbol():
    undef = register_program([], declare({"undef": 0}))
    v = well_defined(EMPTY_CTX, B("Nat[undef(), 0]"), Oracle(undef))
    assert isinstance(v, Refuted)


def test_wd_modal_extends_context(arith):
    # body is defined only because the binder is constrained below gt(1,0)=1
    program = ix.parse_equations(
        "gt(0, b) = 0\ngt(a+1, 0) = 1\ngt(a+1, b+1) = gt(a, b)\n"
        "only0(0) = 7")
    v = well_defined(EMPTY_CTX, M("[c < gt(1, 0)] Nat[only0(c)]"), Oracle(program))
    assert isinstance(v, Verified)
    v = well_defined(EMPTY_CTX, M("[c < 2] Nat[only0(c)]"), Oracle(program))
    assert isinstance(v, Refuted)


def test_wd_divergence_is_unknown():
    loop = ix.parse_equations("loop(a) = loop(a + 1)")
    v = well_defined(EMPTY_CTX, B("Nat[loop(0), 1]"), Oracle(loop, fuel=2000))
    assert isinstance(v, Unknown)


# ---------------------------------------------------------------------------
# Subtyping and equivalence

def test_interval_widening(arith):
    assert isinstance(subtype(EMPTY_CTX, B("Nat[0, 5]"), B("Nat[0, 8]"),
                              Oracle(arith)), Verified)
    assert isinstance(subtype(EMPTY_CTX, B("Nat[0, 8]"), B("Nat[0, 5]"),
                              Oracle(arith)), Refuted)


def test_reflexivity_on_random_types(arith):
    rng = random.Random(11)
    for _ in range(60):
        t = gen_basic_type(rng, ("a",), 2)
        assert not isinstance(subtype(CTX_A, t, t, Oracle(arith, bound=4)), Refuted)


def test_contravariant_modal_argument(arith):
    # a function using its argument at most 3 times serves callers that
    # supply 5 copies; the premise unfolds to 3 <= 5 on the domains
    sub = B("[a < 3] Nat[a] -o Nat[0]")
    sup = B("[a < 5] Nat[a] -o Nat[0]")
    assert isinstance(subtype(EMPTY_CTX, sub, sup, Oracle(arith)), Verified)
    assert isinstance(subtype(EMPTY_CTX, sup, sub, Oracle(arith)), Refuted)


def test_modal_subtype_has_the_larger_bound(arith):
    assert isinstance(subtype(EMPTY_CTX, M("[a < 5] Nat[a]"),
                              M("[a < 3] Nat[a]"), Oracle(arith)), Verified)
    assert isinstance(subtype(EMPTY_CTX, M("[a < 3] Nat[a]"),
                              M("[a < 5] Nat[a]"), Oracle(arith)), Refuted)


def test_shape_mismatch_raises(arith):
    with pytest.raises(ShapeMismatch):
        subtype(EMPTY_CTX, B("Nat[0]"), B("[a < 1] Nat[a] -o Nat[0]"),
                Oracle(arith))


def test_precise_requires_equalities(arith):
    loose = subtype(EMPTY_CTX, B("Nat[0, 5]"), B("Nat[0, 8]"), Oracle(arith))
    assert isinstance(loose, Verified)
    precise = subtype(EMPTY_CTX, B("Nat[0, 5]"), B("Nat[0, 8]"), Oracle(arith),
                      precise=True)
    assert isinstance(precise, Refuted)


def test_precise_implies_loose(arith):
    rng = random.Random(13)
    for _ in range(40):
        t = gen_basic_type(rng, ("a",), 2)
        oracle = Oracle(arith, bound=4)
        if isinstance(subtype(CTX_A, t, t, oracle, precise=True), Verified):
            assert isinstance(subtype(CTX_A, t, t, oracle), Verified)


def test_equiv_of_interval_sugar(arith):
    assert isinstance(equiv(CTX_A, B("Nat[a]"), B("Nat[a, a]"), Oracle(arith)),
                      Verified)
    v = equiv(CTX_A, B("Nat[a]"), B("Nat[a + 1]"), Oracle(arith))
    assert v == Refuted((("a", 0),))


def test_equiv_of_alpha_variants(arith):
    left = B("[c < a + 1] Nat[c] -o Nat[2]")
    right = B("[d < 1 + a] Nat[d] -o Nat[2]")
    assert isinstance(equiv(CTX_A, left, right, Oracle(arith)), Verified)


def test_transitivity_at_bound_on_ordered_chains(arith):
    rng = random.Random(17)
    for _ in range(40):
        base = gen_basic_type(rng, ("a",), 2)
        mid = widen(rng, base)
        top = widen(rng, mid)
        oracle = Oracle(arith, bound=4)
        assert isinstance(subtype(CTX_A, base, mid, oracle), Verified)
        assert isinstance(subtype(CTX_A, mid, top, oracle), Verified)
        assert not isinstance(subtype(CTX_A, base, top, oracle), Refuted)


# ---------------------------------------------------------------------------
# Sums of modal types

def test_sum_modal_example(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 3] Nat[2 + b]")
    result, verdict = sum_modal(a, b, SumWitness("c", B("Nat[c]")),
                                EMPTY_CTX, Oracle(arith))
    assert isinstance(verdict, Verified)
    assert alpha_eq_index(result, M("[c < 2 + 3] Nat[c]"))
    assert erase(result) == erase(a)


def test_sum_modal_zero_width_left(arith):
    a = M("[a < 0] Nat[a]")
    b = M("[b < 3] Nat[0 + b]")
    result, verdict = sum_modal(a, b, SumWitness("c", B("Nat[c]")),
                                EMPTY_CTX, Oracle(arith))
    assert isinstance(verdict, Verified)
    assert ix.eval_index(result.bound, {}, arith) == 3


def test_sum_modal_wrong_witness_refuted(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 3] Nat[2 + b]")
    _, verdict = sum_modal(a, b, SumWitness("c", B("Nat[0]")), EMPTY_CTX,
                           Oracle(arith))
    assert isinstance(verdict, Refuted)


def test_sum_modal_shape_mismatch(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 1] ([c < 1] Nat[0] -o Nat[0])")
    with pytest.raises(ShapeMismatch):
        sum_modal(a, b, SumWitness("c", B("Nat[c]")), EMPTY_CTX, Oracle(arith))


def test_bounded_sum_vacuous(arith):
    a = M("[b < 1] Nat[a]")
    result, verdict = bounded_sum_modal(
        "a", Lit(0), a, BoundedSumWitness("c", B("Nat[c]"), Lit(1)),
        EMPTY_CTX, Oracle(arith))
    assert isinstance(verdict, Verified)
    assert ix.eval_index(result.bound, {}, arith) == 0


def test_bounded_sum_example(arith):
    # three instances, one per binder value, laid out consecutively
    a = M("[b < 1] Nat[a]")
    result, verdict = bounded_sum_modal(
        "a", Lit(3), a, BoundedSumWitness("c", B("Nat[c]"), Lit(1)),
        EMPTY_CTX, Oracle(arith))
    assert isinstance(verdict, Verified)
    assert alpha_eq_index(result.body, B("Nat[c]")) or result.body == B("Nat[c]")
    assert ix.eval_index(result.bound, {}, arith) == 3
    assert erase(result) == pcf.NAT


def test_bounded_sum_shape_mismatch(arith):
    a = M("[b < 1] Nat[a]")
    arrow_witness = BoundedSumWitness(
        "c", B("[q < 1] Nat[0] -o Nat[0]"), Lit(1))
    with pytest.raises(ShapeMismatch):
        bounded_sum_modal("a", Lit(3), a, arrow_witness, EMPTY_CTX,
                          Oracle(arith))


def test_bounded_sum_wrong_width_refuted(arith):
    a = M("[b < 1] Nat[a]")
    _, verdict = bounded_sum_modal(
        "a", Lit(3), a, BoundedSumWitness("c", B("Nat[c]"), Lit(2)),
        EMPTY_CTX, Oracle(arith))
    assert isinstance(verdict, Refuted)


def test_erasure_commutes_with_sums(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 3] Nat[2 + b]")
    result, _ = sum_modal(a, b, SumWitness("c", B("Nat[c]")), EMPTY_CTX,
                          Oracle(arith))
    assert erase(result) == erase(a) == erase(b)


@pytest.mark.parametrize("text", ["[3 < 2] Nat[0]", "[sum < 2] Nat[0]",
                                  "[( < 2] Nat[0]"])
def test_a_modal_binder_must_be_a_name(text):
    with pytest.raises(ValueError, match="expected a variable name"):
        parse_modal_type(text)


# ---------------------------------------------------------------------------
# Structural operations
#
# Recursive copies of the operations that index terms and types each had
# before `free_vars`, `subst_index` and `alpha_eq_index` took both: one set
# per syntax, and the binding-form rules they shared through callbacks.
# One line is added to the copies: `RenamedIntoOuterTerm` where the fresh
# name of a renamed binder was free in the form's own outer terms.  There
# the copies went wrong (a modal type refused to be built, or the body's
# occurrences of the substituted name captured the renamed binder), and
# everywhere else the new operations must give the same results.

class RenamedIntoOuterTerm(Exception):
    pass


def reference_free_vars(t):
    match t:
        case Var(name):
            return frozenset((name,))
        case Lit():
            return frozenset()
        case App(_, args):
            out = frozenset()
            for a in args:
                out |= reference_free_vars(a)
            return out
        case BoundedSum() | Forest():
            return reference_binder_free_vars(t, reference_free_vars)


def reference_free_type_vars(t):
    match t:
        case NatI(lo, hi):
            return reference_free_vars(lo) | reference_free_vars(hi)
        case LinArrow(dom, cod):
            return reference_free_type_vars(dom) | reference_free_type_vars(cod)
        case ModalType():
            return reference_binder_free_vars(t, reference_free_type_vars)


def reference_outer(t):
    match t:
        case BoundedSum(_, bound, _) | ModalType(_, bound, _):
            return (bound,)
        case Forest(_, start, count, _):
            return (start, count)


def reference_binder_free_vars(t, body_free_vars):
    out = body_free_vars(t.body) - {t.binder}
    for term in reference_outer(t):
        out |= reference_free_vars(term)
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
        case BoundedSum() | Forest():
            return reference_subst_binder(t, name, repl, reference_subst_index,
                                          reference_free_vars)


def reference_subst_type(t, name, repl):
    match t:
        case NatI(lo, hi):
            return NatI(reference_subst_index(lo, name, repl),
                        reference_subst_index(hi, name, repl))
        case LinArrow(dom, cod):
            return LinArrow(reference_subst_type(dom, name, repl),
                            reference_subst_type(cod, name, repl))
        case ModalType():
            return reference_subst_binder(t, name, repl, reference_subst_type,
                                          reference_free_type_vars)


def reference_subst_binder(t, name, repl, subst_body, body_free_vars):
    outer = tuple(reference_subst_index(o, name, repl)
                  for o in reference_outer(t))
    binder, body = t.binder, t.body
    if binder != name:
        if (binder in reference_free_vars(repl)
                and name in reference_binder_free_vars(t, body_free_vars)):
            nb = ix.fresh_name(binder,
                               reference_free_vars(repl) | body_free_vars(body))
            if any(nb in reference_free_vars(o) for o in reference_outer(t)):
                raise RenamedIntoOuterTerm(nb)
            body = subst_body(body, binder, Var(nb))
            binder = nb
        body = subst_body(body, name, repl)
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
        case (BoundedSum() | Forest(), _):
            return reference_alpha_eq_binder(a, b, ea, eb, depth,
                                             reference_alpha_eq_index)
    return False


def reference_alpha_eq_type(a, b, env_a=None, env_b=None, depth=0):
    ea = env_a or {}
    eb = env_b or {}
    match (a, b):
        case (NatI(l1, h1), NatI(l2, h2)):
            return (reference_alpha_eq_index(l1, l2, ea, eb, depth)
                    and reference_alpha_eq_index(h1, h2, ea, eb, depth))
        case (LinArrow(d1, c1), LinArrow(d2, c2)):
            return (reference_alpha_eq_type(d1, d2, ea, eb, depth)
                    and reference_alpha_eq_type(c1, c2, ea, eb, depth))
        case (ModalType(), _):
            return reference_alpha_eq_binder(a, b, ea, eb, depth,
                                             reference_alpha_eq_type)
    return False


def reference_alpha_eq_binder(a, b, env_a, env_b, depth, body_eq):
    return (type(a) is type(b)
            and all(reference_alpha_eq_index(x, y, env_a, env_b, depth)
                    for x, y in zip(reference_outer(a), reference_outer(b)))
            and body_eq(a.body, b.body, {**env_a, a.binder: depth},
                        {**env_b, b.binder: depth}, depth + 1))


def is_type(t):
    return isinstance(t, (NatI, LinArrow, ModalType))


def reference_subst(t, name, repl):
    return (reference_subst_type if is_type(t)
            else reference_subst_index)(t, name, repl)


def reference_alpha_eq(a, b):
    return (reference_alpha_eq_type if is_type(a)
            else reference_alpha_eq_index)(a, b)


def apart(t, counter):
    """`t` with each binder renamed to a new name z0, z1, ...: a
    substitution of names outside these never renames a binder of it."""
    match t:
        case Var() | Lit():
            return t
        case App(sym, args):
            return App(sym, tuple(apart(a, counter) for a in args))
        case NatI(lo, hi):
            return NatI(apart(lo, counter), apart(hi, counter))
        case LinArrow(dom, cod):
            return LinArrow(apart(dom, counter), apart(cod, counter))
    fresh = f"z{next(counter)}"
    outer = [apart(o, counter) for o in reference_outer(t)]
    body = reference_subst(apart(t.body, counter), t.binder, Var(fresh))
    return type(t)(fresh, *outer, body)


# Names that fresh_name hands out (b_0, b_1) beside the ones it renames, so
# that renamed binders regularly meet free variables of the same name.
POOL = ("a", "b", "b_0", "b_1", "c")
pool = st.sampled_from(POOL)
pool_index_terms = st.recursive(
    st.one_of(st.integers(0, 3).map(Lit), pool.map(Var)),
    lambda sub: st.one_of(st.builds(ix.add, sub, sub),
                          st.builds(BoundedSum, pool, sub, sub),
                          st.builds(Forest, pool, sub, sub, sub)),
    max_leaves=8)
# random basic types over POOL, their binders drawn from POOL too
pool_types = st.integers(0, 2**32 - 1).map(
    lambda seed: gen_basic_type(random.Random(seed), POOL, 3, POOL))


def assert_matches_the_references(t, other, name, repl):
    assert free_vars(t) == (reference_free_type_vars if is_type(t)
                            else reference_free_vars)(t)
    got = subst_index(t, name, repl)
    try:
        assert got == reference_subst(t, name, repl)
    except RenamedIntoOuterTerm:
        pass
    # against a substitution that renames nothing
    assert alpha_eq_index(
        got, reference_subst(apart(t, itertools.count()), name, repl))
    for a, b in ((t, t), (t, other), (got, t), (t, got)):
        assert alpha_eq_index(a, b) == reference_alpha_eq(a, b)


@given(pool_types, pool_types, pool, pool_index_terms)
@example(M("[b < b_0] Nat[b + x]"), M("[b_1 < b_0] Nat[b_1 + b]"), "x",
         Var("b"))
@example(M("[b < b_0] Nat[b]"), M("[b_1 < b] Nat[b_1]"), "b_0", Var("b"))
@settings(max_examples=300, deadline=None)
def test_operations_on_types_match_the_recursive_references(
        t, other, name, repl):
    assert_matches_the_references(t, other, name, repl)
    if isinstance(t, LinArrow):
        assert_matches_the_references(t.dom, other, name, repl)


@given(pool_index_terms, pool_index_terms, pool, pool_index_terms)
@example(parse_index("sum(b < b_0, b + x)"),
         parse_index("sum(b_1 < b_0, b_1 + b)"), "x", Var("b"))
@example(parse_index("sum(b < b_0, b)"), parse_index("sum(b_1 < b, b_1)"),
         "b_0", Var("b"))
@settings(max_examples=300, deadline=None)
def test_operations_on_index_terms_match_the_recursive_references(
        t, other, name, repl):
    assert_matches_the_references(t, other, name, repl)
