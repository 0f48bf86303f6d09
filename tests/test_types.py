import random

import pytest

from dlpcf import index as ix
from dlpcf import pcf
from dlpcf.index import (ConstraintSet, EMPTY_CTX, Lit, Refuted, Unknown, Var,
                         Verified, declare, parse_index, register_program)
from dlpcf.types import (BoundedSumWitness, LinArrow, ModalType, NatI,
                         ShapeMismatch, SumWitness, alpha_eq_type,
                         bounded_sum_modal, equiv, erase, erase_modal,
                         parse_basic_type, parse_modal_type, show_type,
                         subst_type, subtype, sum_modal, well_defined)

from genterms import gen_basic_type, widen


def B(text):
    return parse_basic_type(text)


def M(text):
    return parse_modal_type(text)


CTX_A = ConstraintSet(("a",), ())


# ---------------------------------------------------------------------------
# Syntax and erasure

def test_parse_show_roundtrip():
    assert show_type(B("Nat[3,3]")) == "Nat[3]"
    arrow = B("[a < 5] Nat[a] -o Nat[0]")
    assert isinstance(arrow, LinArrow)
    assert alpha_eq_type(B(show_type(arrow)), arrow)
    nested = M("[v < 2] ([c < a] Nat[c] -o Nat[a])")
    assert alpha_eq_type(M(show_type(nested)), nested)


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
    assert alpha_eq_type(M("[a < 3] Nat[a]"), M("[b < 3] Nat[b]"))
    assert not alpha_eq_type(M("[a < 3] Nat[a]"), M("[b < 3] Nat[1]"))


def test_subst_type_capture_avoiding():
    t = B("[c < a] Nat[c + a] -o Nat[a]")
    got = subst_type(t, "a", parse_index("c + 1"))
    # the bound c must be renamed away from the free c being substituted in
    assert isinstance(got, LinArrow)
    assert got.dom.binder != "c"
    assert ix.alpha_eq_index(got.dom.bound, parse_index("c + 1"))


def test_subst_type_renames_binder_captured_in_bound():
    # x := b lands in the bound only, beside a binder also named b
    got = subst_type(M("[b < x] Nat[b]"), "x", Var("b"))
    assert alpha_eq_type(got, M("[b_0 < b] Nat[b_0]"))


# ---------------------------------------------------------------------------
# Well-definedness

def test_wd_closed_interval(arith):
    assert isinstance(well_defined(EMPTY_CTX, B("Nat[3, 5]"), arith), Verified)


def test_wd_with_builtins_total(arith):
    v = well_defined(CTX_A, B("Nat[a - 1, mult(2, a)]"), arith, bound=8)
    assert isinstance(v, Verified)


def test_wd_undefined_symbol():
    undef = register_program([], declare({"undef": 0}))
    v = well_defined(EMPTY_CTX, B("Nat[undef(), 0]"), undef)
    assert isinstance(v, Refuted)


def test_wd_modal_extends_context(arith):
    # body is defined only because the binder is constrained below gt(1,0)=1
    program = ix.parse_equations(
        "gt(0, b) = 0\ngt(a+1, 0) = 1\ngt(a+1, b+1) = gt(a, b)\n"
        "only0(0) = 7")
    v = well_defined(EMPTY_CTX, M("[c < gt(1, 0)] Nat[only0(c)]"), program)
    assert isinstance(v, Verified)
    v = well_defined(EMPTY_CTX, M("[c < 2] Nat[only0(c)]"), program)
    assert isinstance(v, Refuted)


def test_wd_divergence_is_unknown():
    loop = ix.parse_equations("loop(a) = loop(a + 1)")
    v = well_defined(EMPTY_CTX, B("Nat[loop(0), 1]"), loop, fuel=2000)
    assert isinstance(v, Unknown)


# ---------------------------------------------------------------------------
# Subtyping and equivalence

def test_interval_widening(arith):
    assert isinstance(subtype(EMPTY_CTX, B("Nat[0, 5]"), B("Nat[0, 8]"),
                              arith), Verified)
    assert isinstance(subtype(EMPTY_CTX, B("Nat[0, 8]"), B("Nat[0, 5]"),
                              arith), Refuted)


def test_reflexivity_on_random_types(arith):
    rng = random.Random(11)
    for _ in range(60):
        t = gen_basic_type(rng, ("a",), 2)
        assert not isinstance(subtype(CTX_A, t, t, arith, bound=4), Refuted)


def test_contravariant_modal_argument(arith):
    # a function using its argument at most 3 times serves callers that
    # supply 5 copies; the premise unfolds to 3 <= 5 on the domains
    sub = B("[a < 3] Nat[a] -o Nat[0]")
    sup = B("[a < 5] Nat[a] -o Nat[0]")
    assert isinstance(subtype(EMPTY_CTX, sub, sup, arith), Verified)
    assert isinstance(subtype(EMPTY_CTX, sup, sub, arith), Refuted)


def test_modal_subtype_has_the_larger_bound(arith):
    assert isinstance(subtype(EMPTY_CTX, M("[a < 5] Nat[a]"),
                              M("[a < 3] Nat[a]"), arith), Verified)
    assert isinstance(subtype(EMPTY_CTX, M("[a < 3] Nat[a]"),
                              M("[a < 5] Nat[a]"), arith), Refuted)


def test_shape_mismatch_raises(arith):
    with pytest.raises(ShapeMismatch):
        subtype(EMPTY_CTX, B("Nat[0]"), B("[a < 1] Nat[a] -o Nat[0]"), arith)


def test_precise_requires_equalities(arith):
    loose = subtype(EMPTY_CTX, B("Nat[0, 5]"), B("Nat[0, 8]"), arith)
    assert isinstance(loose, Verified)
    precise = subtype(EMPTY_CTX, B("Nat[0, 5]"), B("Nat[0, 8]"), arith,
                      precise=True)
    assert isinstance(precise, Refuted)


def test_precise_implies_loose(arith):
    rng = random.Random(13)
    for _ in range(40):
        t = gen_basic_type(rng, ("a",), 2)
        if isinstance(subtype(CTX_A, t, t, arith, bound=4, precise=True),
                      Verified):
            assert isinstance(subtype(CTX_A, t, t, arith, bound=4), Verified)


def test_equiv_of_interval_sugar(arith):
    assert isinstance(equiv(CTX_A, B("Nat[a]"), B("Nat[a, a]"), arith),
                      Verified)
    v = equiv(CTX_A, B("Nat[a]"), B("Nat[a + 1]"), arith)
    assert v == Refuted((("a", 0),))


def test_equiv_of_alpha_variants(arith):
    left = B("[c < a + 1] Nat[c] -o Nat[2]")
    right = B("[d < 1 + a] Nat[d] -o Nat[2]")
    assert isinstance(equiv(CTX_A, left, right, arith), Verified)


def test_transitivity_at_bound_on_ordered_chains(arith):
    rng = random.Random(17)
    for _ in range(40):
        base = gen_basic_type(rng, ("a",), 2)
        mid = widen(rng, base)
        top = widen(rng, mid)
        assert isinstance(subtype(CTX_A, base, mid, arith, bound=4), Verified)
        assert isinstance(subtype(CTX_A, mid, top, arith, bound=4), Verified)
        assert not isinstance(subtype(CTX_A, base, top, arith, bound=4),
                              Refuted)


# ---------------------------------------------------------------------------
# Sums of modal types

def test_sum_modal_example(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 3] Nat[2 + b]")
    result, verdict = sum_modal(a, b, SumWitness("c", B("Nat[c]")),
                                EMPTY_CTX, arith)
    assert isinstance(verdict, Verified)
    assert alpha_eq_type(result, M("[c < 2 + 3] Nat[c]"))
    assert erase_modal(result) == erase_modal(a)


def test_sum_modal_zero_width_left(arith):
    a = M("[a < 0] Nat[a]")
    b = M("[b < 3] Nat[0 + b]")
    result, verdict = sum_modal(a, b, SumWitness("c", B("Nat[c]")),
                                EMPTY_CTX, arith)
    assert isinstance(verdict, Verified)
    assert ix.eval_index(result.bound, {}, arith) == 3


def test_sum_modal_wrong_witness_refuted(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 3] Nat[2 + b]")
    _, verdict = sum_modal(a, b, SumWitness("c", B("Nat[0]")), EMPTY_CTX,
                           arith)
    assert isinstance(verdict, Refuted)


def test_sum_modal_shape_mismatch(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 1] ([c < 1] Nat[0] -o Nat[0])")
    with pytest.raises(ShapeMismatch):
        sum_modal(a, b, SumWitness("c", B("Nat[c]")), EMPTY_CTX, arith)


def test_bounded_sum_vacuous(arith):
    a = M("[b < 1] Nat[a]")
    result, verdict = bounded_sum_modal(
        "a", Lit(0), a, BoundedSumWitness("c", B("Nat[c]"), Lit(1)),
        EMPTY_CTX, arith)
    assert isinstance(verdict, Verified)
    assert ix.eval_index(result.bound, {}, arith) == 0


def test_bounded_sum_example(arith):
    # three instances, one per binder value, laid out consecutively
    a = M("[b < 1] Nat[a]")
    result, verdict = bounded_sum_modal(
        "a", Lit(3), a, BoundedSumWitness("c", B("Nat[c]"), Lit(1)),
        EMPTY_CTX, arith)
    assert isinstance(verdict, Verified)
    assert alpha_eq_type(result.body, B("Nat[c]")) or result.body == B("Nat[c]")
    assert ix.eval_index(result.bound, {}, arith) == 3
    assert erase_modal(result) == pcf.NAT


def test_bounded_sum_shape_mismatch(arith):
    a = M("[b < 1] Nat[a]")
    arrow_witness = BoundedSumWitness(
        "c", B("[q < 1] Nat[0] -o Nat[0]"), Lit(1))
    with pytest.raises(ShapeMismatch):
        bounded_sum_modal("a", Lit(3), a, arrow_witness, EMPTY_CTX, arith)


def test_bounded_sum_wrong_width_refuted(arith):
    a = M("[b < 1] Nat[a]")
    _, verdict = bounded_sum_modal(
        "a", Lit(3), a, BoundedSumWitness("c", B("Nat[c]"), Lit(2)),
        EMPTY_CTX, arith)
    assert isinstance(verdict, Refuted)


def test_erasure_commutes_with_sums(arith):
    a = M("[a < 2] Nat[a]")
    b = M("[b < 3] Nat[2 + b]")
    result, _ = sum_modal(a, b, SumWitness("c", B("Nat[c]")), EMPTY_CTX, arith)
    assert erase_modal(result) == erase_modal(a) == erase_modal(b)
