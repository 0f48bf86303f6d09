"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 4 is run as the soundness theorem states it, with the step bound
taken from the *verified* derivation's weight; the worked example's claimed
linear weight is demonstrably unsound (see the ledger note in the repo
history and test_paper_claimed_linear_weight_is_refuted), and this suite
also pins the numeric violation that forced the correction.
"""

import random
import time

from dlpcf import checker as ck
from dlpcf import index as ix
from dlpcf import machine
from dlpcf import pcf
from dlpcf import types as ty
from dlpcf.cli import soundness_rows
from dlpcf.index import (Constraint, EMPTY_CTX, Forest, Lit, Oracle, Refuted,
                         Var, Verified, entails, eval_index, subst_index)

from genterms import gen_basic_type, show_term, table_program, widen
from test_checker import mutations
from test_machine import CORPUS


def report(number, name, started):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
    return elapsed


def test_criterion_1_forest_cardinality_worked_example(ktab):
    started = time.monotonic()
    body = ix.App("ktab", (Var("a"),))
    cases = [((0, 2), 13), ((0, 1), 8), ((8, 1), 5), ((2, 3), 6)]
    for (start, count), expected in cases:
        got = eval_index(Forest("a", Lit(start), Lit(count), body), {}, ktab)
        assert got == expected, (start, count)
    assert report(1, "forest cardinality worked example", started) < 1.0


def test_criterion_2_forest_lemmas_randomized():
    started = time.monotonic()
    rng = random.Random(20260809)
    shift_checked = sum_checked = 0
    while shift_checked < 200 or sum_checked < 200:
        program, body = table_program(rng, width=12, max_children=3)
        i, j, k = (rng.randint(0, 4) for _ in range(3))
        lhs = Forest("a", Lit(i + j), Lit(k), body)
        rhs = Forest("a", Lit(j), Lit(k),
                     subst_index(body, "a", ix.add(Var("a"), Lit(i))))
        verdict = entails(EMPTY_CTX, Constraint(lhs, "~", rhs),
                          Oracle(program, bound=8, fuel=10**5))
        assert isinstance(verdict, Verified), ("shift", i, j, k)
        shift_checked += 1

        lhs = Forest("a", Lit(1), Lit(j), body)
        inner = Forest("a", Lit(1), Var("b"), body)
        shifted = subst_index(body, "a", ix.add(ix.add(Var("a"), Lit(1)),
                                                inner))
        rhs = ix.BoundedSum("b", Lit(j), Forest("a", Lit(0), Lit(1), shifted))
        verdict = entails(EMPTY_CTX, Constraint(lhs, "~", rhs),
                          Oracle(program, bound=8, fuel=10**5))
        assert isinstance(verdict, Verified), ("sum", j)
        sum_checked += 1
    assert shift_checked >= 200 and sum_checked >= 200
    assert report(2, "forest lemmas on randomized tables", started) < 30.0


def test_criterion_3_dbl_golden_derivation(arith, dbl_derivation, dbl_term):
    started = time.monotonic()
    result = ck.check(dbl_derivation, arith, bound=6, fuel=10**6,
                      precise=False)
    assert isinstance(result.overall, Verified)
    assert ty.erase(dbl_derivation.type) == pcf.Arrow(pcf.NAT, pcf.NAT)
    assert (pcf.pcf_typecheck((), dbl_derivation.subject)
            == pcf.Arrow(pcf.NAT, pcf.NAT))
    assert report(3, "dbl golden derivation verified at bound 6",
                  started) < 10.0


def test_criterion_4_intensional_soundness_at_desk_scale(
        arith, dbl_derivation, dbl_term):
    started = time.monotonic()
    rows = soundness_rows(dbl_derivation, dbl_term, arith,
                          tuple(range(9)), fuel=10**6)
    assert len(rows) == 9
    for n, row in enumerate(rows):
        assert row.value == 2 * n
        assert row.bound_ok, (n, row.steps, row.step_bound)
        assert row.interval_ok
    # The worked example's claimed weight would give the bound
    # size * (n + 1); the measured runs exceed it from n = 5 on, which is
    # why the golden derivation carries the corrected quadratic weight.
    size16 = pcf.size(pcf.App(dbl_term, pcf.Const(0)))
    violations = [n for n, row in enumerate(rows)
                  if row.steps > size16 * (n + 1)]
    assert violations == [5, 6, 7, 8]
    assert report(4, "intensional soundness rows for dbl", started) < 5.0


def test_criterion_5_mutation_rejection(arith, dbl_derivation):
    started = time.monotonic()
    outcomes = []
    for label, mutant in mutations(dbl_derivation):
        try:
            result = ck.check(mutant, arith, bound=6)
        except ck.StructuralError:
            outcomes.append((label, "structural"))
            continue
        assert isinstance(result.overall, Refuted), label
        outcomes.append((label, "refuted"))
    assert len(outcomes) >= 5
    assert report(5, f"mutations rejected ({len(outcomes)})", started) < 30.0


def test_criterion_6_machine_reducer_agreement():
    started = time.monotonic()
    assert len(CORPUS) >= 20
    for term, expected in CORPUS:
        run = machine.run(term, fuel=10**6)
        value, _ = pcf.wh_eval(term, fuel=10**6)
        assert run.value == value == expected, show_term(term)
    assert report(6, f"machine/reducer agreement on {len(CORPUS)} programs",
                  started) < 10.0


def test_criterion_7_environment_size_lemma(dbl_term):
    started = time.monotonic()
    programs = [t for t, _ in CORPUS]
    programs += [pcf.App(dbl_term, pcf.Const(n)) for n in range(9)]
    for term in programs:
        machine.run(term, fuel=10**6, debug=True)
    report(7, f"environment-size invariant on {len(programs)} runs", started)


def test_criterion_8_subtyping_metamorphic_suite(arith):
    started = time.monotonic()
    rng = random.Random(42)
    ctx = ix.ConstraintSet(("a",), ())
    oracle = Oracle(arith, bound=6)
    for i in range(500):
        base = gen_basic_type(rng, ("a",), 2)
        refl = ty.subtype(ctx, base, base, oracle)
        assert not isinstance(refl, Refuted), (i, ix.show_index(base))
        mid = widen(rng, base)
        top = widen(rng, mid)
        lo = ty.subtype(ctx, base, mid, oracle)
        hi = ty.subtype(ctx, mid, top, oracle)
        assert isinstance(lo, Verified) and isinstance(hi, Verified), i
        span = ty.subtype(ctx, base, top, oracle)
        assert not isinstance(span, Refuted), (i, ix.show_index(base))
    elapsed = report(8, "subtyping reflexivity and transitivity at bound 6",
                     started)
    assert elapsed < 60.0
