import ast
import pathlib
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from dlpcf import machine, pcf
from dlpcf.fuel import DEFAULT_FUEL, FuelExhausted
from dlpcf.machine import Arg, Branches
from dlpcf.pcf import (NAT, App, Arrow, Const, Fix, IfZ, Lam, NatT,
                       PcfSyntaxError,
                       PcfTypeError, Pred, StuckTerm, Succ, TVar,
                       max_free_index, parse_term, pcf_typecheck, shift, size,
                       subst, wh_eval)

from genterms import Fuel, gen_nat_term, open_terms, same, show_term
from test_machine import CORPUS, configurations


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DBL_TEXT = r"fix f. \x. ifz x then 0 else s(s(f (p x)))"
DBL = Fix(Lam(IfZ(TVar(0), Const(0), Succ(Succ(App(TVar(1), Pred(TVar(0))))))))


# ---------------------------------------------------------------------------
# Parsing

def test_parse_dbl_shape():
    assert same(parse_term(DBL_TEXT), DBL)


def test_parse_identity():
    assert same(parse_term(r"\x. x"), Lam(TVar(0)))


def test_unbound_identifier_has_position():
    with pytest.raises(PcfSyntaxError) as err:
        parse_term("x")
    assert "unbound identifier 'x'" in str(err.value)
    assert err.value.line == 1


def test_alpha_equivalent_inputs_parse_identically():
    assert same(parse_term(r"\x. \y. x y"), parse_term(r"\u. \v. u v"))


def test_shadowing_resolves_to_innermost():
    assert same(parse_term(r"\x. \x. x"), Lam(Lam(TVar(0))))


def test_application_is_left_associative():
    assert same(parse_term(r"\f. \x. f x x"),
                Lam(Lam(App(App(TVar(1), TVar(0)), TVar(0)))))


def test_s_p_take_the_next_atom():
    assert same(parse_term("p 3"), Pred(Const(3)))
    assert same(parse_term("s(s 0)"), Succ(Succ(Const(0))))


def test_annotations_survive_parsing():
    t = parse_term(r"\x: Nat -> Nat. x")
    assert isinstance(t, Lam) and t.ann == Arrow(NAT, NAT)
    # the annotation is not part of the term's shape
    assert same(t, Lam(TVar(0)))


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

# Each frame's first part, where it steps, and the normal form it consumes
# there; any other normal form there is stuck, with the frame's message.
FIRST = {Succ: "body", Pred: "body", App: "fn", IfZ: "scrut"}
CONSUMES = {Succ: Const, Pred: Const, App: Lam, IfZ: Const}
STUCK_IN = {Succ: "s applied to a non-numeral normal form",
            Pred: "p applied to a non-numeral normal form",
            App: "applying a non-function normal form",
            IfZ: "ifz scrutinee is a non-numeral normal form"}


def wh_step(t):
    """One weak-head step, or None when `t` is normal (numerals, lambdas):
    the one-step specification of the refocusing `wh_eval`.

    Iterative, so a term any number of frames deep takes a step: `path`
    holds, root first, the frames above the redex, each of which steps in
    its first part, and the contractum is put back under them, innermost
    first."""
    path = []
    while type(t) in FIRST:
        first = getattr(t, FIRST[type(t)])
        if type(first) is CONSUMES[type(t)]:
            break                    # `t` is the redex
        path.append(t)
        t = first
    match t:
        case Const() | Lam():
            if path:
                raise StuckTerm(STUCK_IN[type(path[-1])])
            return None
        case TVar():
            raise StuckTerm("free variable in a closed reduction")
        case Succ(Const(n)):
            t = Const(n + 1)
        case Pred(Const(n)):
            t = Const(n - 1 if n else 0)
        case App(Lam(body), arg):
            t = subst(body, arg)
        case IfZ(Const(n), z, u):
            t = u if n else z
        case Fix(body):
            t = subst(body, t)
        case _:
            raise TypeError(f"not a term: {t!r}")
    for frame in reversed(path):
        if type(frame) is App:
            t = App(t, frame.arg)
        elif type(frame) is IfZ:
            t = IfZ(t, frame.zero, frame.succ)
        else:
            t = type(frame)(t)
    return t


def test_pred_of_zero_steps_to_zero():
    assert same(wh_step(Pred(Const(0))), Const(0))


def test_ifz_on_successor_takes_the_second_branch():
    u, v = Const(10), Const(20)
    assert wh_step(IfZ(Const(3), u, v)) == v
    assert wh_step(IfZ(Const(0), u, v)) == u


def test_numerals_and_lambdas_are_normal():
    assert wh_step(Const(7)) is None
    assert wh_step(Lam(TVar(0))) is None


def test_fix_unfolds():
    t = Fix(Lam(TVar(1)))
    assert same(wh_step(t), Lam(Fix(Lam(TVar(1)))))


def test_beta_substitutes():
    assert same(wh_step(App(Lam(Succ(TVar(0))), Const(1))), Succ(Const(1)))


def test_subst_shares_a_closed_replacement_under_binders():
    closed = Fix(Lam(TVar(1)))
    got = subst(Lam(Fix(App(TVar(2), TVar(0)))), closed)
    assert got.body.body.fn is closed
    # an open replacement is shifted past the two binders
    opened = subst(Lam(Fix(TVar(2))), Succ(TVar(0)))
    assert same(opened, Lam(Fix(Succ(TVar(2)))))
    # a `Fix` unfolding puts the `Fix` itself under its binder
    fix = Fix(Lam(TVar(1)))
    assert wh_step(fix).body is fix


def test_reduction_under_contexts():
    t = Succ(Pred(Const(0)))
    assert same(wh_step(t), Succ(Const(0)))


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
    # the closed form n(n+1)/2 + 5n + 3: under call by name, the n-th
    # unfolding re-reduces p(...(p n)) to test it
    for n in (0, 1, 2, 3, 17, 640):
        assert (wh_eval(App(dbl_term, Const(n)))
                == (2 * n, n * (n + 1) // 2 + 5 * n + 3))
    assert wh_eval(App(dbl_term, Const(640)))[1] == 208_323


def test_wh_eval_omega_diverges(omega_term):
    with pytest.raises(FuelExhausted):
        wh_eval(App(omega_term, Const(1)), fuel=20000)


@pytest.mark.parametrize("fuel", [0, -1])
def test_wh_eval_rejects_a_budget_with_no_step(fuel):
    with pytest.raises(ValueError, match="^fuel budget must be positive$"):
        wh_eval(App(DBL, Const(3)), fuel)


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


def assert_refocusing_matches(t, budget=DEFAULT_FUEL, cap=200):
    """Equal outcomes at `budget`, at every budget from 1 to one past the
    step count, capped at `cap` (`None` for no cap), and at the step count
    and the budget below it, where `wh_eval`'s replay must run out as
    stepping does."""
    full = outcome(reference_wh_eval, t, budget)
    assert outcome(wh_eval, t, budget) == full, show_term(t)
    steps = full[1] if isinstance(full[0], int) else cap
    fuels = set(range(1, steps + 2 if cap is None else min(steps + 1, cap) + 1))
    if isinstance(full[0], int):
        fuels |= {n for n in (steps - 1, steps) if n > 0}
    for fuel in sorted(fuels):
        assert outcome(wh_eval, t, fuel) == outcome(reference_wh_eval, t,
                                                    fuel), (show_term(t), fuel)


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


def test_refocusing_matches_iterated_wh_step_on_the_corpus(dbl_term):
    for t, _ in CORPUS:
        assert_refocusing_matches(t)
    for n in (0, 1, 5, 12):
        assert_refocusing_matches(App(dbl_term, Const(n)))
    for t in STUCK_OR_DIVERGENT:
        # a divergent term grows at each step, so its references cost the
        # cube of the cap
        assert_refocusing_matches(t, budget=500, cap=60)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_refocusing_matches_iterated_wh_step_on_generated_terms(seed):
    assert_refocusing_matches(gen_nat_term(random.Random(seed), (), 5))


# `wh_eval` keeps the unfolding of the `Fix` it last unfolded.  These
# programs meet `Fix` nodes it must tell apart: an inner `Fix` that is open,
# so each outer call rebuilds it with its own `y`; two closed fixes whose
# unfoldings alternate; and `delay5`'s `Fix`, built by a beta step.
NESTED_FIX = parse_term(r"fix g. \y. ifz y then 0 else "
                        r"(fix f. \x. ifz x then g (p y) else s(f (p x))) y")
ALTERNATING_FIXES = parse_term(
    r"(\d. fix f. \x. ifz x then 0 else s(d (f (p x))))"
    r" (fix h. \y. ifz y then 0 else s(s(h (p y))))")
DELAY5 = parse_term((FIXTURES / "delay5.pcf").read_text())


@pytest.mark.parametrize("t, value, steps", [
    (App(NESTED_FIX, Const(0)), 0, 3),
    (App(NESTED_FIX, Const(1)), 1, 15),
    (App(NESTED_FIX, Const(3)), 6, 68),
    (App(NESTED_FIX, Const(9)), 45, 603),
    (App(ALTERNATING_FIXES, Const(0)), 0, 4),
    (App(ALTERNATING_FIXES, Const(2)), 3, 40),
    (App(ALTERNATING_FIXES, Const(3)), 7, 205),
    (DELAY5, 5, 2),
], ids=["nested-0", "nested-1", "nested-3", "nested-9", "alternating-0",
        "alternating-2", "alternating-3", "delay5"])
def test_each_fix_unfolds_to_its_own_body(t, value, steps):
    assert wh_eval(t) == (value, steps)
    assert reference_wh_eval(t) == (value, steps)
    assert machine.run(t).value == value
    # every budget on a run of under 50 steps, so the run stops between
    # any two unfoldings; one in 1 + steps // 50 on a longer run
    for fuel in range(1, steps + 1, 1 + steps // 50):
        assert outcome(wh_eval, t, fuel) == outcome(reference_wh_eval, t, fuel)


# `wh_eval` also keeps the sites of the last `Lam` it applied.  In the nested
# program beta steps alternate between the two loops' lambdas, and the inner
# one is rebuilt at every outer call, so the slot keeps missing; `\k. \y. p y`
# has a closed body, which every beta step returns as itself; an open argument
# is shifted under the binder it is substituted below, and the open `Fix`
# is rebuilt, with its `Lam`, at every call.
@pytest.mark.parametrize("t", [
    App(NESTED_FIX, Const(12)),
    App(parse_term(r"fix f. \x. ifz x then 0 else s(f ((\k. \y. p y) 0 x))"),
        Const(4)),
    App(Lam(App(Lam(IfZ(Const(0), Const(2), TVar(1))), Const(0))), TVar(0)),
    App(Lam(App(Lam(IfZ(TVar(1), Const(2), Const(3))), Const(0))), TVar(0)),
    App(Fix(Lam(IfZ(TVar(0), TVar(2), App(TVar(1), Pred(TVar(0)))))),
        Const(3)),
], ids=["nested-12", "closed-body", "open-arg-unused", "open-arg-stuck",
        "open-fix"])
def test_refocusing_matches_when_the_lambda_slot_misses_or_is_closed(t):
    assert_refocusing_matches(t, budget=5000)


def test_each_run_of_dbl_finds_its_lambda_sites_once(monkeypatch):
    calls = []
    original = pcf.find_sites

    def counting(t, cutoff=0):
        calls.append(t)
        return original(t, cutoff)

    monkeypatch.setattr(pcf, "find_sites", counting)
    # 41 beta steps at n = 40, but one search of the `Lam`'s body, at the
    # first; every later call meets the same `Lam`.  The `Fix` unfolding
    # searches the `Fix`'s body, and the closed `Fix` it shifts under the
    # `Lam`, where it finds nothing.
    assert wh_eval(App(DBL, Const(40))) == (80, 1023)
    assert [type(t) for t in calls] == [Lam, Fix, IfZ]
    assert calls[:2] == [DBL.body, DBL]


def test_wh_eval_on_constructed_chains_50000_deep():
    # built in the library, not parsed: each contraction pops one frame,
    # so a step costs the same at any depth of the context
    succs, preds, ifzs = Const(0), Const(0), Const(0)
    for _ in range(50_000):
        succs = Succ(succs)
        preds = Pred(preds)
        ifzs = IfZ(ifzs, Const(1), Const(0))
    assert wh_eval(succs, fuel=10**6) == (50_000, 50_000)
    assert wh_eval(preds, fuel=10**6) == (0, 50_000)
    # the innermost test picks 1, the next 0, and so on: 50,000 is even
    assert wh_eval(ifzs, fuel=10**6) == (0, 50_000)
    with pytest.raises(FuelExhausted) as err:
        wh_eval(succs, fuel=49_999)
    assert err.value.budget == 49_999


# ---------------------------------------------------------------------------
# Replay: `wh_eval` records each term it reduces to a numeral in the hole of
# an s, p or ifz frame, and a later descent into the very same object adds
# its steps.  `assert_refocusing_matches` holds it to iterating `wh_step` at
# every budget up to its cap; these cases aim at replay itself.

def test_a_landing_on_the_last_frame_ticks_the_fuel():
    # both `p 5` are one object: the scrutinee records 4 in one step, and
    # `s (p 5)` lands on 4 at its fourth step, where one more step ends
    # the run; a budget of 4 runs out at the landing, not past it
    t = parse_term(r"(\y: Nat. ifz y then 0 else s y) (p 5)")
    assert wh_eval(t) == (5, 5)
    with pytest.raises(FuelExhausted) as err:
        wh_eval(t, fuel=4)
    assert err.value.budget == 4


# dbl through a function argument: `g` is applied once per positive call
# and passed on at every one.  And a branching call tree: each positive call
# tests `f (p x)` and, when it is 0, calls it again, on a copy of `p x` that
# substitution built apart from the scrutinee's.
HIGHER_ORDER_DBL = (r"(fix it: (Nat -> Nat) -> Nat -> Nat. \g: Nat -> Nat."
                    r" \x: Nat. ifz x then 0 else g (it g (p x)))"
                    r" (\y: Nat. s(s y))")
BRANCHING = (r"fix f: Nat -> Nat. \x: Nat."
             r" ifz x then 0 else ifz f (p x) then f (p x) else 0")


@pytest.mark.parametrize("text, values, machine_steps", [
    (HIGHER_ORDER_DBL, [0, 2, 4, 6, 8, 10], [8, 28, 52, 80, 112, 148]),
    (BRANCHING, [0] * 6, [6, 28, 84, 220, 540, 1276]),
], ids=["higher-order-dbl", "branching"])
def test_replay_matches_on_a_function_argument_and_a_call_tree(
        text, values, machine_steps):
    program = parse_term(text)
    assert pcf_typecheck((), program) == Arrow(NAT, NAT)
    for n, (value, steps) in enumerate(zip(values, machine_steps)):
        t = App(program, Const(n))
        assert wh_eval(t)[0] == value
        r = machine.run(t)
        assert (r.value, r.steps) == (value, steps)
        assert_refocusing_matches(t, cap=None)


@pytest.mark.parametrize("text, n", [
    (DBL_TEXT, 12), (HIGHER_ORDER_DBL, 5), (BRANCHING, 4),
], ids=["dbl", "higher-order-dbl", "branching"])
def test_earlier_runs_on_the_same_term_change_no_outcome(text, n):
    # one term object, run to the end and then at every smaller budget,
    # gives at each what a freshly parsed copy gives: the same input gives
    # the same report whatever ran before it
    t = App(parse_term(text), Const(n))
    value, steps = wh_eval(t)
    assert (value, steps) == wh_eval(App(parse_term(text), Const(n)))
    for fuel in range(steps - 1, 0, -1):
        assert outcome(wh_eval, t, fuel) == outcome(
            wh_eval, App(parse_term(text), Const(n)), fuel), fuel


def test_replay_counts_dbl_at_20000(dbl_term):
    # n(n+1)/2 + 5n + 3 steps; stepping through each of them takes about
    # 50 s, while each call's `ifz x` lands on the numeral of `p` of the
    # term the call before it tested
    started = time.monotonic()
    assert wh_eval(App(dbl_term, Const(20_000)), fuel=10**9) == (
        40_000, 200_110_003)
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("text, limit", [
    ("fix x: Nat. s x", 10**6),
    (r"(fix f: Nat -> Nat. \x: Nat. s (f x)) 0", 12 * 10**6),
    (r"(fix f: Nat -> Nat. \x: Nat. ifz (\y: Nat. y) x then 0 else f x) 1",
     10**6),
], ids=["fix-succ", "succ-of-call", "rebuilt-scrutinee"])
def test_replay_keeps_a_divergent_run_small(text, limit):
    # the first two push an s frame every few steps and open a segment at
    # each, which the next one abandons: at most one segment is open, so
    # each holds no more than its frames (0.80 and 10.45 MB without
    # replay).  The third builds a new scrutinee at every call, reduces it
    # to a numeral and drops it: the memo holds its terms weakly, so it
    # forgets each with its term (about 5 MB if it kept them)
    tracemalloc.start()
    try:
        with pytest.raises(FuelExhausted):
            wh_eval(parse_term(text), fuel=10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_each_call_builds_its_own_empty_memo(monkeypatch):
    # replay is exact, so no outcome tells a memo shared across calls from
    # a run-local one: watch the memos themselves.  Each call builds one,
    # empty, and records its segments there and nowhere else
    memos = []

    class Watched(pcf.WeakKeyDictionary):
        def __init__(self):          # empty: no initial contents
            super().__init__()
            self.writes = 0
            memos.append(self)

        def __setitem__(self, key, value):
            self.writes += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(pcf, "WeakKeyDictionary", Watched)
    for calls, n in enumerate((5, 5, 8), start=1):
        before = [m.writes for m in memos]
        assert wh_eval(App(DBL, Const(n)))[0] == 2 * n
        assert len(memos) == calls
        assert [m.writes for m in memos[:-1]] == before
        assert memos[-1].writes > 0


def test_the_reducer_imports_nothing_from_the_machine():
    # the reducer is the machine's differential oracle, so it shares no
    # code with it
    source = pathlib.Path(pcf.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [
                "dlpcf" if node.level else None, node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert imported
    assert not [name for name in imported
                if name == "dlpcf.machine" or name.startswith("dlpcf.machine.")]


def test_capture_avoidance_in_beta():
    # (\x. \y. x) y-free-term keeps the argument out of the inner binder
    const_fn = parse_term(r"(\x. \y. x) 1")
    t = wh_step(const_fn)
    assert same(t, Lam(Const(1)))


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
    assert same(wh_step(t), wh_step(t))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_show_parse_roundtrip(seed):
    t = gen_nat_term(random.Random(seed), (), 4)
    assert same(parse_term(show_term(t)), t)


# ---------------------------------------------------------------------------
# Structural walkers
#
# Recursive copies of `size`, `max_free_index`, `shift` and `subst` as they
# were before the subterm table, its iterative walkers and the size and
# bound each node holds replaced them: these must agree with them wherever
# the copies do not run out of stack.


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


@given(open_terms)
@settings(max_examples=300, deadline=None)
def test_refocusing_matches_iterated_wh_step_on_open_terms(t):
    # untyped and open: every StuckTerm message, and fuel running out
    # before, at and after a stuck step, at the machine's tests' budget
    assert_refocusing_matches(t, budget=2000, cap=30)


@given(open_terms, open_terms, st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
# both occurrences of the free variable get the annotated replacement
@example(Lam(App(TVar(1), Fix(TVar(2), NAT)), Arrow(NAT, NAT)),
         Lam(TVar(0), NAT), 2, 0, 0)
@settings(max_examples=200, deadline=None)
def test_walkers_match_the_recursive_references(t, repl, by, cutoff, j):
    assert all(size(u) == reference_size(u) for u in _subterms(t))
    assert max_free_index(t) == reference_max_free_index(t)
    assert max_free_index(t, cutoff) == reference_max_free_index(t, cutoff)
    for got, want, start in (
            (shift(t, by, cutoff), reference_shift(t, by, cutoff), cutoff),
            (subst(t, repl, j), reference_subst(t, repl, j), j)):
        assert same(got, want)
        assert annotations(got) == annotations(want)
        # the nodes rebuilt hold the bounds they were built with
        assert_built_holding_size_and_bound(got)
        assert_kept_where_nothing_changes(t, got, start)


def assert_built_holding_size_and_bound(t):
    """Every node of `t` holds the size and the bound its constructor
    computed, and they agree with the recursive references."""
    for u in _subterms(t):
        assert u._size == reference_size(u), show_term(u)
        assert u._bound == reference_max_free_index(u) + 1, show_term(u)


@given(open_terms, open_terms, st.integers(0, 10**6), st.integers(0, 3),
       st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_every_term_is_built_holding_its_size_and_bound(t, repl, seed, by, j):
    closed = t                       # `t` under enough binders to parse
    for _ in range(reference_max_free_index(t) + 1):
        closed = Lam(closed)
    generated = gen_nat_term(random.Random(seed), (), 4)
    for u in (t, generated, parse_term(show_term(closed)),
              parse_term(show_term(generated)), shift(t, by, j),
              subst(t, repl, j)):
        assert_built_holding_size_and_bound(u)


def test_every_configuration_term_holds_its_size_and_bound():
    # the machine's running size and `config_size`, which `--debug` and
    # the trace tests compare, both read the sizes the terms hold
    seen = {}                        # id -> term, kept alive so ids stay unique
    for program, _ in CORPUS:
        for c in configurations(program):
            terms = [c.term] + [closure.term for closure in c.env]
            for item in c.stack:
                match item:
                    case Arg(closure):
                        terms.append(closure.term)
                    case Branches(zero, succ, _):
                        terms += [zero, succ]
            for u in terms:
                if id(u) not in seen:
                    seen[id(u)] = u
                    assert_built_holding_size_and_bound(u)
    assert len(seen) > 100


def assert_kept_where_nothing_changes(t, got, start):
    """Every subterm of `t` with no variable at or above `start` plus the
    binders above it is in `got`, at its place, as the same object."""
    pairs = [(t, got, start)]
    while pairs:
        u, v, limit = pairs.pop()
        if reference_max_free_index(u, limit) < 0:
            assert v is u, show_term(u)
        elif not isinstance(u, TVar):
            limit += isinstance(u, (Lam, Fix))
            pairs.extend((a, b, limit) for a, b in zip(pcf.subterms(u),
                                                      pcf.subterms(v)))


def built_nodes(result, *inputs):
    """The nodes of `result` that are not objects of `inputs`, each once:
    the nodes a pass that made `result` from `inputs` built."""
    seen = {id(u): u for t in inputs for u in _subterms(t)}
    built, todo = [], [result]
    while todo:
        u = todo.pop()
        if id(u) not in seen:
            seen[id(u)] = u
            built.append(u)
            todo.extend(pcf.subterms(u))
    return built


def test_substitution_rebuilds_only_the_paths_to_the_variable(monkeypatch):
    counts = []                      # the nodes each `rebuild` built
    original = pcf.rebuild

    def counting(sites, on_var, cutoff):
        # a replacement `on_var` returns is an input, not a rebuilt node
        replacements = []

        def recorded(k, depth):
            replacements.append(on_var(k, depth))
            return replacements[-1]

        got = original(sites, recorded, cutoff)
        counts.append(len(built_nodes(got, sites[0][0], *replacements)))
        return got

    monkeypatch.setattr(pcf, "rebuild", counting)
    # one level of dbl: its `Fix` unfolds (the `Lam`, `IfZ`, two `Succ` and
    # the `App` above the recursive call) and its `Lam` meets a numeral (the
    # `IfZ`, two `Succ`, the `App` and the `Pred` above the two `x`); the
    # `Fix` itself, put under a binder or met inside the body, is kept
    lam = subst(DBL.body, DBL)
    assert lam.body.succ.body.body.fn is DBL
    body = subst(lam.body, Const(3))
    assert body.succ.body.body.fn is DBL
    assert sum(counts) == 10
    counts.clear()
    # a run of dbl at n has n + 1 levels, 258 in all; each level's beta
    # step rebuilds its 5 nodes, but `wh_eval` keeps the unfolding of the
    # `Fix` it last unfolded, so each run unfolds `DBL` once: 258 * 5 + 4 * 5
    for n in (43, 56, 70, 85):
        wh_eval(App(DBL, Const(n)))
    assert sum(counts) == 1310


def nested_succ(depth, inner=Const(0)):
    t = inner
    for _ in range(depth):
        t = Succ(t)
    return t


def test_walkers_handle_a_term_5000_deep():
    t = nested_succ(5000)
    assert size(t) == 10001
    assert max_free_index(t) == -1
    assert same(shift(t, 1), t)
    assert same(subst(t, Const(7)), t)
    opened = nested_succ(5000, TVar(0))
    assert max_free_index(opened) == 0
    assert same(shift(opened, 3), nested_succ(5000, TVar(3)))
    assert same(subst(opened, Const(7)), nested_succ(5000, Const(7)))
    # terms built apart are two objects, which `==` and `hash` tell apart
    # without reading a field, so neither recurses
    twin = nested_succ(5000, TVar(0))
    assert opened != twin and hash(opened) != hash(twin)
    assert same(opened, twin) and not same(opened, t)


# ---------------------------------------------------------------------------
# The iterative parser and typechecker against recursive references
#
# `parse_term` and `pcf_typecheck` as they were when each recursed once per
# nesting level: the explicit-stack passes must give the same tree, type or
# error (message, path and line:col) wherever these do not run out of stack.

def reference_parse_term(text):
    p = pcf._PcfParser(pcf._lex(text))
    t = _reference_parse_expr(p, ())
    if p.peek() is not None:
        raise p.error(f"trailing input {p.peek().text!r}")
    return t


def _reference_parse_expr(p, scope):
    tok = p.peek()
    if tok is None:
        raise p.error("unexpected end of input")
    if tok.text in ("\\", "fix"):
        p.next()
        name = pcf._binder_name(p)
        ann = _reference_optional_ann(p)
        p.expect(".")
        body = _reference_parse_expr(p, (name,) + scope)
        return Lam(body, ann) if tok.text == "\\" else Fix(body, ann)
    if tok.text == "ifz":
        p.next()
        scrut = _reference_parse_expr(p, scope)
        p.expect("then")
        zero = _reference_parse_expr(p, scope)
        p.expect("else")
        return IfZ(scrut, zero, _reference_parse_expr(p, scope))
    t = _reference_parse_unary(p, scope)
    while (tok := p.peek()) is not None and (
            tok.text == "(" or (tok.kind in ("num", "id")
                                and tok.text not in ("then", "else"))):
        t = App(t, _reference_parse_unary(p, scope))
    return t


def _reference_parse_unary(p, scope):
    tok = p.peek()
    if tok is not None and tok.text in ("s", "p"):
        p.next()
        inner = _reference_parse_unary(p, scope)
        return Succ(inner) if tok.text == "s" else Pred(inner)
    tok = p.next()
    if tok.kind == "num":
        return Const(int(tok.text))
    if tok.text == "(":
        t = _reference_parse_expr(p, scope)
        p.expect(")")
        return t
    if tok.kind == "id":
        if tok.text in pcf.KEYWORDS:
            raise PcfSyntaxError(f"unexpected keyword {tok.text!r}",
                                 tok.line, tok.col)
        try:
            return TVar(scope.index(tok.text))
        except ValueError:
            raise PcfSyntaxError(f"unbound identifier {tok.text!r}",
                                 tok.line, tok.col) from None
    raise PcfSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _reference_optional_ann(p):
    if p.peek() is not None and p.peek().text == ":":
        p.next()
        return reference_parse_type(p)
    return None


def reference_parse_type(p):
    tok = p.next()
    if tok.text == "Nat":
        left = NAT
    elif tok.text == "(":
        left = reference_parse_type(p)
        p.expect(")")
    else:
        raise PcfSyntaxError(f"expected a type, got {tok.text!r}",
                             tok.line, tok.col)
    if p.peek() is not None and p.peek().text == "->":
        p.next()
        return Arrow(left, reference_parse_type(p))
    return left


def reference_show_pcf_type(t):
    if isinstance(t, Arrow):
        dom = reference_show_pcf_type(t.dom)
        if isinstance(t.dom, Arrow):
            dom = f"({dom})"
        return f"{dom} -> {reference_show_pcf_type(t.cod)}"
    if isinstance(t, NatT):
        return "Nat"
    raise TypeError(f"not a PCF type: {t!r}")


def reference_typecheck(gamma, t, path=()):
    def fail(message):
        where = " of ".join(reversed(path)) if path else "the whole term"
        return PcfTypeError(f"{message} (in {where})")

    show = reference_show_pcf_type
    match t:
        case TVar(k):
            if k >= len(gamma):
                raise fail(f"variable index {k} out of scope")
            return gamma[k]
        case Const():
            return NAT
        case Succ(b) | Pred(b):
            inner = reference_typecheck(gamma, b, path + ("the body",))
            if inner != NAT:
                raise fail(f"s/p expects Nat, got {show(inner)}")
            return NAT
        case Lam(b, ann):
            if ann is None:
                raise fail("lambda binder lacks a type annotation")
            return Arrow(ann, reference_typecheck((ann,) + gamma, b,
                                                  path + ("the body",)))
        case App(f, a):
            fn_ty = reference_typecheck(gamma, f, path + ("the function",))
            if not isinstance(fn_ty, Arrow):
                raise fail(f"applying a non-function of type {show(fn_ty)}")
            arg_ty = reference_typecheck(gamma, a, path + ("the argument",))
            if arg_ty != fn_ty.dom:
                raise fail(f"argument type {show(arg_ty)} does not match "
                           f"domain {show(fn_ty.dom)}")
            return fn_ty.cod
        case IfZ(s, z, u):
            if reference_typecheck(gamma, s,
                                   path + ("the scrutinee",)) != NAT:
                raise fail("ifz scrutinee must have type Nat")
            zt = reference_typecheck(gamma, z, path + ("the zero branch",))
            ut = reference_typecheck(gamma, u,
                                     path + ("the successor branch",))
            if zt != ut:
                raise fail(f"ifz branches disagree: {show(zt)} vs {show(ut)}")
            return zt
        case Fix(b, ann):
            if ann is None:
                raise fail("fix binder lacks a type annotation")
            got = reference_typecheck((ann,) + gamma, b, path + ("the body",))
            if got != ann:
                raise fail(f"fix body has type {show(got)}, "
                           f"annotation says {show(ann)}")
            return ann


def parsed(parse, text):
    """The tree and its binder annotations, or the error's type, message
    and line:col."""
    try:
        t = parse(text)
    except PcfSyntaxError as e:
        return type(e), str(e), e.line, e.col
    return t, annotations(t)


def typed(typecheck, gamma, t):
    try:
        return typecheck(gamma, t)
    except PcfTypeError as e:
        return type(e), str(e)


VOCABULARY = ["\\", "fix", "ifz", "then", "else", "s", "p", "(", ")", ".",
              ":", "->", "Nat", "0", "7", "x", "y", "f", "x'", "#c\n", "\n",
              "@"]
tokens = st.lists(st.sampled_from(VOCABULARY), max_size=24)


@st.composite
def edited_programs(draw):
    """A shown random term with a few tokens deleted, replaced or inserted:
    well-formed text and text that fails deep inside."""
    words = show_term(draw(open_terms), 0, ("x", "y")).split(" ")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit != "insert" and at < len(words):
            del words[at]
        if edit != "delete":
            words.insert(at, draw(st.sampled_from(VOCABULARY)))
    return draw(st.sampled_from([" ", "  ", "\n"])).join(words)


@given(st.one_of(tokens.map(" ".join), tokens.map("".join), edited_programs(),
                 open_terms.map(lambda t: show_term(t, 0, ("x",)))
                 .map(lambda text: f"\\x: Nat -> Nat. {text}")))
@example(r"\x. \y. x y (s y) p x")
@example("ifz ifz 0 then 1 else 2 then (fix f: Nat. f) else x")
@example(r"\f: (Nat -> Nat) -> Nat. f (\x. x) 3")
@settings(max_examples=600, deadline=None)
def test_parser_matches_the_recursive_reference(text):
    assert same(parsed(parse_term, text), parsed(reference_parse_term, text))


PCF_TYPES = [NAT, Arrow(NAT, NAT), Arrow(Arrow(NAT, NAT), NAT),
             Arrow(NAT, Arrow(NAT, NAT))]
pcf_types = st.recursive(st.just(NAT), lambda sub: st.builds(Arrow, sub, sub),
                         max_leaves=8)


def parsed_type(parse, text):
    """The type and the tokens read, or the error's type, message and
    line:col."""
    p = pcf._PcfParser(pcf._lex(text))
    try:
        return parse(p), p.pos
    except PcfSyntaxError as e:
        return type(e), str(e), e.line, e.col


TYPE_VOCABULARY = ["Nat", "(", ")", "->", "x", ".", "\n"]


@given(pcf_types.map(pcf.show_pcf_type)
       | st.lists(st.sampled_from(TYPE_VOCABULARY), max_size=16).map(" ".join))
@example("(Nat -> Nat) -> Nat . x")
@example("((Nat -> (Nat)) -> Nat")
@settings(max_examples=400, deadline=None)
def test_type_parser_matches_the_recursive_reference(text):
    assert (parsed_type(pcf._parse_type, text)
            == parsed_type(reference_parse_type, text))


@given(pcf_types)
@settings(max_examples=200, deadline=None)
def test_type_printer_matches_the_recursive_reference(t):
    text = pcf.show_pcf_type(t)
    assert text == reference_show_pcf_type(t)
    assert parsed_type(pcf._parse_type, text) == (t, len(pcf._lex(text)))


def test_type_printer_names_what_is_not_a_type():
    for bad in (Const(0), Arrow(NAT, Const(1)), Arrow(Arrow(TVar(2), NAT), 3)):
        with pytest.raises(TypeError) as got:
            pcf.show_pcf_type(bad)
        with pytest.raises(TypeError) as want:
            reference_show_pcf_type(bad)
        assert str(got.value) == str(want.value)

# Terms with every binder annotation, or none.
typed_terms = st.recursive(
    st.builds(TVar, st.integers(0, 3)) | st.builds(Const, st.integers(0, 3)),
    lambda sub: (st.builds(Succ, sub) | st.builds(Pred, sub)
                 | st.builds(Lam, sub, st.sampled_from([None] + PCF_TYPES))
                 | st.builds(Fix, sub, st.sampled_from([None] + PCF_TYPES))
                 | st.builds(App, sub, sub) | st.builds(IfZ, sub, sub, sub)),
    max_leaves=10)


# Open, ill-typed and unannotated terms, and well-typed ones from genterms.
@given(st.lists(st.sampled_from(PCF_TYPES), max_size=3),
       typed_terms | st.integers(0, 10**6).map(
           lambda seed: gen_nat_term(random.Random(seed), (), 5)))
# the function is typed, and found not to be an arrow, before the argument
@example([], App(Const(0), TVar(2)))
@example([NAT], IfZ(Lam(TVar(0), NAT), TVar(3), Const(0)))
@settings(max_examples=600, deadline=None)
def test_typechecker_matches_the_recursive_reference(gamma, t):
    assert typed(pcf_typecheck, gamma, t) == typed(reference_typecheck,
                                                    tuple(gamma), t)


DEEP = 5000


def deep_chains():
    """Terms nested DEEP levels: s(...), annotated lambdas, an application
    spine and ifz scrutinees, each with its source text."""
    lams, spine, ifzs = Const(0), TVar(0), Const(0)
    for _ in range(DEEP):
        lams = Lam(lams, NAT)
        spine = App(spine, Const(1))
        ifzs = IfZ(ifzs, Const(1), Const(0))
    return {
        "succ": (nested_succ(DEEP), "s(" * DEEP + "0" + ")" * DEEP),
        "lam": (lams, "".join(f"\\x{d}. " for d in range(DEEP)) + "0"),
        "spine": (Lam(spine, NAT), r"\x0. x0" + " 1" * DEEP),
        "ifz": (ifzs, "ifz " * DEEP + "0" + " then 1 else 0" * DEEP),
    }


def test_show_and_parse_handle_terms_5000_deep():
    for name, (t, text) in deep_chains().items():
        assert same(parse_term(text), t), name
    annotated = parse_term("".join(f"\\x{d}: Nat. " for d in range(DEEP))
                           + "x0")
    binders, node = [], annotated
    while isinstance(node, Lam):
        binders.append(node)
        node = node.body
    assert all(b.ann == NAT for b in binders)
    assert len(binders) == DEEP
    assert same(node, TVar(DEEP - 1))
    assert same(parse_term("(" * DEEP + "0" + ")" * DEEP), Const(0))
    right = Const(0)
    for _ in range(DEEP):
        right = App(TVar(0), right)
    assert same(parse_term(r"\f. " + "f (" * DEEP + "0" + ")" * DEEP),
                     Lam(right))


def arrows(depth):
    """Nat -> Nat -> ... -> Nat with `depth` arrows."""
    ty = NAT
    for _ in range(depth):
        ty = Arrow(NAT, ty)
    return ty


def left_arrows(depth):
    """(...((Nat -> Nat) -> Nat)...) -> Nat with `depth` arrows."""
    ty = NAT
    for _ in range(depth):
        ty = Arrow(ty, NAT)
    return ty


LEFT_TEXT = "(" * (DEEP - 1) + "Nat" + " -> Nat)" * (DEEP - 1) + " -> Nat"
RIGHT_TEXT = "Nat -> " * DEEP + "Nat"


@pytest.mark.parametrize("ty, text, shown", [
    (left_arrows(DEEP), LEFT_TEXT, LEFT_TEXT),
    (arrows(DEEP), RIGHT_TEXT, RIGHT_TEXT),
    (NAT, "(" * DEEP + "Nat" + ")" * DEEP, "Nat"),
], ids=["left", "right", "parentheses"])
def test_types_5000_deep_parse_and_print(ty, text, shown):
    t = parse_term(rf"\x: {text}. 0")
    # the parser builds the annotation apart from `ty`; PCF types are
    # interned, so `==` between them does not recurse
    assert t.ann == ty
    assert pcf.show_pcf_type(t.ann) == shown
    dom = f"({shown})" if isinstance(ty, Arrow) else shown
    assert pcf.show_pcf_type(pcf_typecheck((), t)) == f"{dom} -> Nat"


def test_typechecker_handles_terms_5000_deep():
    chains = {name: t for name, (t, _) in deep_chains().items()}
    assert pcf_typecheck((), chains["succ"]) == NAT
    assert pcf_typecheck((), chains["ifz"]) == NAT
    ty = pcf_typecheck((), chains["lam"])
    for _ in range(DEEP):
        assert ty.dom == NAT
        ty = ty.cod
    assert ty == NAT
    spine = chains["spine"].body
    assert pcf_typecheck((arrows(DEEP),), spine) == NAT
    with pytest.raises(PcfTypeError) as err:
        pcf_typecheck((), chains["spine"])
    assert str(err.value) == (
        "applying a non-function of type Nat (in "
        + " of ".join(["the function"] * (DEEP - 1) + ["the body"]) + ")")
    with pytest.raises(PcfTypeError) as err:
        pcf_typecheck((), nested_succ(DEEP, Lam(TVar(0))))
    assert str(err.value) == ("lambda binder lacks a type annotation (in "
                              + " of ".join(["the body"] * DEEP) + ")")
