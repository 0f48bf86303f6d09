import io
import random
import time
from dataclasses import dataclass
from typing import Union

import pytest
from hypothesis import given, settings, strategies as st

from dlpcf import pcf
from dlpcf.fuel import DEFAULT_FUEL, Fuel, FuelExhausted
from dlpcf.machine import (Arg, Branches, ClosedTermRequired, Closure,
                           Environment, PMark, RunResult, SMark, StackItem,
                           StuckConfiguration, config_size, run)
from dlpcf.pcf import (App, Const, Fix, IfZ, Lam, Pred, Succ, Term, TVar,
                       max_free_index, parse_term, term_head, wh_eval)

from genterms import gen_nat_term, open_terms


# ---------------------------------------------------------------------------
# The machine's one-step specification: `run` is one loop over a mutable
# stack, and iterating `machine_step` from `load` must count the same
# steps, tick the same fuel, trace the same lines and raise the same errors.

@dataclass(frozen=True)
class Configuration:
    term: Term
    env: Environment
    stack: tuple[StackItem, ...]
    steps: int = 0


@dataclass(frozen=True)
class Final:
    value: int
    steps: int


def load(t: Term) -> Configuration:
    if max_free_index(t) >= 0:
        raise ClosedTermRequired("machine programs must be closed")
    return Configuration(t, (), (), 0)


def machine_step(c: Configuration) -> tuple[Union[Configuration, Final], str]:
    """One transition.  Returns the next configuration (or Final when the
    term is a numeral over an empty stack) and a rule tag for tracing.
    The stack is a tuple with its top first."""
    term, env, stack, steps = c.term, c.env, c.stack, c.steps
    match term:
        case App(fn, arg):
            return (Configuration(fn, env, (Arg(Closure(arg, env)),) + stack,
                                  steps + 1), "app")
        case Lam(body):
            if stack and isinstance(stack[0], Arg):
                return (Configuration(body, (stack[0].closure,) + env,
                                      stack[1:], steps + 1), "lam")
            raise StuckConfiguration("lambda against a non-argument stack")
        case TVar(k):
            if k >= len(env):
                raise StuckConfiguration(f"variable {k} outside the environment")
            closure = env[k]
            return (Configuration(closure.term, closure.env, stack,
                                  steps + 1), "var")
        case IfZ(scrut, zero, succ):
            return (Configuration(scrut, env, (Branches(zero, succ, env),) + stack,
                                  steps + 1), "ifz")
        case Fix(body):
            return (Configuration(body, (Closure(term, env),) + env, stack,
                                  steps + 1), "fix")
        case Succ(inner):
            return (Configuration(inner, env, (SMark(),) + stack, steps + 1),
                    "s-push")
        case Pred(inner):
            return (Configuration(inner, env, (PMark(),) + stack, steps + 1),
                    "p-push")
        case Const(n):
            if not stack:
                return Final(n, steps), "final"
            top = stack[0]
            match top:
                case SMark():
                    return (Configuration(Const(n + 1), env, stack[1:],
                                          steps + 1), "s-apply")
                case PMark():
                    return (Configuration(Const(max(0, n - 1)), env, stack[1:],
                                          steps + 1), "p-apply")
                case Branches(zero, succ, saved):
                    if n == 0:
                        return (Configuration(zero, saved, stack[1:],
                                              steps + 1), "ifz-zero")
                    return (Configuration(succ, saved, stack[1:],
                                          steps + 1), "ifz-succ")
                case Arg(_):
                    raise StuckConfiguration("numeral applied to an argument")
    raise StuckConfiguration(f"no transition for {term_head(term)}")


def size_of(c: Configuration) -> int:
    return config_size(c.term, c.stack)


def reference_run(t, fuel=DEFAULT_FUEL, *, trace=None):
    """`run` by its specification: `machine_step` iterated from `load`, one
    fuel tick per transition (the final one included), every configuration
    sized from scratch."""
    gas = Fuel(fuel)
    current = load(t)
    max_size = size_of(current)
    while True:
        gas.tick()
        nxt, tag = machine_step(current)
        if isinstance(nxt, Final):
            return RunResult(nxt.value, nxt.steps, max_size)
        now = size_of(nxt)
        if trace is not None:
            trace.write(f"{nxt.steps}\t{tag}\t{now}\t{term_head(nxt.term)}\n")
        max_size = max(max_size, now)
        current = nxt


def outcome(evaluate, t, fuel, **options):
    """The run's result or the type and message of the exception it raised,
    with the bytes it traced."""
    buf = io.StringIO()
    try:
        got = evaluate(t, fuel, trace=buf, **options)
    except (StuckConfiguration, ClosedTermRequired, FuelExhausted) as e:
        got = (type(e), str(e))
    return got, buf.getvalue()


def assert_run_matches_spec(t, cap=200, budget=10**5):
    """Equal outcomes at `budget` (under `debug`) and at every budget from 1
    to one past the step count, capped at `cap`."""
    full = outcome(reference_run, t, budget)
    assert outcome(run, t, budget, debug=True) == full, pcf.show_term(t)
    result = full[0]
    steps = result.steps if isinstance(result, RunResult) else cap
    for fuel in range(1, min(steps + 1, cap) + 1):
        assert outcome(run, t, fuel) == outcome(reference_run, t, fuel), (
            pcf.show_term(t), fuel)


def P(text):
    return parse_term(text)


# A fixed corpus of closed Nat programs with hand-checked values where the
# arithmetic is immediate; the machine and the reducer must agree on all.
CORPUS = [
    (P("0"), 0),
    (P("41"), 41),
    (P("s(s(0))"), 2),
    (P("p 0"), 0),                                   # truncation at zero
    (P("p (p (s(s(s 0))))"), 1),
    (P("s(p 0)"), 1),
    (P(r"(\x. x) 0"), 0),
    (P(r"(\x. s x) 4"), 5),
    (P(r"(\x. \y. x) 1 2"), 1),
    (P(r"(\x. \y. y) 1 2"), 2),
    (P(r"(\x. (\x. x) 2) 1"), 2),                    # shadowing
    (P(r"(\f. \x. f (f x)) (\y. s y) 3"), 5),        # higher order
    (P(r"(\f. f 3) (\x. s(s x))"), 5),
    (P("ifz 0 then 7 else 8"), 7),
    (P("ifz 3 then 7 else 8"), 8),
    (P("ifz p 1 then 7 else 8"), 7),
    (P("ifz 0 then 1 else (fix d. d)"), 1),          # divergent dead branch
    (P(r"(\x. ifz x then x else s x) 0"), 0),
    (P(r"(\x. ifz x then x else s x) 9"), 10),
    (P(r"(fix f. \x. ifz x then 42 else f (p x)) 5"), 42),
    (P(r"(fix f. \x. ifz x then 0 else s(s(f (p x)))) 0"), 0),
    (P(r"(fix f. \x. ifz x then 0 else s(s(f (p x)))) 3"), 6),
    (P(r"(fix a. \x. \y. ifz x then y else s (a (p x) y)) 3 4"), 7),
    (P(r"(fix a. \x. \y. ifz x then y else s (a (p x) y)) 0 9"), 9),
    (P(r"(\g. g (g 1)) ((fix f. \x. ifz x then 0 else s(s(f (p x)))))"), 4),
    (P("ifz s 0 then 3 else p 5"), 4),
    (P(r"(fix f. \x. ifz x then 0 else s(s(f x))) 0"), 0),  # omega at zero
]


def test_load_requires_closed_terms():
    for t in (TVar(0), Lam(App(TVar(0), TVar(1)))):
        with pytest.raises(ClosedTermRequired):
            load(t)
        with pytest.raises(ClosedTermRequired):
            run(t)


def test_load_shape(dbl_term):
    c = load(dbl_term)
    assert c == Configuration(dbl_term, (), (), 0)


def test_final_detection():
    c = load(Const(0))
    nxt, tag = machine_step(c)
    assert nxt == Final(0, 0) and tag == "final"


def test_succ_takes_two_steps():
    # (s(0), e, e) -> (0, e, S) -> (1, e, e)
    r = run(Succ(Const(0)))
    assert (r.value, r.steps) == (1, 2)


def test_identity_application_takes_three_steps():
    r = run(App(Lam(TVar(0)), Const(0)))
    assert (r.value, r.steps) == (0, 3)


def test_constant_is_already_final():
    r = run(Const(5))
    assert (r.value, r.steps, r.max_config_size) == (5, 0, 1)


def test_branch_step_restores_saved_environment():
    saved = (Closure(Const(9), ()),)
    c = Configuration(Const(0), (Closure(Const(1), ()),),
                      (Branches(TVar(0), Const(2), saved),), 0)
    nxt, tag = machine_step(c)
    assert tag == "ifz-zero"
    assert nxt.term == TVar(0) and nxt.env == saved


def test_pred_on_zero_truncates():
    r = run(Pred(Const(0)))
    assert (r.value, r.steps) == (0, 2)


def test_dbl_runs(dbl_term):
    r0 = run(App(dbl_term, Const(0)))
    r3 = run(App(dbl_term, Const(3)))
    assert r0.value == 0 and r3.value == 6
    assert r0.steps < r3.steps
    # hand-traced transition counts for small inputs
    assert r0.steps == 6
    assert run(App(dbl_term, Const(1))).steps == 20
    assert run(App(dbl_term, Const(2))).steps == 37
    # the closed form 3n(n+1)/2 + 11n + 6: three times the reducer's
    # quadratic part, where each unfolding re-reduces p(...(p n)) to test it
    for n in (0, 1, 2, 3, 17, 640):
        r = run(App(dbl_term, Const(n)))
        assert (r.value, r.steps) == (2 * n, 3 * n * (n + 1) // 2 + 11 * n + 6)
    assert r.steps == 622_406


def test_omega_exhausts_fuel(omega_term):
    with pytest.raises(FuelExhausted):
        run(App(omega_term, Const(1)), fuel=30000)


def test_omega_exhausts_a_large_budget(omega_term):
    # the stack keeps growing: if a step re-sized the whole configuration
    # this would take time growing as about fuel^1.5, tens of seconds
    with pytest.raises(FuelExhausted) as err:
        run(App(omega_term, Const(1)), fuel=200_000)
    assert err.value.budget == 200_000


STUCK = [
    ("0 1", "numeral applied to an argument"),
    (r"(\x. s x) 2 3", "numeral applied to an argument"),
    # a lambda over an empty stack has no transition (non-Nat program)
    (r"\x. x", "lambda against a non-argument stack"),
    (r"ifz (\x. x) then 0 else 1", "lambda against a non-argument stack"),
    (r"s (\x. x)", "lambda against a non-argument stack"),
]


def test_stuck_configuration_on_ill_typed_term():
    for text, message in STUCK:
        term = P(text)
        assert outcome(run, term, 100)[0] == (StuckConfiguration, message)
        assert_run_matches_spec(term)


def test_corpus_values_and_agreement():
    assert len(CORPUS) >= 20
    for term, expected in CORPUS:
        r = run(term, debug=True)
        value, _ = wh_eval(term)
        assert r.value == expected, pcf.show_term(term)
        assert value == expected, pcf.show_term(term)


def configurations(term):
    """Every configuration the machine passes through on `term`, in order,
    up to the final numeral."""
    current = load(term)
    while not isinstance(current, Final):
        yield current
        current, _ = machine_step(current)


def test_environment_size_lemma_on_corpus():
    for term, _ in CORPUS:
        limit = pcf.size(term)
        seen = list(configurations(term))
        for c in seen:
            for closure in c.env:
                assert pcf.size(closure.term) <= limit
        assert seen


def test_config_size_accounting():
    env = (Closure(Const(1), ()),)
    stack = (Arg(Closure(Succ(Const(0)), ())),
             Branches(Const(1), Succ(Const(2)), env))
    # 1 (term) + 3 (argument closure) + (1 + 3) (branch terms)
    assert config_size(Const(0), stack) == 8
    assert config_size(Succ(Const(0)), stack + (SMark(), PMark())) == 12


def test_replay_is_deterministic(dbl_term):
    prog = App(dbl_term, Const(2))
    first = list(configurations(prog))
    second = list(configurations(prog))
    assert first == second


def test_trace_output(dbl_term, tmp_path):
    buf = io.StringIO()
    r = run(App(dbl_term, Const(1)), trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == r.steps
    first = lines[0].split("\t")
    assert first[0] == "1" and first[1] == "app"
    assert all(len(line.split("\t")) == 4 for line in lines)


def assert_trace_sizes_exact(term):
    """The |C| column of the trace is `config_size` of the configuration
    each line reaches, and `max_config_size` is the largest of them."""
    buf = io.StringIO()
    r = run(term, trace=buf)
    sizes = [size_of(c) for c in configurations(term)]
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(sizes) - 1 == r.steps
    for line in lines:
        step, _, traced, _ = line.split("\t")
        assert int(traced) == sizes[int(step)], (pcf.show_term(term), line)
    assert r.max_config_size == max(sizes)


def test_trace_sizes_are_exact_on_the_corpus(dbl_term):
    for term, _ in CORPUS:
        assert_trace_sizes_exact(term)
    for n in (0, 1, 5, 12):
        assert_trace_sizes_exact(App(dbl_term, Const(n)))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_trace_sizes_are_exact_on_generated_terms(seed):
    assert_trace_sizes_exact(gen_nat_term(random.Random(seed), (), 5))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_machine_agrees_with_reducer_on_generated_terms(seed):
    term = gen_nat_term(random.Random(seed), (), 4)
    try:
        value, _ = wh_eval(term, fuel=50000)
    except FuelExhausted:
        return
    r = run(term, fuel=10**6, debug=True)
    assert r.value == value


def test_max_config_size_never_below_initial(dbl_term):
    prog = App(dbl_term, Const(4))
    r = run(prog)
    assert r.max_config_size >= pcf.size(prog)


def test_machine_runs_a_term_5000_deep():
    t = Const(0)
    for _ in range(5000):
        t = Succ(t)
    result = run(t)
    assert (result.value, result.steps) == (5000, 10000)


def test_machine_runs_a_term_50000_deep():
    # built in the library: the parser and the spec's tuple stack are not
    # involved, and a push or a pop costs the same at any depth
    t = Const(0)
    for _ in range(50_000):
        t = Succ(t)
    result = run(t)
    assert (result.value, result.steps) == (50_000, 100_000)
    assert result.max_config_size == 2 * 50_000 + 1


def nested_applications(depth):
    """`(\\x. (\\x. ... x) x ...) 0`: `depth` lambdas, each applied to the
    variable of the one around it, so the environment holds `depth`
    closures, each over the environment before it."""
    body = TVar(0)
    for _ in range(depth - 1):
        body = App(Lam(body), TVar(0))
    return App(Lam(body), Const(0))


def test_debug_run_checks_each_saved_term_once():
    # re-walking every closure the environment reaches at every step costs
    # time cubic in the depth here, about a minute at 400; checking each
    # saved term once, when it is saved, takes a fraction of a second
    term = nested_applications(400)
    started = time.monotonic()
    result = run(term, debug=True)
    elapsed = time.monotonic() - started
    assert (result.value, result.steps, result.max_config_size) == (0, 1200, 1201)
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# `run` against its specification, at every fuel budget up to the step count

def test_run_matches_the_specification_on_the_corpus(dbl_term):
    for term, _ in CORPUS:
        assert_run_matches_spec(term)
    for n in (0, 1, 5, 12):
        assert_run_matches_spec(App(dbl_term, Const(n)))


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_run_matches_the_specification_on_generated_terms(seed):
    assert_run_matches_spec(gen_nat_term(random.Random(seed), (), 5))


@given(open_terms)
@settings(max_examples=200, deadline=None)
def test_run_matches_the_specification_on_untyped_terms(t):
    # open terms, stuck configurations, and fixpoints that never stop
    assert_run_matches_spec(t, cap=30, budget=2000)
