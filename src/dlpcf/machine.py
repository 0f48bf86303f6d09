"""Cost-counting Krivine machine for PCF.

Configurations are (term, environment, stack) triples plus a step counter.
Every transition costs exactly one step, including the pushes for s(t) and
p(t); this makes the measured step count the quantity bounded by the
weighted typing discipline.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, TextIO, Union

from .fuel import DEFAULT_FUEL, FuelExhausted, check_budget
from .pcf import (App, Const, Fix, IfZ, Lam, Numerals, Pred, Succ, Term,
                  TVar, max_free_index, size, term_head)
from .record import Interned, Record, _put

__all__ = [
    "Closure", "Environment", "Arg", "SMark", "PMark", "Branches",
    "StackItem", "RunResult", "run", "config_size",
    "ClosedTermRequired", "StuckConfiguration",
]


class Closure(Record):
    """A term with the environment its variables index into.

    `memo` stays None until `run` has seen the closure, entered over a
    stack of some height, reach a numeral over that same height; then it is
    `(numeral, k, local)`: the numeral, the steps after the entering `var`
    step up to it, and the largest configuration in between less the stack
    under it.  Those are the same whatever the stack below holds, since no
    step in between reads it."""
    _fields = ("term", "env")
    memo = None

    def __init__(self, term: Term, env: "Environment"):
        # every `app` and `fix` step builds one: Record's loop over the
        # fields made the machine's runs of dbl at n <= 8 about 8% slower
        _put(self, "term", term)
        _put(self, "env", env)


Environment = tuple[Closure, ...]


class Arg(NamedTuple):
    closure: Closure


class SMark(Record, metaclass=Interned):
    pass


class PMark(Record, metaclass=Interned):
    pass


class Branches(NamedTuple):
    zero: Term
    succ: Term
    env: "Environment"


StackItem = Union[Arg, SMark, PMark, Branches]

_S = SMark()
_P = PMark()


class ClosedTermRequired(ValueError):
    pass


class StuckConfiguration(Exception):
    """Reached a configuration no transition covers; impossible for
    well-typed programs."""


def _item_size(item: StackItem) -> int:
    match item:
        case Arg(closure):
            return size(closure.term)
        case SMark() | PMark():
            return 1
        case Branches(zero, succ, _):
            return size(zero) + size(succ)
    raise TypeError(f"not a stack item: {item!r}")


def config_size(term: Term, stack: Sequence[StackItem]) -> int:
    """Size of the focused term plus the sizes of all stack items; the
    environment does not count."""
    return size(term) + sum(_item_size(item) for item in stack)


class RunResult(NamedTuple):
    value: int
    steps: int
    max_config_size: int


def _saved_within(term: Term, limit: int) -> None:
    """Debug-mode invariant: a term saved in a closure or a stack item is
    no larger than the initial program."""
    assert size(term) <= limit, (
        f"saved term of size {size(term)} exceeds {limit}")


def run(t: Term, fuel: int = DEFAULT_FUEL, *, debug: bool = False,
        trace: Optional[TextIO] = None) -> RunResult:
    """Run the machine on the closed program `t` to a final numeral.

    Reports the exact step count and the maximum configuration size seen.
    `debug` asserts the environment-size invariant; `trace` writes one line
    per step: step#, rule tag, |C|, term head.  A traced run steps through
    every transition; an untraced one replays closures, as below.

    One loop over the configuration held in local variables: the stack is
    a list with its top at the end, so a push or a pop costs O(1) at any
    depth.  A numeral over an empty stack is final; every other
    configuration takes one transition, or raises StuckConfiguration.  The
    tests keep the one-step transition relation as the specification:
    iterating it counts the same steps, ticks the same fuel and raises the
    same errors.  Fuel is counted on `steps`: every configuration, the
    final one included, ticks once, and the ticks before it number
    `steps`.

    Replay counts call by name with the update of a lazy machine (Sestoft,
    "Deriving a lazy abstract machine", JFP 1997), for the count only.  A
    `var` step that enters a closure over a stack of height h opens a
    segment.  The first numeral over height h closes it, before that
    numeral pops anything, and records on the closure its `memo` (see
    `Closure`).  A `lam` step that pops below h abandons the segment: the
    closure is not a numeral there.  A later `var` step to a recorded
    closure lands on its numeral with `steps` and the largest size raised
    as the steps skipped would have raised them, so a recorded closure is
    not run again however often it is looked up.  Fuel needs nothing
    more: `steps` only grows, so the tick at the landing configuration
    raises FuelExhausted whenever a skipped one would have.  While
    segments are open, `max_size` is the largest size since the innermost
    one opened, and a segment that closes or is abandoned gives the
    enclosing one the larger of the two.

    Two rules bound what the open segments hold.  A segment opened over
    the height of the innermost open one abandons that one, so at most one
    is open per stack height, as a lazy machine squeezes adjacent update
    frames.  A closure over a `fix` opens none: at a function type its
    lambda abandons the segment, and at Nat it reaches a numeral only when
    its body never needs its own variable; so a loop such as `fix x. s x`,
    which enters one such closure per stack item, holds no segment.

    The configuration size is kept as it goes: every term holds its size,
    and a step pushes or pops at most the top stack item, so the stack's
    share changes by that item's size.  The numerals the s and p steps
    make come from a table made for this run, so each is built once.
    The step kinds are tested in the order of how often they occur on a
    recursive program such as `dbl`: a numeral consumed by the top of
    the stack (a `p` mark first), a variable, a `p` push, an `s` push, and
    then the application, lambda, `ifz` and `fix` steps, one each per call.
    `debug` asserts that the running size equals `config_size`, its
    specification, at every configuration the run visits, and that each
    term saved in a closure or a stack item is no larger than `t` when it
    is saved: closures never change their term or environment and the run
    starts with an empty environment, so those are all the terms the
    environments can reach.
    """
    check_budget(fuel)
    if max_free_index(t) >= 0:
        raise ClosedTermRequired("machine programs must be closed")
    numerals = Numerals()
    limit = max_size = t._size
    term: Term = t
    env: Environment = ()
    stack: list[StackItem] = []
    stack_size = steps = 0
    replay = trace is None
    # open segments, innermost last: (closure, the enclosing segment's
    # height, steps at entry, stack size at entry, max_size at entry)
    segments: list[tuple[Closure, int, int, int, int]] = []
    height = -1                  # of the innermost open segment
    while True:
        if debug:
            assert term._size + stack_size == config_size(term, stack)
        if steps >= fuel:            # the tick of every configuration
            raise FuelExhausted(fuel)
        kind = type(term)
        if kind is Const:
            if len(stack) == height:
                closure, height, entry, base, saved = segments.pop()
                _put(closure, "memo", (term, steps - entry, max_size - base))
                if saved > max_size:
                    max_size = saved
            if not stack:
                return RunResult(term.value, steps, max_size)
            top = stack.pop()
            if top is _P:
                stack_size -= 1
                n = term.value
                term, tag = numerals[n - 1 if n else 0], "p-apply"
            elif top is _S:
                stack_size -= 1
                term, tag = numerals[term.value + 1], "s-apply"
            elif type(top) is Branches:
                stack_size -= top.zero._size + top.succ._size
                env = top.env
                if term.value == 0:
                    term, tag = top.zero, "ifz-zero"
                else:
                    term, tag = top.succ, "ifz-succ"
            else:
                raise StuckConfiguration("numeral applied to an argument")
        elif kind is TVar:
            if term.index >= len(env):
                raise StuckConfiguration(
                    f"variable {term.index} outside the environment")
            closure = env[term.index]
            memo = closure.memo
            if memo is not None:
                term, skipped, local = memo
                steps += skipped
                if local + stack_size > max_size:
                    max_size = local + stack_size
            else:
                if replay and type(closure.term) is not Fix:
                    if len(stack) == height:
                        _, height, _, _, saved = segments.pop()
                        if saved > max_size:
                            max_size = saved
                    segments.append((closure, height, steps + 1, stack_size,
                                     max_size))
                    height = len(stack)
                    max_size = 0
                term, env = closure.term, closure.env
            tag = "var"
        elif kind is Pred:
            stack.append(_P)
            stack_size += 1
            term, tag = term.body, "p-push"
        elif kind is Succ:
            stack.append(_S)
            stack_size += 1
            term, tag = term.body, "s-push"
        elif kind is App:
            arg = term.arg
            if debug:
                _saved_within(arg, limit)
            stack.append(Arg(Closure(arg, env)))
            stack_size += arg._size
            term, tag = term.fn, "app"
        elif kind is Lam:
            if not stack or type(stack[-1]) is not Arg:
                raise StuckConfiguration("lambda against a non-argument stack")
            closure = stack.pop().closure
            if len(stack) < height:
                _, height, _, _, saved = segments.pop()
                if saved > max_size:
                    max_size = saved
            stack_size -= closure.term._size
            term, env, tag = term.body, (closure,) + env, "lam"
        elif kind is IfZ:
            zero, succ = term.zero, term.succ
            if debug:
                _saved_within(zero, limit)
                _saved_within(succ, limit)
            stack.append(Branches(zero, succ, env))
            stack_size += zero._size + succ._size
            term, tag = term.scrut, "ifz"
        elif kind is Fix:
            if debug:
                _saved_within(term, limit)
            term, env, tag = term.body, (Closure(term, env),) + env, "fix"
        else:
            raise StuckConfiguration(f"no transition for {term_head(term)}")
        steps += 1
        now = term._size + stack_size
        if trace is not None:
            trace.write(f"{steps}\t{tag}\t{now}\t{term_head(term)}\n")
        if now > max_size:
            max_size = now
