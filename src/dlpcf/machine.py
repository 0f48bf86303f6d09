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
from .record import Interned, Record

__all__ = [
    "Closure", "Environment", "Arg", "SMark", "PMark", "Branches",
    "StackItem", "RunResult", "run", "config_size",
    "ClosedTermRequired", "StuckConfiguration",
]


class Closure(NamedTuple):
    term: Term
    env: "Environment"


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
    per step: step#, rule tag, |C|, term head.

    One loop over the configuration held in local variables: the stack is
    a list with its top at the end, so a push or a pop costs O(1) at any
    depth.  A numeral over an empty stack is final; every other
    configuration takes one transition, or raises StuckConfiguration.  The
    tests keep the one-step transition relation as the specification:
    iterating it counts the same steps, ticks the same fuel and raises the
    same errors.  Fuel is counted on `steps`: every configuration, the
    final one included, ticks once, and the ticks before it number
    `steps`.

    The configuration size is kept as it goes: every term holds its size,
    and a step pushes or pops at most the top stack item, so the stack's
    share changes by that item's size.  The numerals the s and p steps
    make come from a table made for this run, so each is built once.
    The step kinds are tested in the order of how often they occur on a
    recursive program such as `dbl`: a numeral consumed by the top of
    the stack (a `p` mark first), a variable, a `p` push, an `s` push, and
    then the application, lambda, `ifz` and `fix` steps, one each per call.
    `debug` asserts that the running size equals `config_size`, its
    specification, at every configuration, and that each term saved in a
    closure or a stack item is no larger than `t` when it is saved:
    closures never change and the run starts with an empty environment,
    so those are all the terms the environments can reach.
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
    while True:
        if debug:
            assert term._size + stack_size == config_size(term, stack)
        if steps >= fuel:            # the tick of every configuration
            raise FuelExhausted(fuel)
        kind = type(term)
        if kind is Const:
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
            term, env, tag = closure.term, closure.env, "var"
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
