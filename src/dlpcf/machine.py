"""Cost-counting Krivine machine for PCF.

Configurations are (term, environment, stack) triples plus a step counter.
Every transition costs exactly one step, including the pushes for s(t) and
p(t); this makes the measured step count the quantity bounded by the
weighted typing discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TextIO, Union

from .fuel import Fuel, DEFAULT_FUEL
from .pcf import (App, Const, Fix, IfZ, Lam, Pred, Succ, Term, TVar,
                  max_free_index, size, subterm_sizes, term_head)

__all__ = [
    "Closure", "Environment", "Arg", "SMark", "PMark", "Branches",
    "StackItem", "Configuration", "Final", "RunResult",
    "load", "machine_step", "run", "config_size",
    "ClosedTermRequired", "StuckConfiguration",
]


@dataclass(frozen=True)
class Closure:
    term: Term
    env: "Environment"


Environment = tuple[Closure, ...]


@dataclass(frozen=True)
class Arg:
    closure: Closure


@dataclass(frozen=True)
class SMark:
    pass


@dataclass(frozen=True)
class PMark:
    pass


@dataclass(frozen=True)
class Branches:
    zero: Term
    succ: Term
    env: "Environment"


StackItem = Union[Arg, SMark, PMark, Branches]

_S = SMark()
_P = PMark()


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


class ClosedTermRequired(ValueError):
    pass


class StuckConfiguration(Exception):
    """Reached a configuration no transition covers; impossible for
    well-typed programs."""


def load(t: Term) -> Configuration:
    if max_free_index(t) >= 0:
        raise ClosedTermRequired("machine programs must be closed")
    return Configuration(t, (), (), 0)


def _item_size(item: StackItem,
               term_size: Callable[[Term], int] = size) -> int:
    match item:
        case Arg(closure):
            return term_size(closure.term)
        case SMark() | PMark():
            return 1
        case Branches(zero, succ, _):
            return term_size(zero) + term_size(succ)
    raise TypeError(f"not a stack item: {item!r}")


def config_size(c: Configuration) -> int:
    """Size of the focused term plus the sizes of all stack items; the
    environment does not count."""
    return size(c.term) + sum(_item_size(item) for item in c.stack)


def machine_step(c: Configuration) -> tuple[Union[Configuration, Final], str]:
    """One transition.  Returns the next configuration (or Final when the
    term is a numeral over an empty stack) and a rule tag for tracing."""
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
            return (Configuration(inner, env, (_S,) + stack, steps + 1),
                    "s-push")
        case Pred(inner):
            return (Configuration(inner, env, (_P,) + stack, steps + 1),
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


@dataclass(frozen=True)
class RunResult:
    value: int
    steps: int
    max_config_size: int


def _check_subterm_sizes(c: Configuration, limit: int) -> None:
    """Debug-mode invariant: every term reachable through the environment
    or the stack is no larger than the initial program."""
    seen: set[int] = set()

    def visit_env(env: Environment) -> None:
        if id(env) in seen:
            return
        seen.add(id(env))
        for closure in env:
            assert size(closure.term) <= limit, (
                f"environment term of size {size(closure.term)} exceeds {limit}")
            visit_env(closure.env)

    visit_env(c.env)
    for item in c.stack:
        match item:
            case Arg(closure):
                assert size(closure.term) <= limit
                visit_env(closure.env)
            case Branches(zero, succ, env):
                assert size(zero) <= limit and size(succ) <= limit
                visit_env(env)
            case _:
                pass


def run(t: Term, fuel: int = DEFAULT_FUEL, *, debug: bool = False,
        trace: Optional[TextIO] = None) -> RunResult:
    """Run the machine from load(t) to a final numeral.

    Reports the exact step count and the maximum configuration size seen.
    `debug` asserts the environment-size invariant at every configuration;
    `trace` writes one line per step: step#, rule tag, |C|, term head.

    The configuration size is kept as it goes, so sizing costs O(1) per
    step, whatever the size of the configuration.  Every term the machine
    focuses or stacks is a subterm of `t`, sized once up front, or a
    numeral it made, of size 1.  A step pushes or pops at most the top
    stack item, so the stack's share changes by that item's size.  `debug`
    also asserts that the running size equals `config_size`, its
    specification.
    """
    gas = Fuel(fuel)
    current = load(t)
    sizes = subterm_sizes(t)

    def term_size(term: Term) -> int:
        # missing from the table: a numeral the machine made
        return sizes.get(id(term), 1)

    limit = term_size(t)
    stack_size = 0
    max_size = limit
    while True:
        if debug:
            _check_subterm_sizes(current, limit)
            assert term_size(current.term) + stack_size == config_size(current)
        gas.tick()
        nxt, tag = machine_step(current)
        if isinstance(nxt, Final):
            return RunResult(nxt.value, nxt.steps, max_size)
        grown = len(nxt.stack) - len(current.stack)
        if grown > 0:
            stack_size += _item_size(nxt.stack[0], term_size)
        elif grown < 0:
            stack_size -= _item_size(current.stack[0], term_size)
        now = term_size(nxt.term) + stack_size
        if trace is not None:
            trace.write(f"{nxt.steps}\t{tag}\t{now}\t{term_head(nxt.term)}\n")
        current = nxt
        max_size = max(max_size, now)
