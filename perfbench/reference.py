"""A fixed pure-Python reference kernel, the yardstick for `run_rel`.

This machine's speed moves by up to half within seconds and between
minutes, and it moves the kernel's time and dlpcf's alike: the kernel is
made of the same kind of interpreted work (pattern-matching an expression
tree over frozen dataclasses, and a stack machine that copies
environments).  The run times it between ops and reports a pass's CPU time
over the kernel's.

The kernel never calls dlpcf, so no change to dlpcf moves it.  Changing
this file changes the scale of `run_rel`: do it only in a change that
redefines the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class App:
    op: str
    args: tuple


def evaluate(t, env: dict) -> int:
    match t:
        case Var(name):
            return env[name]
        case Lit(value):
            return value
        case App("+", (a, b)):
            return evaluate(a, env) + evaluate(b, env)
        case App("*", (a, b)):
            return evaluate(a, env) * evaluate(b, env)
        case App("-", (a, b)):
            return max(0, evaluate(a, env) - evaluate(b, env))
        case App("sq", (a,)):
            x = evaluate(a, env)
            return x * x
        case App(op, _):
            raise ValueError(op)


def term(depth: int, i: int):
    if depth == 0:
        return Var("abc"[i % 3]) if i % 2 else Lit(i % 5)
    op = ("+", "*", "-", "sq")[(depth + i) % 4]
    if op == "sq":
        return App(op, (term(depth - 1, i + 1),))
    return App(op, (term(depth - 1, 2 * i), term(depth - 1, 2 * i + 1)))


def stack_machine(n: int) -> int:
    """Push n frames, each with a copy of the environment, then pop them."""
    stack, env, acc = [], {}, 0
    for k in range(n):
        stack.append((k, dict(env)))
        env = {"x": k, "up": len(stack)}
    for _ in range(n):
        v, env = stack.pop()
        acc += v + len(env)
    return acc


TERMS = [term(7, i) for i in range(6)]
# The kernel's CPU time in the fast stretches of the machine the benchmark
# was defined on (an Intel Xeon guest with 2 vCPUs).  `setup_s` is set-up
# CPU time over the kernel's, times SCALE_S: seconds at that speed.
SCALE_S = 0.1
# What one call returns; a different value means the kernel did other work.
EXPECTED = 283754


def kernel() -> int:
    total = 0
    for a in range(6):
        for b in range(6):
            for c in range(6):
                env = {"a": a, "b": b, "c": c}
                for t in TERMS:
                    total += evaluate(t, env) % 7
    for n in (200, 400, 600):
        total += stack_machine(n)
    return total
