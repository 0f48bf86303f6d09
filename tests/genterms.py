"""Generators shared by the fuzz and corpus tests: random child-count tables
for forest bodies, random well-typed PCF terms, untyped open PCF terms, and
random ordered types; `show_term`, the tests' PCF printer; `same`, the
tests' structural equality; and `Fuel`, the countdown the reference
evaluators tick."""

import random

from hypothesis import strategies as st

from dlpcf import index as ix
from dlpcf import pcf
from dlpcf import types as ty
from dlpcf.fuel import FuelExhausted, check_budget
from dlpcf.record import Record


def same(a, b) -> bool:
    """Structural equality, by a loop: records of one class with equal
    fields, a binder's type annotation left out; tuples, named ones too,
    item by item; any other values by `==`.  Unlike `==` on records, which
    is identity, it finds two equal PCF terms built apart equal."""
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if len(x) != len(y):
                return False
            pairs += zip(x, y)
        elif isinstance(x, Record):
            pairs += [(getattr(x, f), getattr(y, f))
                      for f in x._fields if f != "ann"]
        elif x != y:
            return False
    return True


class Fuel:
    """A mutable countdown.  `tick` raises FuelExhausted at zero."""

    __slots__ = ("remaining", "budget")

    def __init__(self, budget: int):
        check_budget(budget)
        self.budget = budget
        self.remaining = budget

    def tick(self, cost: int = 1) -> None:
        self.remaining -= cost
        if self.remaining < 0:
            raise FuelExhausted(self.budget)


def table_program(rng: random.Random, name: str = "tab", width: int = 12,
                  max_children: int = 3) -> tuple[ix.EquationalProgram, ix.IndexTerm]:
    """A total table-driven child-count function: explicit values below
    `width`, zero from `width` on (so every described tree is finite)."""
    rules = []
    for n in range(width):
        rules.append(ix.Rule(name, (ix.NatPattern(None, n),),
                             ix.Lit(rng.randint(0, max_children))))
    rules.append(ix.Rule(name, (ix.NatPattern("x", width),), ix.Lit(0)))
    program = ix.register_program(rules, ix.declare({name: 1}))
    return program, ix.App(name, (ix.Var("a"),))


def gen_nat_term(rng: random.Random, env: tuple[pcf.PcfType, ...],
                 depth: int) -> pcf.Term:
    return gen_term(rng, pcf.NAT, env, depth)


def gen_term(rng: random.Random, want: pcf.PcfType,
             env: tuple[pcf.PcfType, ...], depth: int) -> pcf.Term:
    """A closed-by-construction well-typed term of the wanted type."""
    candidates = [i for i, t in enumerate(env) if t == want]
    if depth <= 0:
        if isinstance(want, pcf.NatT):
            if candidates and rng.random() < 0.5:
                return pcf.TVar(rng.choice(candidates))
            return pcf.Const(rng.randint(0, 4))
        if candidates and rng.random() < 0.7:
            return pcf.TVar(rng.choice(candidates))
        return pcf.Lam(gen_term(rng, want.cod, (want.dom,) + env, 0), want.dom)
    if isinstance(want, pcf.Arrow):
        if candidates and rng.random() < 0.3:
            return pcf.TVar(rng.choice(candidates))
        return pcf.Lam(gen_term(rng, want.cod, (want.dom,) + env, depth - 1),
                       want.dom)
    roll = rng.random()
    if roll < 0.15:
        return pcf.Const(rng.randint(0, 4))
    if roll < 0.25 and candidates:
        return pcf.TVar(rng.choice(candidates))
    if roll < 0.40:
        return pcf.Succ(gen_term(rng, pcf.NAT, env, depth - 1))
    if roll < 0.55:
        return pcf.Pred(gen_term(rng, pcf.NAT, env, depth - 1))
    if roll < 0.75:
        return pcf.IfZ(gen_term(rng, pcf.NAT, env, depth - 1),
                       gen_term(rng, pcf.NAT, env, depth - 1),
                       gen_term(rng, pcf.NAT, env, depth - 1))
    dom = pcf.NAT if rng.random() < 0.7 else pcf.Arrow(pcf.NAT, pcf.NAT)
    fn = gen_term(rng, pcf.Arrow(dom, pcf.NAT), env, depth - 1)
    arg = gen_term(rng, dom, env, depth - 1)
    return pcf.App(fn, arg)


def show_term(t: pcf.Term, depth: int = 0, scope: tuple[str, ...] = ()) -> str:
    """Print with invented binder names; inverse of `pcf.parse_term` up to
    alpha.  A binder under d others is named `x<d>`, and a free variable
    past `scope` prints as `?k`.  Recurses once per nesting level."""
    go = show_term
    match t:
        case pcf.TVar(k):
            return scope[k] if k < len(scope) else f"?{k - len(scope)}"
        case pcf.Const(n):
            return str(n)
        case pcf.Succ(b):
            return f"s({go(b, depth, scope)})"
        case pcf.Pred(b):
            return f"p({go(b, depth, scope)})"
        case pcf.Lam(b):
            return f"\\x{depth}. {go(b, depth + 1, (f'x{depth}',) + scope)}"
        case pcf.Fix(b):
            return f"fix x{depth}. {go(b, depth + 1, (f'x{depth}',) + scope)}"
        case pcf.App(f, a):
            fs = go(f, depth, scope)
            if isinstance(f, (pcf.Lam, pcf.Fix, pcf.IfZ)):
                fs = f"({fs})"
            args = go(a, depth, scope)
            if isinstance(a, (pcf.App, pcf.Lam, pcf.Fix, pcf.IfZ)):
                args = f"({args})"
            return f"{fs} {args}"
        case pcf.IfZ(s, z, u):
            return (f"ifz {go(s, depth, scope)} then {go(z, depth, scope)} "
                    f"else {go(u, depth, scope)}")


# Untyped open terms: free variables at several binder depths, annotated
# binders.
open_terms = st.recursive(
    st.builds(pcf.TVar, st.integers(0, 4))
    | st.builds(pcf.Const, st.integers(0, 3)),
    lambda sub: (st.builds(pcf.Succ, sub) | st.builds(pcf.Pred, sub)
                 | st.builds(pcf.Lam, sub,
                             st.sampled_from([None, pcf.NAT,
                                              pcf.Arrow(pcf.NAT, pcf.NAT)]))
                 | st.builds(pcf.Fix, sub, st.sampled_from([None, pcf.NAT]))
                 | st.builds(pcf.App, sub, sub)
                 | st.builds(pcf.IfZ, sub, sub, sub)),
    max_leaves=12)


def gen_index(rng: random.Random, scope: tuple[str, ...]) -> ix.IndexTerm:
    roll = rng.random()
    if roll < 0.45 or not scope:
        return ix.Lit(rng.randint(0, 4))
    if roll < 0.8:
        return ix.Var(rng.choice(scope))
    return ix.add(ix.Var(rng.choice(scope)), ix.Lit(rng.randint(0, 3)))


def gen_basic_type(rng: random.Random, scope: tuple[str, ...],
                   depth: int, binders: tuple[str, ...] = ()) -> ty.BasicType:
    """Well-defined by construction: only total arithmetic appears.  Modal
    binders are named q1, q2, ..., or drawn from `binders`, where they may
    shadow a variable of the scope."""
    if depth <= 0 or rng.random() < 0.5:
        lo = gen_index(rng, scope)
        return ty.NatI(lo, ix.add(lo, gen_index(rng, scope)))
    bound = gen_index(rng, scope)
    binder = (rng.choice([b for b in binders if b not in ix.free_vars(bound)])
              if binders else f"q{depth}")
    dom = ty.ModalType(binder, bound,
                       gen_basic_type(rng, scope + (binder,), depth - 1,
                                      binders))
    return ty.LinArrow(dom, gen_basic_type(rng, scope, depth - 1, binders))


def widen(rng: random.Random, t: ty.BasicType) -> ty.BasicType:
    """A supertype by construction: intervals grow, arrow domains shrink
    (toward more available copies), codomains grow."""
    match t:
        case ty.NatI(lo, hi):
            return ty.NatI(ix.monus(lo, ix.Lit(rng.randint(0, 2))),
                           ix.add(hi, ix.Lit(rng.randint(0, 2))))
        case ty.LinArrow(dom, cod):
            return ty.LinArrow(narrow_modal(rng, dom), widen(rng, cod))
    raise TypeError(t)


def narrow(rng: random.Random, t: ty.BasicType) -> ty.BasicType:
    match t:
        case ty.NatI(lo, hi):
            return ty.NatI(ix.add(lo, ix.Lit(rng.randint(0, 2))),
                           ix.monus(hi, ix.Lit(rng.randint(0, 2))))
        case ty.LinArrow(dom, cod):
            widened = ty.ModalType(dom.binder,
                                   ix.monus(dom.bound, ix.Lit(rng.randint(0, 2))),
                                   widen(rng, dom.body))
            return ty.LinArrow(widened, narrow(rng, cod))
    raise TypeError(t)


def narrow_modal(rng: random.Random, m: ty.ModalType) -> ty.ModalType:
    # More copies of a smaller body: a subtype of m.
    return ty.ModalType(m.binder, ix.add(m.bound, ix.Lit(rng.randint(0, 2))),
                        narrow(rng, m.body))
