"""Dependent type syntax over index terms: interval naturals, linear arrows,
and quantified modal types, with bounded-oracle well-definedness, subtyping,
equivalence, and the sum operations on modal types.

All semantic questions reduce to `index.entails` under a constraint context,
so every judgement here is three-valued and qualified by (bound, fuel).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from . import index as ix
from .fuel import DEFAULT_BOUND, DEFAULT_FUEL
from .index import (Constraint, ConstraintSet, Defined, EquationalProgram,
                    IndexTerm, Verdict, alpha_eq_index, entails, free_vars,
                    fresh_name, merge_verdicts, show_index, subst_index)
from .pcf import NAT, Arrow, PcfType

__all__ = [
    "BasicType", "NatI", "LinArrow", "ModalType", "TypingContext",
    "erase", "erase_modal", "well_defined", "subtype", "equiv",
    "SumWitness", "BoundedSumWitness", "sum_modal", "bounded_sum_modal",
    "ShapeMismatch", "free_type_vars", "subst_type", "alpha_eq_type",
    "parse_basic_type", "parse_modal_type", "show_type",
]


@dataclass(frozen=True)
class NatI:
    lo: IndexTerm
    hi: IndexTerm


@dataclass(frozen=True)
class LinArrow:
    dom: "ModalType"
    cod: "BasicType"


@dataclass(frozen=True)
class ModalType:
    """[binder < bound] body: the bound may not mention the binder."""
    binder: str
    bound: IndexTerm
    body: "BasicType"

    def __post_init__(self):
        if self.binder in free_vars(self.bound):
            raise ValueError(
                f"modal bound {show_index(self.bound)} mentions its own "
                f"binder {self.binder!r}")


BasicType = Union[NatI, LinArrow]
TypingContext = tuple[ModalType, ...]


class ShapeMismatch(Exception):
    """The two types erase to different PCF types."""


# ---------------------------------------------------------------------------
# Structure

def free_type_vars(t: BasicType | ModalType) -> frozenset[str]:
    match t:
        case NatI(lo, hi):
            return free_vars(lo) | free_vars(hi)
        case LinArrow(dom, cod):
            return free_type_vars(dom) | free_type_vars(cod)
        case ModalType(binder, bound, body):
            return free_vars(bound) | (free_type_vars(body) - {binder})
    raise TypeError(f"not a type: {t!r}")


def subst_type(t, name: str, repl: IndexTerm):
    """Capture-avoiding substitution of an index term into a type."""
    match t:
        case NatI(lo, hi):
            return NatI(subst_index(lo, name, repl), subst_index(hi, name, repl))
        case LinArrow(dom, cod):
            return LinArrow(subst_type(dom, name, repl),
                            subst_type(cod, name, repl))
        case ModalType(binder, bound, body):
            new_bound = subst_index(bound, name, repl)
            if binder == name:
                return ModalType(binder, new_bound, body)
            if binder in free_vars(repl) and name in free_type_vars(body):
                nb = fresh_name(binder, free_vars(repl) | free_type_vars(body))
                body = subst_type(body, binder, ix.Var(nb))
                binder = nb
            return ModalType(binder, new_bound, subst_type(body, name, repl))
    raise TypeError(f"not a type: {t!r}")


def alpha_eq_type(a, b, env_a=None, env_b=None, depth: int = 0) -> bool:
    ea = env_a or {}
    eb = env_b or {}
    match (a, b):
        case (NatI(l1, h1), NatI(l2, h2)):
            return (alpha_eq_index(l1, l2, ea, eb, depth)
                    and alpha_eq_index(h1, h2, ea, eb, depth))
        case (LinArrow(d1, c1), LinArrow(d2, c2)):
            return (alpha_eq_type(d1, d2, ea, eb, depth)
                    and alpha_eq_type(c1, c2, ea, eb, depth))
        case (ModalType(v1, b1, s1), ModalType(v2, b2, s2)):
            if not alpha_eq_index(b1, b2, ea, eb, depth):
                return False
            return alpha_eq_type(s1, s2, {**ea, v1: depth},
                                 {**eb, v2: depth}, depth + 1)
    return False


def erase(t: BasicType) -> PcfType:
    match t:
        case NatI():
            return NAT
        case LinArrow(dom, cod):
            return Arrow(erase_modal(dom), erase(cod))
    raise TypeError(f"not a basic type: {t!r}")


def erase_modal(t: ModalType) -> PcfType:
    return erase(t.body)


# ---------------------------------------------------------------------------
# Judgements

def well_defined(ctx: ConstraintSet, t: BasicType | ModalType,
                 program: EquationalProgram, bound: int = DEFAULT_BOUND,
                 fuel: int = DEFAULT_FUEL) -> Verdict:
    """All index terms in `t` are defined for the relevant variable values."""
    match t:
        case NatI(lo, hi):
            return merge_verdicts(
                entails(ctx, Defined(lo), program, bound, fuel),
                entails(ctx, Defined(hi), program, bound, fuel))
        case LinArrow(dom, cod):
            return merge_verdicts(
                well_defined(ctx, dom, program, bound, fuel),
                well_defined(ctx, cod, program, bound, fuel))
        case ModalType(binder, bnd, body):
            var = binder
            inner_body = body
            if var in ctx.variables:
                var = fresh_name(binder, frozenset(ctx.variables))
                inner_body = subst_type(body, binder, ix.Var(var))
            inner = ctx.extend(var, Constraint(ix.Var(var), "<", bnd))
            return merge_verdicts(
                well_defined(inner, inner_body, program, bound, fuel),
                entails(ctx, Defined(bnd), program, bound, fuel))
    raise TypeError(f"not a type: {t!r}")


def _rel(precise: bool) -> str:
    return "=" if precise else "<="


def subtype(ctx: ConstraintSet, sub, sup, program: EquationalProgram,
            bound: int = DEFAULT_BOUND, fuel: int = DEFAULT_FUEL,
            precise: bool = False) -> Verdict:
    """Structural subtyping: intervals widen, arrows are contravariant in
    the modal argument, modal bounds shrink.  With `precise`, every index
    inequality is checked as an equality (the subtype becomes equivalence).
    """
    match (sub, sup):
        case (NatI(l1, h1), NatI(l2, h2)):
            return merge_verdicts(
                entails(ctx, Constraint(l2, _rel(precise), l1), program, bound, fuel),
                entails(ctx, Constraint(h1, _rel(precise), h2), program, bound, fuel))
        case (LinArrow(d1, c1), LinArrow(d2, c2)):
            return merge_verdicts(
                subtype(ctx, d2, d1, program, bound, fuel, precise),
                subtype(ctx, c1, c2, program, bound, fuel, precise))
        case (ModalType(v1, b1, s1), ModalType(v2, b2, s2)):
            avoid = (frozenset(ctx.variables) | free_type_vars(sub)
                     | free_type_vars(sup))
            var = fresh_name(v1, avoid)
            inner = ctx.extend(var, Constraint(ix.Var(var), "<", b1))
            body_sub = s1 if var == v1 else subst_type(s1, v1, ix.Var(var))
            body_sup = s2 if var == v2 else subst_type(s2, v2, ix.Var(var))
            return merge_verdicts(
                subtype(inner, body_sub, body_sup, program, bound, fuel, precise),
                entails(ctx, Constraint(b2, _rel(precise), b1), program, bound, fuel))
    raise ShapeMismatch(
        f"cannot compare {show_type(sub)} with {show_type(sup)}")


def equiv(ctx: ConstraintSet, a, b, program: EquationalProgram,
          bound: int = DEFAULT_BOUND, fuel: int = DEFAULT_FUEL) -> Verdict:
    """Subtyping in both directions."""
    return merge_verdicts(
        subtype(ctx, a, b, program, bound, fuel),
        subtype(ctx, b, a, program, bound, fuel))


# ---------------------------------------------------------------------------
# Sums of modal types

@dataclass(frozen=True)
class SumWitness:
    """Common shape mu for A + B: both summands must be instance ranges of
    [param] mu."""
    param: str
    body: BasicType


@dataclass(frozen=True)
class BoundedSumWitness:
    """Shape sigma and per-instance width `per` for a bounded sum over a
    context entry."""
    param: str
    body: BasicType
    per: IndexTerm


def sum_modal(a: ModalType, b: ModalType, witness: SumWitness,
              ctx: ConstraintSet, program: EquationalProgram,
              bound: int = DEFAULT_BOUND,
              fuel: int = DEFAULT_FUEL) -> tuple[ModalType, Verdict]:
    """A + B where A holds the first I instances of the witness shape and B
    the next J: the result holds the first I+J."""
    if erase_modal(a) != erase(witness.body) or erase_modal(b) != erase(witness.body):
        raise ShapeMismatch("sum witness erasure differs from the summands")
    first = ModalType(witness.param, a.bound, witness.body)
    shifted_body = subst_type(witness.body, witness.param,
                              ix.add(a.bound, ix.Var(witness.param)))
    second = ModalType(witness.param, b.bound, shifted_body)
    verdict = merge_verdicts(
        equiv(ctx, a, first, program, bound, fuel),
        equiv(ctx, b, second, program, bound, fuel))
    return ModalType(witness.param, ix.add(a.bound, b.bound), witness.body), verdict


def bounded_sum_modal(binder: str, width: IndexTerm, a: ModalType,
                      witness: BoundedSumWitness, ctx: ConstraintSet,
                      program: EquationalProgram, bound: int = DEFAULT_BOUND,
                      fuel: int = DEFAULT_FUEL) -> tuple[ModalType, Verdict]:
    """Sum of `width` instances of A over `binder`: A must consist, at each
    value of the binder, of the next `per` instances of the witness shape.

    `ctx` is the outer context; the equivalence premise runs under it
    extended with binder < width.
    """
    if erase_modal(a) != erase(witness.body):
        raise ShapeMismatch("bounded-sum witness erasure differs from the summand")
    inner_ctx = ctx.extend(binder, Constraint(ix.Var(binder), "<", width))
    inner_var = fresh_name("d", frozenset(inner_ctx.variables)
                           | free_vars(witness.per) | {witness.param})
    # offset = sum(d < binder) per[binder := d]  --  instances consumed by
    # earlier binder values.
    offset = ix.BoundedSum(inner_var, ix.Var(binder),
                           subst_index(witness.per, binder, ix.Var(inner_var)))
    slot = fresh_name(a.binder, frozenset(inner_ctx.variables)
                      | free_type_vars(witness.body) | free_vars(offset))
    inst = subst_type(witness.body, witness.param,
                      ix.add(offset, ix.Var(slot)))
    candidate = ModalType(slot, witness.per, inst)
    verdict = equiv(inner_ctx, a, candidate, program, bound, fuel)
    total = ix.BoundedSum(binder, width, witness.per)
    return ModalType(witness.param, total, witness.body), verdict


# ---------------------------------------------------------------------------
# Concrete syntax: Nat[I,J], Nat[I], [a<I] sigma -o tau

class TypeSyntaxError(ValueError):
    pass


def parse_basic_type(text: str) -> BasicType:
    t = _parse_whole_type(text)
    if isinstance(t, ModalType):
        raise TypeSyntaxError(f"expected a basic type, got a modal type: {text!r}")
    return t


def parse_modal_type(text: str) -> ModalType:
    t = _parse_whole_type(text)
    if not isinstance(t, ModalType):
        raise TypeSyntaxError(f"expected a modal type [a<I]..., got {text!r}")
    return t


# The index tokens plus brackets and the lollipop.
_TYPE_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<id>[A-Za-z_][A-Za-z0-9_']*)"
                         r"|(?P<op>-o|<=|[-+<>=(),\[\]]))", re.ASCII)


def _parse_whole_type(text: str):
    p = ix._Parser(ix._tokenize(text, _TYPE_TOKEN, TypeSyntaxError), text)
    t = _parse_type(p)
    if not p.done():
        raise TypeSyntaxError(f"trailing tokens in type {text!r}")
    return t


def _parse_type(p: ix._Parser):
    left = _parse_type_atom(p)
    if p.peek() == "-o":
        if not isinstance(left, ModalType):
            raise TypeSyntaxError("arrow domain must be a modal type [a<I]...")
        p.next()
        cod = _parse_type(p)
        if isinstance(cod, ModalType):
            raise TypeSyntaxError("arrow codomain must be a basic type")
        return LinArrow(left, cod)
    return left


def _parse_type_atom(p: ix._Parser):
    tok = p.peek()
    if tok == "Nat":
        p.next()
        p.expect("[")
        lo = ix._parse_sum_expr(p)
        if p.peek() == ",":
            p.next()
            hi = ix._parse_sum_expr(p)
        else:
            hi = lo
        p.expect("]")
        return NatI(lo, hi)
    if tok == "[":
        # [a<I] grabs only the next atom; an arrow body needs parentheses,
        # so "[a<I] sigma -o tau" reads as ([a<I] sigma) -o tau.
        p.next()
        binder = p.next()
        p.expect("<")
        bnd = ix._parse_sum_expr(p)
        p.expect("]")
        body = _parse_type_atom(p)
        if isinstance(body, ModalType):
            raise TypeSyntaxError("modal body must be a basic type")
        return ModalType(binder, bnd, body)
    if tok == "(":
        p.next()
        t = _parse_type(p)
        p.expect(")")
        return t
    raise TypeSyntaxError(f"unexpected token {tok!r} in type")


def show_type(t) -> str:
    match t:
        case NatI(lo, hi):
            if lo == hi or alpha_eq_index(lo, hi):
                return f"Nat[{show_index(lo)}]"
            return f"Nat[{show_index(lo)}, {show_index(hi)}]"
        case LinArrow(dom, cod):
            return f"{show_type(dom)} -o {show_type(cod)}"
        case ModalType(binder, bnd, body):
            inner = show_type(body)
            if isinstance(body, LinArrow):
                inner = f"({inner})"
            return f"[{binder} < {show_index(bnd)}] {inner}"
    raise TypeError(f"not a type: {t!r}")
