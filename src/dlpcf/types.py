"""Dependent type syntax over index terms: interval naturals, linear arrows,
and quantified modal types, with bounded-oracle well-definedness, subtyping,
equivalence, and the sum operations on modal types.

Types are index syntax, and their three constructors are defined in
`index` with the rest of it: `index.free_vars`, `subst_index`,
`alpha_eq_index`, `check_symbols` and `show_index` take them as they take
index terms.  `ModalType` is a binding form by the convention `index`
states: `binder` first, bound in the last field, `body`, only.  Like index
terms, a type holds its free variables from when it is built.

All semantic questions reduce to `index.entails` under a constraint context,
asked of one `index.Oracle`, so every judgement here is three-valued and
qualified by the oracle's bound and fuel.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from . import index as ix
from .index import (Constraint, ConstraintSet, Defined, IndexTerm, LinArrow,
                    ModalType, NatI, Oracle, Verdict, entails, free_vars,
                    fresh_name, merge_verdicts, show_index, subst_index)
from .pcf import NAT, Arrow, PcfType

__all__ = [
    "BasicType", "NatI", "LinArrow", "ModalType",
    "erase", "well_defined", "subtype", "equiv",
    "SumWitness", "BoundedSumWitness", "sum_modal", "bounded_sum_modal",
    "ShapeMismatch", "parse_basic_type", "parse_modal_type", "inequality",
]


BasicType = Union[NatI, LinArrow]


class ShapeMismatch(Exception):
    """The two types erase to different PCF types."""


# ---------------------------------------------------------------------------
# Erasure

def erase(t: BasicType | ModalType) -> PcfType:
    """The PCF type `t` refines: a modal type erases as its body."""
    match t:
        case NatI():
            return NAT
        case LinArrow(dom, cod):
            return Arrow(erase(dom), erase(cod))
        case ModalType(_, _, body):
            return erase(body)
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Judgements

def well_defined(ctx: ConstraintSet, t: BasicType | ModalType,
                 oracle: Oracle) -> Verdict:
    """All index terms in `t` are defined for the relevant variable values."""
    match t:
        case NatI(lo, hi):
            return merge_verdicts(entails(ctx, Defined(lo), oracle),
                                  entails(ctx, Defined(hi), oracle))
        case LinArrow(dom, cod):
            return merge_verdicts(well_defined(ctx, dom, oracle),
                                  well_defined(ctx, cod, oracle))
        case ModalType(binder, bnd):
            var = fresh_name(binder, frozenset(ctx.variables))
            return merge_verdicts(
                well_defined(ctx.under(var, bnd), _open(t, var), oracle),
                entails(ctx, Defined(bnd), oracle))
    raise TypeError(f"not a type: {t!r}")


def _open(m: ModalType, var: str) -> BasicType:
    """The body of `m` with its binder renamed to `var`."""
    return m.body if var == m.binder else subst_index(m.body, m.binder,
                                                      ix.Var(var))


def inequality(precise: bool) -> str:
    """The relation an inequality premise is checked with."""
    return "=" if precise else "<="


def subtype(ctx: ConstraintSet, sub, sup, oracle: Oracle,
            precise: bool = False) -> Verdict:
    """Structural subtyping: intervals widen, arrows are contravariant in
    the modal argument, modal bounds shrink.  With `precise`, every index
    inequality is checked as an equality (the subtype becomes equivalence).
    """
    match (sub, sup):
        case (NatI(l1, h1), NatI(l2, h2)):
            return merge_verdicts(
                entails(ctx, Constraint(l2, inequality(precise), l1), oracle),
                entails(ctx, Constraint(h1, inequality(precise), h2), oracle))
        case (LinArrow(d1, c1), LinArrow(d2, c2)):
            return merge_verdicts(subtype(ctx, d2, d1, oracle, precise),
                                  subtype(ctx, c1, c2, oracle, precise))
        case (ModalType(v1, b1), ModalType(_, b2)):
            var = fresh_name(v1, frozenset(ctx.variables)
                             | free_vars(sub) | free_vars(sup))
            return merge_verdicts(
                subtype(ctx.under(var, b1), _open(sub, var), _open(sup, var),
                        oracle, precise),
                entails(ctx, Constraint(b2, inequality(precise), b1), oracle))
    raise ShapeMismatch(
        f"cannot compare {show_index(sub)} with {show_index(sup)}")


def equiv(ctx: ConstraintSet, a, b, oracle: Oracle) -> Verdict:
    """Subtyping in both directions."""
    return merge_verdicts(subtype(ctx, a, b, oracle),
                          subtype(ctx, b, a, oracle))


# ---------------------------------------------------------------------------
# Sums of modal types

class SumWitness(NamedTuple):
    """Common shape mu for A + B: both summands must be instance ranges of
    [param] mu."""
    param: str
    body: BasicType


class BoundedSumWitness(NamedTuple):
    """Shape sigma and per-instance width `per` for a bounded sum over a
    context entry."""
    param: str
    body: BasicType
    per: IndexTerm


def sum_modal(a: ModalType, b: ModalType, witness: SumWitness,
              ctx: ConstraintSet, oracle: Oracle) -> tuple[ModalType, Verdict]:
    """A + B where A holds the first I instances of the witness shape and B
    the next J: the result holds the first I+J."""
    if erase(a) != erase(witness.body) or erase(b) != erase(witness.body):
        raise ShapeMismatch("sum witness erasure differs from the summands")
    first = ModalType(witness.param, a.bound, witness.body)
    shifted_body = subst_index(witness.body, witness.param,
                               ix.add(a.bound, ix.Var(witness.param)))
    second = ModalType(witness.param, b.bound, shifted_body)
    verdict = merge_verdicts(equiv(ctx, a, first, oracle),
                             equiv(ctx, b, second, oracle))
    return ModalType(witness.param, ix.add(a.bound, b.bound), witness.body), verdict


def bounded_sum_modal(binder: str, width: IndexTerm, a: ModalType,
                      witness: BoundedSumWitness, ctx: ConstraintSet,
                      oracle: Oracle) -> tuple[ModalType, Verdict]:
    """Sum of `width` instances of A over `binder`: A must consist, at each
    value of the binder, of the next `per` instances of the witness shape.

    `ctx` is the outer context; the equivalence premise runs under it
    extended with binder < width.
    """
    if erase(a) != erase(witness.body):
        raise ShapeMismatch("bounded-sum witness erasure differs from the summand")
    inner_ctx = ctx.under(binder, width)
    inner_var = fresh_name("d", frozenset(inner_ctx.variables)
                           | free_vars(witness.per) | {witness.param})
    # offset = sum(d < binder) per[binder := d]  --  instances consumed by
    # earlier binder values.
    offset = ix.BoundedSum(inner_var, ix.Var(binder),
                           subst_index(witness.per, binder, ix.Var(inner_var)))
    slot = fresh_name(a.binder, frozenset(inner_ctx.variables)
                      | free_vars(witness.body) | free_vars(offset))
    inst = subst_index(witness.body, witness.param,
                       ix.add(offset, ix.Var(slot)))
    candidate = ModalType(slot, witness.per, inst)
    verdict = equiv(inner_ctx, a, candidate, oracle)
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
_TYPE_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<id>{ix.IDENT})"
                         r"|(?P<op>-o|<=|[-+<>=(),\[\]]))", re.ASCII)


def _parse_whole_type(text: str):
    p = ix.Parser(ix.tokenize(text, _TYPE_TOKEN, TypeSyntaxError), text)
    t = _parse_type(p)
    if not p.done():
        raise TypeSyntaxError(f"trailing tokens in type {text!r}")
    return t


def _parse_type(p: ix.Parser):
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


def _parse_type_atom(p: ix.Parser):
    tok = p.peek()
    if tok == "Nat":
        p.next()
        p.expect("[")
        lo = ix.parse_sum_expr(p)
        if p.peek() == ",":
            p.next()
            hi = ix.parse_sum_expr(p)
        else:
            hi = lo
        p.expect("]")
        return NatI(lo, hi)
    if tok == "[":
        # [a<I] grabs only the next atom; an arrow body needs parentheses,
        # so "[a<I] sigma -o tau" reads as ([a<I] sigma) -o tau.
        p.next()
        binder = p.name()
        p.expect("<")
        bnd = ix.parse_sum_expr(p)
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
