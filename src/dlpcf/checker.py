"""Checking of explicit weighted type derivations.

A derivation is one node per term constructor, carrying the constraint
context, the typing context (one modal type per de Bruijn slot), the weight
and the type of the judgement, plus the rule-specific annotations that
cannot be reconstructed from the conclusion (most importantly for the
fixpoint rule).  `check` re-derives every side condition of each rule and
discharges it through the bounded entailment oracle, reporting every
obligation with its three-valued verdict.

Shape and bookkeeping problems (wrong rule for the subject, missing
annotations, mismatched premise contexts, unknown symbols) raise
StructuralError; they are never conflated with Refuted.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Optional

from . import index as ix
from .fuel import DEFAULT_BOUND, DEFAULT_FUEL
from .index import (Constraint, ConstraintSet, EquationError,
                    EquationalProgram, IndexTerm, Verdict, Verified,
                    alpha_eq_index, free_vars, merge_verdicts,
                    parse_constraint, parse_index, show_constraint, show_index)
from .pcf import (NAT, App, Arrow, Const, Fix, IfZ, Lam, PcfType, Pred, Succ,
                  Term, TVar, max_free_index, pcf_typecheck, show_pcf_type)
from .sexpr import SExprError, SString, parse_sexpr
from .types import (BasicType, BoundedSumWitness, LinArrow, ModalType, NatI,
                    ShapeMismatch, SumWitness, alpha_eq_type,
                    bounded_sum_modal, erase, erase_modal, free_type_vars,
                    parse_basic_type, parse_modal_type, show_type, subst_type,
                    subtype, sum_modal, well_defined)

__all__ = [
    "Derivation", "Annotations", "Obligation", "CheckReport", "PcfDerivation",
    "StructuralError", "DerivationSyntaxError",
    "parse_derivation", "load_derivation", "bind", "check",
    "erase_derivation", "root_bounds",
]

# rule -> (term constructor it applies to, number of premises)
_SHAPE = {"V": (TVar, 0), "L": (Lam, 1), "A": (App, 2), "S": (Succ, 1),
          "P": (Pred, 1), "N": (Const, 0), "F": (IfZ, 3), "R": (Fix, 1)}

RULES = tuple(_SHAPE)


class StructuralError(Exception):
    """The derivation is malformed independently of any index semantics."""

    def __init__(self, path: tuple[int, ...], message: str):
        super().__init__(f"{path_str(path)}: {message}")
        self.path = path


class DerivationSyntaxError(ValueError):
    pass


def path_str(path: tuple[int, ...]) -> str:
    return "root" if not path else "root." + ".".join(map(str, path))


@dataclass(frozen=True)
class Annotations:
    """The rule-specific annotations of a node; None where absent."""
    recvar: Optional[str] = None
    selftype: Optional[ModalType] = None
    bodytype: Optional[BasicType] = None
    resulttype: Optional[BasicType] = None
    unfoldbound: Optional[IndexTerm] = None
    callcap: Optional[IndexTerm] = None
    bodyweight: Optional[IndexTerm] = None
    ctxsum: Optional[tuple[BoundedSumWitness, ...]] = None
    ctxjoin: Optional[tuple[SumWitness, ...]] = None


@dataclass(frozen=True)
class Derivation:
    rule: str
    ctx: ConstraintSet
    context: tuple[Optional[ModalType], ...]
    weight: IndexTerm
    type: BasicType
    annots: Annotations = Annotations()
    premises: tuple["Derivation", ...] = ()
    subject: Optional[Term] = None


@dataclass(frozen=True)
class Obligation:
    path: tuple[int, ...]
    kind: str  # entailment | subtyping | well-definedness | shape
    payload: str
    verdict: Verdict


@dataclass(frozen=True)
class CheckReport:
    overall: Verdict
    obligations: tuple[Obligation, ...]
    bound: int
    fuel: int


@dataclass(frozen=True)
class PcfDerivation:
    context: tuple[PcfType, ...]
    term: Term
    type: PcfType
    premises: tuple["PcfDerivation", ...]

    def node_count(self) -> int:
        return 1 + sum(p.node_count() for p in self.premises)


def root_bounds(d: Derivation) -> tuple[IndexTerm, BasicType]:
    """Weight and type of the root judgement (for the soundness harness)."""
    return d.weight, d.type


# ---------------------------------------------------------------------------
# Binding a derivation to a program term

def bind(d: Derivation, subject: Term) -> Derivation:
    """Attach subjects top-down (the file stores none: premises' subjects
    are dictated by the rule) and resolve `_` context placeholders against
    the parent node.  Raises StructuralError on any rule/shape mismatch."""
    return _bind(d, subject, (), None)


def _check_shape(d: Derivation, subject: Term, path: tuple[int, ...]) -> None:
    if d.rule not in _SHAPE:
        raise StructuralError(path, f"unknown rule {d.rule!r}")
    head, expected = _SHAPE[d.rule]
    if not isinstance(subject, head):
        raise StructuralError(
            path, f"rule {d.rule} does not apply to this subject")
    if len(d.premises) != expected:
        raise StructuralError(
            path, f"rule {d.rule} takes {expected} premises, "
                  f"got {len(d.premises)}")


def _bind(d: Derivation, subject: Term, path: tuple[int, ...],
          parent: Optional[Derivation]) -> Derivation:
    _check_shape(d, subject, path)
    context = _resolve_placeholders(d, path, parent)
    d = replace(d, subject=subject, context=context)
    subs = _premise_subjects(subject)
    premises = tuple(_bind(p, sub, path + (i,), d)
                     for i, (p, sub) in enumerate(zip(d.premises, subs)))
    return replace(d, premises=premises)


def _premise_subjects(subject: Term) -> tuple[Term, ...]:
    match subject:
        case TVar() | Const():
            return ()
        case Lam(body) | Fix(body):
            return (body,)
        case Succ(body) | Pred(body):
            return (body,)
        case App(fn, arg):
            return (fn, arg)
        case IfZ(scrut, zero, succ):
            return (scrut, zero, succ)
    raise TypeError(f"not a term: {subject!r}")


def _parent_slot(rule: str, slot: int) -> Optional[int]:
    # Which parent-context slot a premise slot shadows; None for new binders.
    if rule in ("L", "R"):
        return slot - 1 if slot > 0 else None
    return slot


def _resolve_placeholders(d: Derivation, path: tuple[int, ...],
                          parent: Optional[Derivation]) -> tuple[ModalType, ...]:
    out = []
    for i, entry in enumerate(d.context):
        if entry is not None:
            out.append(entry)
            continue
        if parent is None:
            raise StructuralError(path, "placeholder entry in the root context")
        pslot = _parent_slot(parent.rule, i)
        if pslot is None or pslot >= len(parent.context):
            raise StructuralError(
                path, f"placeholder at slot {i} has no parent entry")
        ref = parent.context[pslot]
        if ref is None:
            raise StructuralError(
                path, f"placeholder at slot {i} refers to a placeholder")
        out.append(ModalType(ref.binder, ix.Lit(0), ref.body))
    return tuple(out)


# ---------------------------------------------------------------------------
# Checking

class _Checker:
    def __init__(self, program: EquationalProgram, bound: int, fuel: int,
                 precise: bool):
        self.program = program
        self.bound = bound
        self.fuel = fuel
        self.precise = precise
        self.obligations: list[Obligation] = []

    # -- plumbing ----------------------------------------------------------

    def rel(self) -> str:
        return "=" if self.precise else "<="

    def emit(self, path, kind, payload, verdict) -> None:
        self.obligations.append(Obligation(path, kind, payload, verdict))

    @contextmanager
    def structural(self, path, what: str = ""):
        """Report an oracle or type error raised in the block as a
        StructuralError at `path`, its message prefixed with `what`."""
        try:
            yield
        except (ShapeMismatch, ValueError, EquationError) as e:
            raise StructuralError(path, f"{what}: {e}" if what else str(e)) from e

    def entail(self, path, node, payload, lhs, rel, rhs) -> None:
        with self.structural(path, payload):
            v = ix.entails(node.ctx, Constraint(lhs, rel, rhs), self.program,
                           self.bound, self.fuel)
        self.emit(path, "entailment",
                  f"{payload}: {show_index(lhs)} {rel} {show_index(rhs)}", v)

    def subtype_ob(self, path, ctx, payload, sub, sup) -> None:
        with self.structural(path, payload):
            v = subtype(ctx, sub, sup, self.program, self.bound, self.fuel,
                        self.precise)
        rel = "==" if self.precise else "<:"
        self.emit(path, "subtyping",
                  f"{payload}: {show_type(sub)} {rel} {show_type(sup)}", v)

    def wd_ob(self, path, node, payload, ty) -> None:
        with self.structural(path, payload):
            v = well_defined(node.ctx, ty, self.program, self.bound, self.fuel)
        self.emit(path, "well-definedness", f"{payload}: {show_type(ty)}", v)

    def annot(self, node: Derivation, path, key: str):
        value = getattr(node.annots, key)
        if value is None:
            raise StructuralError(path, f"rule {node.rule} needs the "
                                        f"{key!r} annotation")
        return value

    def witnesses(self, node, path, key, count):
        ws = self.annot(node, path, key)
        if len(ws) != count:
            raise StructuralError(
                path, f"{key!r} needs one witness per context slot "
                      f"({count}), got {len(ws)}")
        return ws

    # -- structural validation ----------------------------------------------

    def validate_node(self, node: Derivation, path) -> None:
        if node.subject is None:
            raise StructuralError(path, "derivation is not bound to a program")
        _check_shape(node, node.subject, path)
        if any(e is None for e in node.context):
            raise StructuralError(path, "unresolved context placeholder")
        if max_free_index(node.subject) >= len(node.context):
            raise StructuralError(
                path, "subject has free variables outside the typing context")
        scope = set(node.ctx.variables)
        named = [("weight", free_vars(node.weight)),
                 ("type", free_type_vars(node.type))]
        named += [(f"context slot {i}", free_type_vars(entry))
                  for i, entry in enumerate(node.context)]
        for what, vs in named:
            stray = vs - scope
            if stray:
                raise StructuralError(
                    path, f"{what} mentions undeclared index variables "
                          f"{sorted(stray)}")
        with self.structural(path):
            for term in _index_terms_of(node):
                ix.check_symbols(term, self.program.signature)

    def same_ctx(self, path, got: ConstraintSet, want: ConstraintSet,
                 what: str) -> None:
        ok = (got.variables == want.variables
              and len(got.constraints) == len(want.constraints)
              and all(a.rel == b.rel and alpha_eq_index(a.lhs, b.lhs)
                      and alpha_eq_index(a.rhs, b.rhs)
                      for a, b in zip(got.constraints, want.constraints)))
        if not ok:
            raise StructuralError(path, f"{what}: expected constraint context "
                                        f"{_show_ctx(want)}, got {_show_ctx(got)}")

    def same_type(self, path, got, want, what: str) -> None:
        if not alpha_eq_type(got, want):
            raise StructuralError(
                path, f"{what}: expected {show_type(want)}, got {show_type(got)}")

    def same_weight(self, path, got, want, what: str) -> None:
        if not alpha_eq_index(got, want):
            raise StructuralError(
                path, f"{what}: expected {show_index(want)}, got {show_index(got)}")

    def same_width(self, path, got, want, what: str) -> None:
        if len(got) != len(want):
            raise StructuralError(
                path, f"{what}: expected {len(want)} context slots, "
                      f"got {len(got)}")

    # -- the rules -----------------------------------------------------------

    def check_node(self, node: Derivation, path: tuple[int, ...]) -> None:
        self.validate_node(node, path)
        getattr(self, f"_rule_{node.rule}")(node, path)
        for i, premise in enumerate(node.premises):
            self.check_node(premise, path + (i,))

    def _rule_V(self, node, path) -> None:
        m = node.subject.index
        if m >= len(node.context):
            raise StructuralError(path, f"variable {m} has no context slot")
        entry = node.context[m]
        self.entail(path, node, "weight is a natural",
                    ix.Lit(0), self.rel(), node.weight)
        self.entail(path, node, "the variable has multiplicity left",
                    ix.Lit(1), self.rel(), entry.bound)
        first = subst_type(entry.body, entry.binder, ix.Lit(0))
        self.subtype_ob(path, node.ctx,
                        "first instance of the entry fits the result type",
                        first, node.type)
        self.wd_ob(path, node, f"slot {m} is well defined", entry)
        for j, other in enumerate(node.context):
            if j != m:
                self.wd_ob(path, node, f"slot {j} is well defined", other)

    def _rule_N(self, node, path) -> None:
        if not isinstance(node.type, NatI):
            raise StructuralError(path, "numerals take interval types")
        n = ix.Lit(node.subject.value)
        self.entail(path, node, "weight is a natural",
                    ix.Lit(0), self.rel(), node.weight)
        self.entail(path, node, "interval reaches down to the numeral",
                    node.type.lo, self.rel(), n)
        self.entail(path, node, "interval reaches up to the numeral",
                    n, self.rel(), node.type.hi)
        for j, entry in enumerate(node.context):
            self.wd_ob(path, node, f"slot {j} is well defined", entry)

    def _rule_L(self, node, path) -> None:
        if not isinstance(node.type, LinArrow):
            raise StructuralError(path, "lambdas take arrow types")
        p = node.premises[0]
        self.same_ctx(path, p.ctx, node.ctx, "lambda premise")
        self.same_width(path + (0,), p.context,
                        (None,) + node.context, "lambda premise")
        self.same_type(path + (0,), p.context[0], node.type.dom,
                       "bound variable entry")
        for i, (got, want) in enumerate(zip(p.context[1:], node.context)):
            self.same_type(path + (0,), got, want, f"passed-through slot {i}")
        self.same_weight(path + (0,), p.weight, node.weight, "lambda weight")
        self.same_type(path + (0,), p.type, node.type.cod, "lambda body type")

    def _rule_S(self, node, path) -> None:
        self._succ_pred(node, path, shift=ix.add)

    def _rule_P(self, node, path) -> None:
        self._succ_pred(node, path, shift=ix.monus)

    def _succ_pred(self, node, path, shift) -> None:
        if not isinstance(node.type, NatI):
            raise StructuralError(path, "s/p take interval types")
        p = node.premises[0]
        self.same_ctx(path, p.ctx, node.ctx, "s/p premise")
        self.same_width(path + (0,), p.context, node.context, "s/p premise")
        for i, (got, want) in enumerate(zip(p.context, node.context)):
            self.same_type(path + (0,), got, want, f"slot {i}")
        self.same_weight(path + (0,), p.weight, node.weight, "s/p weight")
        if not isinstance(p.type, NatI):
            raise StructuralError(path + (0,), "s/p premise takes an interval type")
        shifted = NatI(shift(p.type.lo, ix.Lit(1)), shift(p.type.hi, ix.Lit(1)))
        self.subtype_ob(path, node.ctx,
                        "shifted interval fits the declared one",
                        shifted, node.type)

    def _rule_A(self, node, path) -> None:
        pf, pa = node.premises
        self.same_ctx(path, pf.ctx, node.ctx, "function premise")
        if not isinstance(pf.type, LinArrow):
            raise StructuralError(path + (0,), "function premise must have an "
                                               "arrow type")
        modal = pf.type.dom
        self.same_type(path + (0,), pf.type.cod, node.type,
                       "application result type")
        with self.structural(path, "modal binder clashes with the "
                                   "constraint context"):
            want_ctx = node.ctx.under(modal.binder, modal.bound)
        self.same_ctx(path, pa.ctx, want_ctx, "argument premise")
        self.same_type(path + (1,), pa.type, modal.body, "argument type")
        self.same_width(path + (0,), pf.context, node.context, "function premise")
        self.same_width(path + (1,), pa.context, node.context, "argument premise")
        sums = self.witnesses(node, path, "ctxsum", len(node.context))
        joins = self.witnesses(node, path, "ctxjoin", len(node.context))
        for i, (gamma, delta, sigma) in enumerate(
                zip(pf.context, pa.context, node.context)):
            summed = self._ctx_bounded_sum(
                path, node, i, modal.binder, modal.bound, delta, sums[i])
            joined = self._ctx_join(path, node, i, gamma, summed, joins[i])
            self.subtype_ob(path, node.ctx,
                            f"slot {i}: node context within the combined budget",
                            sigma, joined)
        copies = ix.BoundedSum(modal.binder, modal.bound, pa.weight)
        spent = ix.add(ix.add(pf.weight, modal.bound), copies)
        self.entail(path, node, "weight covers function, copies, and argument",
                    spent, self.rel(), node.weight)

    def _rule_F(self, node, path) -> None:
        pt, pz, pu = node.premises
        self.same_ctx(path, pt.ctx, node.ctx, "scrutinee premise")
        if not isinstance(pt.type, NatI):
            raise StructuralError(path + (0,),
                                  "scrutinee premise takes an interval type")
        with self.structural(path, "scrutinee interval"):
            zero_ctx = node.ctx.extend(
                None, Constraint(pt.type.lo, "<=", ix.Lit(0)))
            succ_ctx = node.ctx.extend(
                None, Constraint(ix.Lit(1), "<=", pt.type.hi))
        self.same_ctx(path, pz.ctx, zero_ctx, "zero-branch premise")
        self.same_ctx(path, pu.ctx, succ_ctx, "successor-branch premise")
        for branch in (pz, pu):
            self.same_width(path, branch.context, node.context, "branch premise")
        for i, (a, b) in enumerate(zip(pz.context, pu.context)):
            self.same_type(path, a, b, f"branch contexts agree at slot {i}")
        self.same_weight(path, pz.weight, pu.weight, "branch weights agree")
        self.same_type(path + (1,), pz.type, node.type, "zero-branch type")
        self.same_type(path + (2,), pu.type, node.type, "successor-branch type")
        self.same_width(path, pt.context, node.context, "scrutinee premise")
        joins = self.witnesses(node, path, "ctxjoin", len(node.context))
        for i, (gamma, delta, sigma) in enumerate(
                zip(pt.context, pz.context, node.context)):
            joined = self._ctx_join(path, node, i, gamma, delta, joins[i])
            self.subtype_ob(path, node.ctx,
                            f"slot {i}: node context within the combined budget",
                            sigma, joined)
        spent = ix.add(pt.weight, pz.weight)
        self.entail(path, node, "weight covers scrutinee and branch",
                    spent, self.rel(), node.weight)

    def _rule_R(self, node, path) -> None:
        p = node.premises[0]
        rec_var = self.annot(node, path, "recvar")
        self_modal = self.annot(node, path, "selftype")
        body_type = self.annot(node, path, "bodytype")
        result_type = self.annot(node, path, "resulttype")
        unfold_bound = self.annot(node, path, "unfoldbound")
        call_cap = self.annot(node, path, "callcap")
        body_weight = self.annot(node, path, "bodyweight")
        self.same_type(path, result_type, node.type,
                       "declared result type vs node type")
        with self.structural(path, "unfolding variable clashes with the "
                                   "constraint context"):
            want_ctx = node.ctx.under(rec_var, unfold_bound)
        self.same_ctx(path, p.ctx, want_ctx, "fixpoint premise")
        self.same_width(path + (0,), p.context, (None,) + node.context,
                        "fixpoint premise")
        self.same_type(path + (0,), p.context[0], self_modal,
                       "recursive variable entry")
        self.same_type(path + (0,), p.type, body_type, "fixpoint body type")
        self.same_weight(path + (0,), p.weight, body_weight,
                         "fixpoint body weight")
        calls = self_modal.bound
        mv = self_modal.binder
        base = subst_type(body_type, rec_var, ix.Lit(0))
        self.subtype_ob(path, node.ctx,
                        "base instance of the body type fits the conclusion",
                        base, node.type)
        if mv in node.ctx.variables or mv == rec_var:
            raise StructuralError(
                path, f"modal binder {mv!r} of the recursive entry clashes "
                      f"with the constraint context")
        with self.structural(path, "recursive call context"):
            shifted_ctx = ConstraintSet(
                node.ctx.variables + (mv, rec_var),
                node.ctx.constraints
                + (Constraint(ix.Var(mv), "<", calls),
                   Constraint(ix.Var(rec_var), "<", unfold_bound)))
        # Call number mv spawned by unfolding rec_var runs as unfolding
        # number (nodes of the first mv subtrees after rec_var) + rec_var + 1.
        preceding = ix.Forest(rec_var, ix.add(ix.Var(rec_var), ix.Lit(1)),
                              ix.Var(mv), calls)
        target = ix.add(ix.add(preceding, ix.Var(rec_var)), ix.Lit(1))
        shifted = subst_type(body_type, rec_var, target)
        self.subtype_ob(path, shifted_ctx,
                        "shifted instances of the body type feed the "
                        "recursive variable",
                        shifted, self_modal.body)
        sums = self.witnesses(node, path, "ctxsum", len(node.context))
        for i, (sigma, gamma) in enumerate(zip(node.context, p.context[1:])):
            summed = self._ctx_bounded_sum(
                path, node, i, rec_var, unfold_bound, gamma, sums[i])
            self.subtype_ob(path, node.ctx,
                            f"slot {i}: node context within the summed budget",
                            sigma, summed)
        total_calls = ix.Forest(rec_var, ix.Lit(0), ix.Lit(1), calls)
        self.entail(path, node, "call tree fits the unfolding bound",
                    total_calls, self.rel(), unfold_bound)
        self.entail(path, node, "call tree fits the weight cap",
                    total_calls, self.rel(), call_cap)
        spent = ix.add(ix.monus(call_cap, ix.Lit(1)),
                       ix.BoundedSum(rec_var, unfold_bound, body_weight))
        self.entail(path, node, "weight covers the call tree and all unfoldings",
                    spent, self.rel(), node.weight)

    # -- context combination helpers ----------------------------------------

    def _ctx_bounded_sum(self, path, node, slot, binder, width, entry,
                         witness) -> ModalType:
        if not isinstance(witness, BoundedSumWitness):
            raise StructuralError(path, f"slot {slot}: expected a bounded-sum "
                                        f"witness")
        with self.structural(path, f"slot {slot}"):
            summed, verdict = bounded_sum_modal(
                binder, width, entry, witness, node.ctx, self.program,
                self.bound, self.fuel)
        self.emit(path, "shape",
                  f"slot {slot}: context entry {show_type(entry)} sums to "
                  f"{show_type(summed)}", verdict)
        return summed

    def _ctx_join(self, path, node, slot, left, right, witness) -> ModalType:
        if not isinstance(witness, SumWitness):
            raise StructuralError(path, f"slot {slot}: expected a sum witness")
        with self.structural(path, f"slot {slot}"):
            joined, verdict = sum_modal(left, right, witness, node.ctx,
                                        self.program, self.bound, self.fuel)
        self.emit(path, "shape",
                  f"slot {slot}: {show_type(left)} joins {show_type(right)} "
                  f"as {show_type(joined)}", verdict)
        return joined


def _index_terms_of(node: Derivation):
    yield node.weight
    for c in node.ctx.constraints:
        yield c.lhs
        yield c.rhs
    annots = tuple(getattr(node.annots, key) for key in _ANNOT_KEYS)
    for x in (node.type,) + node.context + annots:
        yield from _index_terms(x)


def _index_terms(x):
    """The index terms inside a type, witness, tuple of witnesses or
    annotation value (an index term is its own)."""
    match x:
        case NatI(lo, hi):
            yield lo
            yield hi
        case LinArrow(dom, cod):
            yield from _index_terms(dom)
            yield from _index_terms(cod)
        case ModalType(_, bound, body):
            yield bound
            yield from _index_terms(body)
        case SumWitness(_, body):
            yield from _index_terms(body)
        case BoundedSumWitness(_, body, per):
            yield from _index_terms(body)
            yield per
        case tuple():
            for y in x:
                yield from _index_terms(y)
        case str() | None:
            pass
        case _:
            yield x


def _show_ctx(ctx: ConstraintSet) -> str:
    vs = ", ".join(ctx.variables) or "(none)"
    cs = "; ".join(show_constraint(c) for c in ctx.constraints) or "(none)"
    return f"[vars {vs} | {cs}]"


def check(d: Derivation, program: EquationalProgram,
          bound: int = DEFAULT_BOUND, fuel: int = DEFAULT_FUEL,
          precise: bool = False) -> CheckReport:
    """Verify every rule instance of the derivation against the bounded
    oracle.  The derivation must be bound to its subject (see `bind`)."""
    checker = _Checker(program, bound, fuel, precise)
    with ix.entails_memo(program, bound, fuel):
        checker.check_node(d, ())
    obligations = tuple(checker.obligations)
    if obligations:
        overall = merge_verdicts(*(o.verdict for o in obligations))
    else:
        overall = Verified(bound)
    return CheckReport(overall, obligations, bound, fuel)


# ---------------------------------------------------------------------------
# Erasure

def erase_derivation(d: Derivation) -> PcfDerivation:
    """Structure-preserving erasure into a plain PCF derivation, cross-checked
    against the simple typechecker."""
    erased = _erase_node(d, ())
    got = pcf_typecheck(erased.context, erased.term)
    if got != erased.type:
        raise StructuralError((), f"erasure typechecks to {show_pcf_type(got)}, "
                                  f"expected {show_pcf_type(erased.type)}")
    return erased


def _erase_node(d: Derivation, path) -> PcfDerivation:
    if d.subject is None or any(e is None for e in d.context):
        raise StructuralError(path, "derivation is not bound to a program")
    context = tuple(erase_modal(e) for e in d.context)
    ty = erase(d.type)
    premises = tuple(_erase_node(p, path + (i,))
                     for i, p in enumerate(d.premises))
    ok = True
    match d.rule:
        case "V":
            ok = context[d.subject.index] == ty
        case "N":
            ok = ty == NAT
        case "S" | "P":
            ok = ty == premises[0].type
        case "L":
            ok = (isinstance(ty, Arrow) and premises[0].type == ty.cod
                  and premises[0].context[0] == ty.dom)
        case "A":
            ok = premises[0].type == Arrow(premises[1].type, ty)
        case "F":
            ok = (premises[1].type == ty and premises[2].type == ty)
        case "R":
            ok = premises[0].type == ty and premises[0].context[0] == ty
    if not ok:
        raise StructuralError(path, "erasure does not follow the simple rules")
    # The subject, with the binder annotations read off the erased types.
    subs = [p.term for p in premises]
    match d.rule:
        case "L":
            term = Lam(subs[0], ty.dom)
        case "R":
            term = Fix(subs[0], ty)
        case "S":
            term = Succ(subs[0])
        case "P":
            term = Pred(subs[0])
        case "A":
            term = App(subs[0], subs[1])
        case "F":
            term = IfZ(subs[0], subs[1], subs[2])
        case _:
            term = d.subject
    return PcfDerivation(context, term, ty, premises)


# ---------------------------------------------------------------------------
# Derivation files

_SECTIONS = ("phi", "constraints", "context", "weight", "type", "annots",
             "premises")
_ANNOT_KEYS = tuple(f.name for f in fields(Annotations))


def parse_derivation(text: str) -> Derivation:
    """Parse the nested S-expression derivation format.

    One node per form: (RULE (phi a ...) (constraints "I <= J" ...)
    (context "[a<I] T" ... | _) (weight "I") (type "T") (annots ...)
    (premises ...)).  Unknown section or annotation keys are rejected;
    index and type syntax inside strings is the concrete syntax of the
    index/type modules.  Subjects are attached later by `bind`.
    """
    try:
        form = parse_sexpr(text)
    except SExprError as e:
        raise DerivationSyntaxError(str(e)) from e
    return _node_from(form)


def load_derivation(path) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_derivation(fh.read())


def _node_from(form) -> Derivation:
    if not isinstance(form, list) or not form or not isinstance(form[0], str):
        raise DerivationSyntaxError(f"expected a rule form, got {form!r}")
    rule = form[0]
    if rule not in RULES:
        raise DerivationSyntaxError(f"unknown rule {rule!r}")
    sections: dict[str, list] = {}
    for part in form[1:]:
        if (not isinstance(part, list) or not part
                or not isinstance(part[0], str)):
            raise DerivationSyntaxError(f"bad section {part!r} in rule {rule}")
        key = part[0]
        if key not in _SECTIONS:
            raise DerivationSyntaxError(f"unknown section {key!r}")
        if key in sections:
            raise DerivationSyntaxError(f"duplicate section {key!r}")
        sections[key] = part[1:]
    for required in ("weight", "type"):
        if required not in sections:
            raise DerivationSyntaxError(f"rule {rule} lacks ({required} ...)")

    phi = tuple(_atom(x, "phi entry") for x in sections.get("phi", []))
    constraints = tuple(parse_constraint(_string(x, "constraint"))
                        for x in sections.get("constraints", []))
    try:
        ctx = ConstraintSet(phi, constraints)
    except ValueError as e:
        raise DerivationSyntaxError(str(e)) from e
    context = tuple(None if x == "_" else parse_modal_type(_string(x, "context entry"))
                    for x in sections.get("context", []))
    weight = parse_index(_string(_single(sections["weight"], "weight"), "weight"))
    ty = parse_basic_type(_string(_single(sections["type"], "type"), "type"))
    annots = _annots_from(sections.get("annots", []))
    premises = tuple(_node_from(x) for x in sections.get("premises", []))
    try:
        return Derivation(rule, ctx, context, weight, ty, annots, premises)
    except ValueError as e:
        raise DerivationSyntaxError(str(e)) from e


def _annots_from(forms) -> Annotations:
    out: dict = {}
    for part in forms:
        if (not isinstance(part, list) or not part
                or not isinstance(part[0], str)):
            raise DerivationSyntaxError(f"bad annotation {part!r}")
        key = part[0]
        if key not in _ANNOT_KEYS:
            raise DerivationSyntaxError(f"unknown annotation key {key!r}")
        if key in out:
            raise DerivationSyntaxError(f"duplicate annotation {key!r}")
        body = part[1:]
        if key == "recvar":
            out[key] = _atom(_single(body, key), key)
        elif key == "selftype":
            out[key] = parse_modal_type(_string(_single(body, key), key))
        elif key in ("bodytype", "resulttype"):
            out[key] = parse_basic_type(_string(_single(body, key), key))
        elif key in ("unfoldbound", "callcap", "bodyweight"):
            out[key] = parse_index(_string(_single(body, key), key))
        elif key == "ctxsum":
            out[key] = tuple(_bounded_sum_witness(x) for x in body)
        elif key == "ctxjoin":
            out[key] = tuple(_sum_witness(x) for x in body)
    return Annotations(**out)


def _bounded_sum_witness(form) -> BoundedSumWitness:
    if (not isinstance(form, list) or len(form) != 4 or form[0] != "slot"):
        raise DerivationSyntaxError(
            f"ctxsum entries look like (slot param \"sigma\" \"per\"): {form!r}")
    return BoundedSumWitness(_atom(form[1], "witness parameter"),
                             parse_basic_type(_string(form[2], "witness body")),
                             parse_index(_string(form[3], "witness width")))


def _sum_witness(form) -> SumWitness:
    if (not isinstance(form, list) or len(form) != 3 or form[0] != "slot"):
        raise DerivationSyntaxError(
            f"ctxjoin entries look like (slot param \"mu\"): {form!r}")
    return SumWitness(_atom(form[1], "witness parameter"),
                      parse_basic_type(_string(form[2], "witness body")))


def _single(items, what):
    if len(items) != 1:
        raise DerivationSyntaxError(f"({what} ...) takes exactly one value")
    return items[0]


def _atom(x, what) -> str:
    if not isinstance(x, str) or isinstance(x, SString):
        raise DerivationSyntaxError(f"{what} must be a bare atom, got {x!r}")
    return x


def _string(x, what) -> str:
    if not isinstance(x, SString):
        raise DerivationSyntaxError(f"{what} must be a quoted string, got {x!r}")
    return str(x)
