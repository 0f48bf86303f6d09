"""Checking of explicit weighted type derivations.

A derivation is one node per term constructor, carrying the constraint
context, the typing context (one modal type per de Bruijn slot), the weight
and the type of the judgement, plus the rule-specific annotations that
cannot be reconstructed from the conclusion (most importantly for the
fixpoint rule).  `check` re-derives every side condition of each rule and
discharges it through the bounded entailment oracle, reporting every
obligation with its three-valued verdict.

Shape and bookkeeping problems (wrong rule for the subject, missing or
unread annotations, premise judgements unlike the rule's, unknown symbols)
raise StructuralError; they are never conflated with Refuted.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

from . import index as ix
from .fuel import DEFAULT_BOUND, DEFAULT_FUEL
from .index import (Constraint, ConstraintSet, EquationError,
                    EquationalProgram, IndexTerm, Oracle, Verdict, Verified,
                    alpha_eq_index, free_vars, merge_verdicts,
                    parse_constraint, parse_index, show_index, subst_index)
from .pcf import (BINDERS, App, Const, Fix, IfZ, Lam, Pred, Succ, Term, TVar,
                  max_free_index, show_pcf_type, subterms)
from .pcf import pcf_typecheck  # unused: perfbench's tracer patches it here
from .sexpr import SExprError, SString, parse_sexpr
from .types import (BasicType, BoundedSumWitness, LinArrow, ModalType, NatI,
                    ShapeMismatch, SumWitness, bounded_sum_modal, erase,
                    inequality, parse_basic_type, parse_modal_type, subtype,
                    sum_modal, well_defined)

__all__ = [
    "Derivation", "Annotations", "Obligation", "CheckReport",
    "StructuralError", "DerivationSyntaxError",
    "parse_derivation", "load_derivation", "bind", "check",
]

# rule -> the term constructor it applies to; it has one premise per subterm
_SHAPE = {"V": TVar, "L": Lam, "A": App, "S": Succ, "P": Pred, "N": Const,
          "F": IfZ, "R": Fix}

# rule -> the annotations it reads; the other rules read none
_TAKES = {"A": ("ctxsum", "ctxjoin"), "F": ("ctxjoin",),
          "R": ("recvar", "selftype", "bodytype", "resulttype", "unfoldbound",
                "callcap", "bodyweight", "ctxsum")}


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


class Obligation(NamedTuple):
    path: tuple[int, ...]
    kind: str  # entailment | subtyping | well-definedness | shape
    payload: str
    verdict: Verdict


class CheckReport(NamedTuple):
    overall: Verdict
    obligations: tuple[Obligation, ...]
    bound: int
    fuel: int


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
    if not isinstance(subject, _SHAPE[d.rule]):
        raise StructuralError(
            path, f"rule {d.rule} does not apply to this subject")
    expected = len(subterms(subject))
    if len(d.premises) != expected:
        raise StructuralError(
            path, f"rule {d.rule} takes {expected} premises, "
                  f"got {len(d.premises)}")


def _bind(d: Derivation, subject: Term, path: tuple[int, ...],
          parent: Optional[Derivation]) -> Derivation:
    _check_shape(d, subject, path)
    context = _resolve_placeholders(d, path, parent)
    d = replace(d, subject=subject, context=context)
    premises = tuple(_bind(p, sub, path + (i,), d) for i, (p, sub)
                     in enumerate(zip(d.premises, subterms(subject))))
    return replace(d, premises=premises)


def _resolve_placeholders(d: Derivation, path: tuple[int, ...],
                          parent: Optional[Derivation]) -> tuple[ModalType, ...]:
    out = []
    for i, entry in enumerate(d.context):
        if entry is not None:
            out.append(entry)
            continue
        if parent is None:
            raise StructuralError(path, "placeholder entry in the root context")
        # A binder's premise has the bound variable in slot 0.
        pslot = i - isinstance(parent.subject, BINDERS)
        if not 0 <= pslot < len(parent.context):
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
    def __init__(self, oracle: Oracle, precise: bool):
        self.oracle = oracle
        self.precise = precise
        self.rel = inequality(precise)
        self.obligations: list[Obligation] = []

    # -- plumbing ----------------------------------------------------------

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
            goal = Constraint(lhs, rel, rhs)
            v = ix.entails(node.ctx, goal, self.oracle)
        self.emit(path, "entailment", f"{payload}: {show_index(goal)}", v)

    def subtype_ob(self, path, ctx, payload, sub, sup) -> None:
        with self.structural(path, payload):
            v = subtype(ctx, sub, sup, self.oracle, self.precise)
        rel = "==" if self.precise else "<:"
        self.emit(path, "subtyping",
                  f"{payload}: {show_index(sub)} {rel} {show_index(sup)}", v)

    def wd_ob(self, path, node, payload, ty) -> None:
        with self.structural(path, payload):
            v = well_defined(node.ctx, ty, self.oracle)
        self.emit(path, "well-definedness", f"{payload}: {show_index(ty)}", v)

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
        for key in _ANNOT_KEYS:
            if (getattr(node.annots, key) is not None
                    and key not in _TAKES.get(node.rule, ())):
                raise StructuralError(path, f"rule {node.rule} does not take "
                                            f"the {key!r} annotation")
        if any(e is None for e in node.context):
            raise StructuralError(path, "unresolved context placeholder")
        if max_free_index(node.subject) >= len(node.context):
            raise StructuralError(
                path, "subject has free variables outside the typing context")
        scope = set(node.ctx.variables)
        named = [("weight", free_vars(node.weight)),
                 ("type", free_vars(node.type))]
        named += [(f"context slot {i}", free_vars(entry))
                  for i, entry in enumerate(node.context)]
        for what, vs in named:
            stray = vs - scope
            if stray:
                raise StructuralError(
                    path, f"{what} mentions undeclared index variables "
                          f"{sorted(stray)}")
        with self.structural(path):
            ix.check_symbols((node.weight, node.ctx.constraints, node.type,
                              node.context, node.annots),
                             self.oracle.program.signature)

    # -- premises ------------------------------------------------------------

    @staticmethod
    def same(path, got, want, what: str) -> None:
        if not alpha_eq_index(got, want):
            raise StructuralError(
                path, f"{what}: expected {show_index(want)}, "
                      f"got {show_index(got)}")

    def premise(self, node, path, i, what, ctx, context, weight=None,
                type=None) -> Derivation:
        """Premise `i` of `node`, once it has the judgement its rule
        requires: constraint context `ctx`, typing context `context` (an
        entry None is not compared), and `weight` and `type` where given."""
        p, at = node.premises[i], path + (i,)
        self.same(at, p.ctx, ctx, f"{what} constraint context")
        if len(p.context) != len(context):
            raise StructuralError(at, f"{what}: expected {len(context)} "
                                      f"context slots, got {len(p.context)}")
        for j, (got, want) in enumerate(zip(p.context, context)):
            if want is not None:
                self.same(at, got, want, f"{what} slot {j}")
        if weight is not None:
            self.same(at, p.weight, weight, f"{what} weight")
        if type is not None:
            self.same(at, p.type, type, f"{what} type")
        return p

    @staticmethod
    def binder_ann(path, node, ty, what: str) -> None:
        """A binder's annotation, where the program gives one, is the
        erasure of `ty`, the type the derivation gives the bound variable."""
        ann, want = node.subject.ann, erase(ty)
        if ann is not None and ann != want:
            raise StructuralError(
                path, f"{what} annotation {show_pcf_type(ann)} does not match "
                      f"the erased type {show_pcf_type(want)}")

    # -- the rules -----------------------------------------------------------

    def check_node(self, node: Derivation, path: tuple[int, ...]) -> None:
        self.validate_node(node, path)
        getattr(self, f"_rule_{node.rule}")(node, path)
        for i, premise in enumerate(node.premises):
            self.check_node(premise, path + (i,))

    def _rule_V(self, node, path) -> None:
        m = node.subject.index
        entry = node.context[m]
        self.entail(path, node, "weight is a natural",
                    ix.Lit(0), self.rel, node.weight)
        self.entail(path, node, "the variable has multiplicity left",
                    ix.Lit(1), self.rel, entry.bound)
        first = subst_index(entry.body, entry.binder, ix.Lit(0))
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
                    ix.Lit(0), self.rel, node.weight)
        self.entail(path, node, "interval reaches down to the numeral",
                    node.type.lo, self.rel, n)
        self.entail(path, node, "interval reaches up to the numeral",
                    n, self.rel, node.type.hi)
        for j, entry in enumerate(node.context):
            self.wd_ob(path, node, f"slot {j} is well defined", entry)

    def _rule_L(self, node, path) -> None:
        if not isinstance(node.type, LinArrow):
            raise StructuralError(path, "lambdas take arrow types")
        self.binder_ann(path, node, node.type.dom, "lambda")
        self.premise(node, path, 0, "lambda premise", node.ctx,
                     (node.type.dom,) + node.context, node.weight,
                     node.type.cod)

    def _rule_S(self, node, path) -> None:
        if not isinstance(node.type, NatI):
            raise StructuralError(path, "s/p take interval types")
        p = self.premise(node, path, 0, "s/p premise", node.ctx, node.context,
                         node.weight)
        if not isinstance(p.type, NatI):
            raise StructuralError(path + (0,), "s/p premise takes an interval type")
        shift = ix.add if node.rule == "S" else ix.monus
        shifted = NatI(shift(p.type.lo, ix.Lit(1)), shift(p.type.hi, ix.Lit(1)))
        self.subtype_ob(path, node.ctx,
                        "shifted interval fits the declared one",
                        shifted, node.type)

    _rule_P = _rule_S

    def _rule_A(self, node, path) -> None:
        pf = node.premises[0]
        if not isinstance(pf.type, LinArrow):
            raise StructuralError(path + (0,), "function premise must have an "
                                               "arrow type")
        modal = pf.type.dom
        free = (None,) * len(node.context)
        self.premise(node, path, 0, "function premise", node.ctx, free,
                     type=LinArrow(modal, node.type))
        with self.structural(path, "modal binder clashes with the "
                                   "constraint context"):
            arg_ctx = node.ctx.under(modal.binder, modal.bound)
        pa = self.premise(node, path, 1, "argument premise", arg_ctx, free,
                          type=modal.body)
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
                    spent, self.rel, node.weight)

    def _rule_F(self, node, path) -> None:
        free = (None,) * len(node.context)
        pt = self.premise(node, path, 0, "scrutinee premise", node.ctx, free)
        if not isinstance(pt.type, NatI):
            raise StructuralError(path + (0,),
                                  "scrutinee premise takes an interval type")
        with self.structural(path, "scrutinee interval"):
            zero_ctx = node.ctx.extend(
                None, Constraint(pt.type.lo, "<=", ix.Lit(0)))
            succ_ctx = node.ctx.extend(
                None, Constraint(ix.Lit(1), "<=", pt.type.hi))
        pz = self.premise(node, path, 1, "zero-branch premise", zero_ctx, free,
                          type=node.type)
        self.premise(node, path, 2, "successor-branch premise", succ_ctx,
                     pz.context, pz.weight, node.type)
        joins = self.witnesses(node, path, "ctxjoin", len(node.context))
        for i, (gamma, delta, sigma) in enumerate(
                zip(pt.context, pz.context, node.context)):
            joined = self._ctx_join(path, node, i, gamma, delta, joins[i])
            self.subtype_ob(path, node.ctx,
                            f"slot {i}: node context within the combined budget",
                            sigma, joined)
        spent = ix.add(pt.weight, pz.weight)
        self.entail(path, node, "weight covers scrutinee and branch",
                    spent, self.rel, node.weight)

    def _rule_R(self, node, path) -> None:
        self.binder_ann(path, node, node.type, "fix")
        rec_var = self.annot(node, path, "recvar")
        self_modal = self.annot(node, path, "selftype")
        body_type = self.annot(node, path, "bodytype")
        result_type = self.annot(node, path, "resulttype")
        unfold_bound = self.annot(node, path, "unfoldbound")
        call_cap = self.annot(node, path, "callcap")
        body_weight = self.annot(node, path, "bodyweight")
        self.same(path, result_type, node.type,
                  "declared result type vs node type")
        with self.structural(path, "unfolding variable clashes with the "
                                   "constraint context"):
            body_ctx = node.ctx.under(rec_var, unfold_bound)
        p = self.premise(node, path, 0, "fixpoint premise", body_ctx,
                         (self_modal,) + (None,) * len(node.context),
                         body_weight, body_type)
        calls = self_modal.bound
        mv = self_modal.binder
        base = subst_index(body_type, rec_var, ix.Lit(0))
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
        shifted = subst_index(body_type, rec_var, target)
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
                    total_calls, self.rel, unfold_bound)
        self.entail(path, node, "call tree fits the weight cap",
                    total_calls, self.rel, call_cap)
        spent = ix.add(ix.monus(call_cap, ix.Lit(1)),
                       ix.BoundedSum(rec_var, unfold_bound, body_weight))
        self.entail(path, node, "weight covers the call tree and all unfoldings",
                    spent, self.rel, node.weight)

    # -- context combination helpers ----------------------------------------

    def _ctx_bounded_sum(self, path, node, slot, binder, width, entry,
                         witness) -> ModalType:
        if not isinstance(witness, BoundedSumWitness):
            raise StructuralError(path, f"slot {slot}: expected a bounded-sum "
                                        f"witness")
        with self.structural(path, f"slot {slot}"):
            summed, verdict = bounded_sum_modal(
                binder, width, entry, witness, node.ctx, self.oracle)
        self.emit(path, "shape",
                  f"slot {slot}: context entry {show_index(entry)} sums to "
                  f"{show_index(summed)}", verdict)
        return summed

    def _ctx_join(self, path, node, slot, left, right, witness) -> ModalType:
        if not isinstance(witness, SumWitness):
            raise StructuralError(path, f"slot {slot}: expected a sum witness")
        with self.structural(path, f"slot {slot}"):
            joined, verdict = sum_modal(left, right, witness, node.ctx,
                                        self.oracle)
        self.emit(path, "shape",
                  f"slot {slot}: {show_index(left)} joins {show_index(right)} "
                  f"as {show_index(joined)}", verdict)
        return joined


def check(d: Derivation, program: EquationalProgram,
          bound: int = DEFAULT_BOUND, fuel: int = DEFAULT_FUEL,
          precise: bool = False) -> CheckReport:
    """Verify every rule instance of the derivation against the bounded
    oracle.  The derivation must be bound to its subject (see `bind`)."""
    checker = _Checker(Oracle(program, bound, fuel), precise)
    checker.check_node(d, ())
    obligations = tuple(checker.obligations)
    if obligations:
        overall = merge_verdicts(*(o.verdict for o in obligations))
    else:
        overall = Verified(bound)
    return CheckReport(overall, obligations, bound, fuel)


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
    if not isinstance(form, list) or not form or not _bare(form[0]):
        raise DerivationSyntaxError(f"expected a rule form, got {form!r}")
    rule = form[0]
    if rule not in _SHAPE:
        raise DerivationSyntaxError(f"unknown rule {rule!r}")
    sections = dict(_keyed(form[1:], _SECTIONS, "section", "section",
                           f" in rule {rule}"))
    for required in ("weight", "type"):
        if required not in sections:
            raise DerivationSyntaxError(f"rule {rule} lacks ({required} ...)")

    phi = tuple(_name(x, "phi entry") for x in sections.get("phi", []))
    constraints = tuple(parse_constraint(_string(x, "constraint"))
                        for x in sections.get("constraints", []))
    try:
        ctx = ConstraintSet(phi, constraints)
    except ValueError as e:
        raise DerivationSyntaxError(str(e)) from e
    context = tuple(None if _bare(x) and x == "_"
                    else parse_modal_type(_string(x, "context entry"))
                    for x in sections.get("context", []))
    weight = parse_index(_string(_single(sections["weight"], "weight"), "weight"))
    ty = parse_basic_type(_string(_single(sections["type"], "type"), "type"))
    annots = _annots_from(sections.get("annots", []))
    premises = tuple(_node_from(x) for x in sections.get("premises", []))
    try:
        return Derivation(rule, ctx, context, weight, ty, annots, premises)
    except ValueError as e:
        raise DerivationSyntaxError(str(e)) from e


def _keyed(forms, keys, what: str, unknown: str, where: str = ""):
    """(KEY, values) for each of `forms` in order, once it is checked to be
    a list headed by a KEY in `keys` that no earlier form has.  The errors
    call a form `what`, followed by `where` for a bad one, and a KEY not in
    `keys` `unknown`."""
    seen = set()
    for part in forms:
        if not isinstance(part, list) or not part or not _bare(part[0]):
            raise DerivationSyntaxError(f"bad {what} {part!r}{where}")
        key = part[0]
        if key not in keys:
            raise DerivationSyntaxError(f"unknown {unknown} {key!r}")
        if key in seen:
            raise DerivationSyntaxError(f"duplicate {what} {key!r}")
        seen.add(key)
        yield key, part[1:]


def _annots_from(forms) -> Annotations:
    out: dict = {}
    for key, body in _keyed(forms, _ANNOT_KEYS, "annotation",
                            "annotation key"):
        if key == "recvar":
            out[key] = _name(_single(body, key), key)
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
    if (not isinstance(form, list) or len(form) != 4 or not _bare(form[0])
            or form[0] != "slot"):
        raise DerivationSyntaxError(
            f"ctxsum entries look like (slot param \"sigma\" \"per\"): {form!r}")
    return BoundedSumWitness(_name(form[1], "witness parameter"),
                             parse_basic_type(_string(form[2], "witness body")),
                             parse_index(_string(form[3], "witness width")))


def _sum_witness(form) -> SumWitness:
    if (not isinstance(form, list) or len(form) != 3 or not _bare(form[0])
            or form[0] != "slot"):
        raise DerivationSyntaxError(
            f"ctxjoin entries look like (slot param \"mu\"): {form!r}")
    return SumWitness(_name(form[1], "witness parameter"),
                      parse_basic_type(_string(form[2], "witness body")))


def _single(items, what):
    if len(items) != 1:
        raise DerivationSyntaxError(f"({what} ...) takes exactly one value")
    return items[0]


def _bare(x) -> bool:
    """Is `x` a bare word, not a list and not a quoted string?"""
    return isinstance(x, str) and not isinstance(x, SString)


def _name(x, what) -> str:
    if not _bare(x) or not ix.is_name(x):
        raise DerivationSyntaxError(
            f"{what} must be a bare index variable name, got {x!r}")
    return x


def _string(x, what) -> str:
    if not isinstance(x, SString):
        raise DerivationSyntaxError(f"{what} must be a quoted string, got {x!r}")
    return str(x)
