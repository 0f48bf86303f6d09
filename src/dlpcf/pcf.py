"""PCF terms with de Bruijn variables: parsing, size, simple typing,
and weak-head reduction.

The reducer here is the differential oracle for the abstract machine: both
must agree on the value of every program (closed term of type Nat).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .fuel import Fuel, DEFAULT_FUEL

__all__ = [
    "Term", "TVar", "Const", "Succ", "Pred", "Lam", "App", "IfZ", "Fix",
    "PcfType", "NatT", "Arrow", "NAT",
    "parse_term", "show_term", "show_pcf_type",
    "size", "subterm_sizes", "pcf_typecheck", "PcfTypeError",
    "PcfSyntaxError",
    "shift", "subst", "wh_step", "wh_eval", "StuckTerm", "max_free_index",
    "BINDERS", "subterms", "with_subterms", "walk", "map_vars",
]


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class NatT:
    pass


@dataclass(frozen=True)
class Arrow:
    dom: "PcfType"
    cod: "PcfType"


PcfType = Union[NatT, Arrow]
NAT = NatT()


def show_pcf_type(t: PcfType) -> str:
    match t:
        case NatT():
            return "Nat"
        case Arrow(dom, cod):
            left = show_pcf_type(dom)
            if isinstance(dom, Arrow):
                left = f"({left})"
            return f"{left} -> {show_pcf_type(cod)}"
    raise TypeError(f"not a PCF type: {t!r}")


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class TVar:
    index: int


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("numerals are naturals")


@dataclass(frozen=True)
class Succ:
    body: "Term"


@dataclass(frozen=True)
class Pred:
    body: "Term"


@dataclass(frozen=True)
class Lam:
    # Binder annotations come from the surface syntax and only feed the
    # typechecker; they do not affect equality, size, or evaluation.
    body: "Term"
    ann: Optional[PcfType] = field(default=None, compare=False)


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class IfZ:
    scrut: "Term"
    zero: "Term"
    succ: "Term"


@dataclass(frozen=True)
class Fix:
    body: "Term"
    ann: Optional[PcfType] = field(default=None, compare=False)


Term = Union[TVar, Const, Succ, Pred, Lam, App, IfZ, Fix]


# Each constructor's subterm fields, in order; `Lam` and `Fix` bind de
# Bruijn index 0 in theirs.  Every structural walk below reads this table.
_SUBTERMS = {TVar: (), Const: (), Succ: ("body",), Pred: ("body",),
             Lam: ("body",), Fix: ("body",), App: ("fn", "arg"),
             IfZ: ("scrut", "zero", "succ")}
BINDERS = (Lam, Fix)


def subterms(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of `t`, in field order."""
    return tuple(getattr(t, f) for f in _SUBTERMS[type(t)])


def with_subterms(t: Term, parts: Sequence[Term]) -> Term:
    """`t` with its immediate subterms replaced by `parts`, in the order of
    `subterms`; a binder keeps its annotation."""
    if isinstance(t, BINDERS):
        return type(t)(*parts, t.ann)
    return type(t)(*parts) if parts else t


def walk(t: Term) -> list[tuple[Term, int]]:
    """Every node of `t` in pre-order, with the number of binders above it.
    Iterative, so the depth of `t` is bounded by memory only."""
    nodes = []
    stack = [(t, 0)]
    while stack:
        node, depth = pair = stack.pop()
        nodes.append(pair)
        fields = _SUBTERMS[type(node)]
        if fields:
            depth += isinstance(node, BINDERS)
            for f in reversed(fields):
                stack.append((getattr(node, f), depth))
    return nodes


def map_vars(t: Term, on_var: Callable[[int, int], Term]) -> Term:
    """`t` with each variable `TVar(k)` under `depth` binders replaced by
    `on_var(k, depth)`.  Rebuilds in reverse pre-order, where a node's
    subterms come before it, so it is as iterative as `walk`."""
    done: list[Term] = []
    for node, depth in reversed(walk(t)):
        if isinstance(node, TVar):
            node = on_var(node.index, depth)
        elif n := len(_SUBTERMS[type(node)]):
            parts = done[-n:][::-1]
            del done[-n:]
            node = with_subterms(node, parts)
        done.append(node)
    return done[0]


def _own_size(node: Term) -> int:
    """A node's share of `size`: s/p count 2, every other node 1."""
    return 2 if isinstance(node, (Succ, Pred)) else 1


def size(t: Term) -> int:
    """Term size: variables and numerals count 1, s/p count 2, binders and
    applications count 1 plus their parts."""
    return sum(_own_size(node) for node, _ in walk(t))


def subterm_sizes(t: Term) -> dict[int, int]:
    """The `size` of every subterm of `t`, keyed by the subterm's `id`: one
    fold of `walk`, read in reverse so a node's subterms come before it.
    The keys name live objects only while `t` is alive."""
    sizes: dict[int, int] = {}
    for node, _ in reversed(walk(t)):
        sizes[id(node)] = _own_size(node) + sum(sizes[id(sub)]
                                                for sub in subterms(node))
    return sizes


def max_free_index(t: Term, depth: int = 0) -> int:
    """Largest free de Bruijn index, or -1 for a closed term."""
    return max((node.index - depth - d for node, d in walk(t)
                if isinstance(node, TVar) and node.index >= depth + d),
               default=-1)


# ---------------------------------------------------------------------------
# de Bruijn machinery (used only by the reducer)

def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to the free variables of `t` from index `cutoff` up."""
    if by == 0:
        return t
    return map_vars(t, lambda k, d: TVar(k + by if k >= cutoff + d else k))


def subst(t: Term, repl: Term, j: int = 0) -> Term:
    """Substitute `repl` for TVar(j) in `t`, lowering the indices above j."""
    return map_vars(t, lambda k, d: shift(repl, d) if k == j + d
                    else TVar(k - 1 if k > j + d else k))


# ---------------------------------------------------------------------------
# Simple typing

class PcfTypeError(Exception):
    pass


def pcf_typecheck(gamma: Sequence[PcfType], t: Term) -> PcfType:
    """Syntax-directed typing; Lam/Fix nodes must carry annotations.
    Errors name the offending subterm by its path from the root."""
    return _typecheck(tuple(gamma), t, ())


def _fail(path: tuple[str, ...], message: str) -> "PcfTypeError":
    where = " of ".join(reversed(path)) if path else "the whole term"
    return PcfTypeError(f"{message} (in {where})")


def _typecheck(gamma: tuple[PcfType, ...], t: Term,
               path: tuple[str, ...]) -> PcfType:
    match t:
        case TVar(k):
            if k >= len(gamma):
                raise _fail(path, f"variable index {k} out of scope")
            return gamma[k]
        case Const():
            return NAT
        case Succ(b) | Pred(b):
            inner = _typecheck(gamma, b, path + ("the body",))
            if inner != NAT:
                raise _fail(path, f"s/p expects Nat, got {show_pcf_type(inner)}")
            return NAT
        case Lam(b, ann):
            if ann is None:
                raise _fail(path, "lambda binder lacks a type annotation")
            return Arrow(ann, _typecheck((ann,) + gamma, b,
                                         path + ("the body",)))
        case App(f, a):
            fn_ty = _typecheck(gamma, f, path + ("the function",))
            if not isinstance(fn_ty, Arrow):
                raise _fail(path, "applying a non-function of type "
                                  f"{show_pcf_type(fn_ty)}")
            arg_ty = _typecheck(gamma, a, path + ("the argument",))
            if arg_ty != fn_ty.dom:
                raise _fail(path, f"argument type {show_pcf_type(arg_ty)} "
                                  f"does not match domain "
                                  f"{show_pcf_type(fn_ty.dom)}")
            return fn_ty.cod
        case IfZ(s, z, u):
            if _typecheck(gamma, s, path + ("the scrutinee",)) != NAT:
                raise _fail(path, "ifz scrutinee must have type Nat")
            zt = _typecheck(gamma, z, path + ("the zero branch",))
            ut = _typecheck(gamma, u, path + ("the successor branch",))
            if zt != ut:
                raise _fail(path, f"ifz branches disagree: {show_pcf_type(zt)}"
                                  f" vs {show_pcf_type(ut)}")
            return zt
        case Fix(b, ann):
            if ann is None:
                raise _fail(path, "fix binder lacks a type annotation")
            got = _typecheck((ann,) + gamma, b, path + ("the body",))
            if got != ann:
                raise _fail(path, f"fix body has type {show_pcf_type(got)}, "
                                  f"annotation says {show_pcf_type(ann)}")
            return ann
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Weak-head reduction

class StuckTerm(Exception):
    """A closed normal form that is not a numeral sits in a Nat position;
    cannot happen for well-typed programs."""


def wh_step(t: Term) -> Optional[Term]:
    """One weak-head step, or None when `t` is normal (numerals, lambdas)."""
    match t:
        case Const() | Lam():
            return None
        case TVar():
            raise StuckTerm("free variable in a closed reduction")
        case Succ(Const(n)):
            return Const(n + 1)
        case Succ(b):
            inner = wh_step(b)
            if inner is None:
                raise StuckTerm("s applied to a non-numeral normal form")
            return Succ(inner)
        case Pred(Const(0)):
            return Const(0)
        case Pred(Const(n)):
            return Const(n - 1)
        case Pred(b):
            inner = wh_step(b)
            if inner is None:
                raise StuckTerm("p applied to a non-numeral normal form")
            return Pred(inner)
        case App(Lam(body), arg):
            return subst(body, arg)
        case App(f, a):
            inner = wh_step(f)
            if inner is None:
                raise StuckTerm("applying a non-function normal form")
            return App(inner, a)
        case IfZ(Const(0), z, _):
            return z
        case IfZ(Const(_), _, u):
            return u
        case IfZ(s, z, u):
            inner = wh_step(s)
            if inner is None:
                raise StuckTerm("ifz scrutinee is a non-numeral normal form")
            return IfZ(inner, z, u)
        case Fix(body):
            return subst(body, t)
    raise TypeError(f"not a term: {t!r}")


# The message `wh_step` raises for each frame whose hole holds a normal form
# the frame cannot consume: a lambda under s, p or ifz, a numeral applied.
_STUCK = {Succ: "s applied to a non-numeral normal form",
          Pred: "p applied to a non-numeral normal form",
          App: "applying a non-function normal form",
          IfZ: "ifz scrutinee is a non-numeral normal form"}


def wh_eval(t: Term, fuel: int = DEFAULT_FUEL) -> tuple[int, int]:
    """Reduce `t` by weak-head steps to a numeral; returns (value, step count).

    A refocusing loop (Danvy & Nielsen, "Refocusing in reduction
    semantics", BRICS RS-04-26, 2004).  The evaluation context is an
    explicit list of frames, each the `Succ`, `Pred`, `App` or `IfZ` node
    whose first subterm is the hole; only its other fields (the argument,
    the branches) are read.  The loop descends to the redex once, contracts
    it, and goes on from the contractum in the same context, so a step
    costs O(1) in the depth of the term, and nothing recurses.  It counts
    the steps, ticks the fuel and raises the `StuckTerm` messages of
    iterating `wh_step`, its one-step specification, from the root."""
    gas = Fuel(fuel)
    steps = 0
    frames: list[Term] = []
    focus = t
    while True:
        match focus:
            case Succ(hole) | Pred(hole) | App(hole, _) | IfZ(hole, _, _):
                frames.append(focus)
                focus = hole
                continue
            case Const(n) if not frames:
                return n, steps
            case Const() | Lam():
                gas.tick()
                if not frames:
                    raise StuckTerm("normal form is not a numeral")
            case Fix(body):
                gas.tick()
                focus = subst(body, focus)
                steps += 1
                continue
            case TVar():
                gas.tick()
                raise StuckTerm("free variable in a closed reduction")
            case _:
                raise TypeError(f"not a term: {focus!r}")
        # a numeral or a lambda fills the hole of the innermost frame
        frame = frames.pop()
        match frame, focus:
            case Succ(), Const(n):
                focus = Const(n + 1)
            case Pred(), Const(n):
                focus = Const(n - 1 if n else 0)
            case App(_, arg), Lam(body):
                focus = subst(body, arg)
            case IfZ(_, zero, succ), Const(n):
                focus = succ if n else zero
            case _:
                raise StuckTerm(_STUCK[type(frame)])
        steps += 1


# ---------------------------------------------------------------------------
# Surface syntax

KEYWORDS = {"fix", "ifz", "then", "else", "s", "p", "Nat"}

_PCF_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<num>\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>->|[\\().:])")


class PcfSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Tok:
    text: str
    kind: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _PCF_TOKEN.match(text, pos)
        if not m:
            raise PcfSyntaxError(f"bad character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(_Tok(chunk, m.lastgroup, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


class _PcfParser:
    def __init__(self, tokens: list[_Tok]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Tok("", "op", 1, 1)
            raise PcfSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            raise PcfSyntaxError(f"expected {text!r}, got {tok.text!r}",
                                 tok.line, tok.col)
        return tok

    def error(self, message: str) -> PcfSyntaxError:
        tok = self.peek() or (self.tokens[-1] if self.tokens
                              else _Tok("", "op", 1, 1))
        return PcfSyntaxError(message, tok.line, tok.col)


def parse_term(text: str) -> Term:
    """Parse the surface grammar, resolving named variables to de Bruijn
    indices.  Binder annotations (`\\x:T. e`, `fix f:T. e`) are optional in
    the grammar and required only by the typechecker."""
    p = _PcfParser(_lex(text))
    t = _parse_expr(p, ())
    if p.peek() is not None:
        raise p.error(f"trailing input {p.peek().text!r}")
    return t


def _parse_expr(p: _PcfParser, scope: tuple[str, ...]) -> Term:
    tok = p.peek()
    if tok is None:
        raise p.error("unexpected end of input")
    if tok.text == "\\":
        p.next()
        name = _binder_name(p)
        ann = _optional_ann(p)
        p.expect(".")
        return Lam(_parse_expr(p, (name,) + scope), ann)
    if tok.text == "fix":
        p.next()
        name = _binder_name(p)
        ann = _optional_ann(p)
        p.expect(".")
        return Fix(_parse_expr(p, (name,) + scope), ann)
    if tok.text == "ifz":
        p.next()
        scrut = _parse_expr(p, scope)
        p.expect("then")
        zero = _parse_expr(p, scope)
        p.expect("else")
        succ = _parse_expr(p, scope)
        return IfZ(scrut, zero, succ)
    return _parse_app(p, scope)


def _binder_name(p: _PcfParser) -> str:
    tok = p.next()
    if tok.kind != "id" or tok.text in KEYWORDS:
        raise PcfSyntaxError(f"expected binder name, got {tok.text!r}",
                             tok.line, tok.col)
    return tok.text


def _optional_ann(p: _PcfParser) -> Optional[PcfType]:
    if p.peek() is not None and p.peek().text == ":":
        p.next()
        return _parse_type(p)
    return None


_APP_STARTERS = ("num", "id")


def _parse_app(p: _PcfParser, scope: tuple[str, ...]) -> Term:
    t = _parse_unary(p, scope)
    while True:
        tok = p.peek()
        if tok is None:
            return t
        if tok.text == "(" or (tok.kind in _APP_STARTERS
                               and tok.text not in ("then", "else")):
            t = App(t, _parse_unary(p, scope))
        else:
            return t


def _parse_unary(p: _PcfParser, scope: tuple[str, ...]) -> Term:
    tok = p.peek()
    if tok is not None and tok.text in ("s", "p"):
        p.next()
        inner = _parse_unary(p, scope)
        return Succ(inner) if tok.text == "s" else Pred(inner)
    return _parse_atom(p, scope)


def _parse_atom(p: _PcfParser, scope: tuple[str, ...]) -> Term:
    tok = p.next()
    if tok.kind == "num":
        return Const(int(tok.text))
    if tok.text == "(":
        t = _parse_expr(p, scope)
        p.expect(")")
        return t
    if tok.kind == "id":
        if tok.text in KEYWORDS:
            raise PcfSyntaxError(f"unexpected keyword {tok.text!r}",
                                 tok.line, tok.col)
        try:
            return TVar(scope.index(tok.text))
        except ValueError:
            raise PcfSyntaxError(f"unbound identifier {tok.text!r}",
                                 tok.line, tok.col) from None
    raise PcfSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _parse_type(p: _PcfParser) -> PcfType:
    left = _parse_type_atom(p)
    if p.peek() is not None and p.peek().text == "->":
        p.next()
        return Arrow(left, _parse_type(p))
    return left


def _parse_type_atom(p: _PcfParser) -> PcfType:
    tok = p.next()
    if tok.text == "Nat":
        return NAT
    if tok.text == "(":
        t = _parse_type(p)
        p.expect(")")
        return t
    raise PcfSyntaxError(f"expected a type, got {tok.text!r}",
                         tok.line, tok.col)


def show_term(t: Term, scope: tuple[str, ...] = ()) -> str:
    """Print with invented binder names; inverse of parse_term up to alpha."""
    def name_for(depth: int) -> str:
        return f"x{depth}"

    def go(t: Term, depth: int, scope: tuple[str, ...]) -> str:
        match t:
            case TVar(k):
                return scope[k] if k < len(scope) else f"?{k - len(scope)}"
            case Const(n):
                return str(n)
            case Succ(b):
                return f"s({go(b, depth, scope)})"
            case Pred(b):
                return f"p({go(b, depth, scope)})"
            case Lam(b):
                x = name_for(depth)
                return f"\\{x}. {go(b, depth + 1, (x,) + scope)}"
            case Fix(b):
                x = name_for(depth)
                return f"fix {x}. {go(b, depth + 1, (x,) + scope)}"
            case App(f, a):
                fs = go(f, depth, scope)
                if isinstance(f, (Lam, Fix, IfZ)):
                    fs = f"({fs})"
                As = go(a, depth, scope)
                if isinstance(a, (App, Lam, Fix, IfZ)):
                    As = f"({As})"
                return f"{fs} {As}"
            case IfZ(s, z, u):
                return (f"ifz {go(s, depth, scope)} then {go(z, depth, scope)} "
                        f"else {go(u, depth, scope)}")
        raise TypeError(f"not a term: {t!r}")

    return go(t, 0, scope)


def term_head(t: Term) -> str:
    """Short tag for trace lines."""
    match t:
        case TVar(k):
            return f"var{k}"
        case Const(n):
            return str(n)
        case Succ():
            return "s(_)"
        case Pred():
            return "p(_)"
        case Lam():
            return "lam"
        case App():
            return "app"
        case IfZ():
            return "ifz"
        case Fix():
            return "fix"
    raise TypeError(f"not a term: {t!r}")
