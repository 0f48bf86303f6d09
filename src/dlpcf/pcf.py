"""PCF terms with de Bruijn variables: parsing, simple typing and
weak-head reduction.  Every term holds its size and its free-variable
bound, computed from its parts' when it is built.

The reducer here is the differential oracle for the abstract machine: both
must agree on the value of every program (closed term of type Nat).
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional, Sequence, Union
from weakref import WeakKeyDictionary

from .fuel import DEFAULT_FUEL, FuelExhausted, check_budget
from .record import Interned, Record, _put

__all__ = [
    "Term", "TVar", "Const", "Succ", "Pred", "Lam", "App", "IfZ", "Fix",
    "PcfType", "NatT", "Arrow", "NAT",
    "parse_term", "show_pcf_type",
    "size", "pcf_typecheck", "PcfTypeError",
    "PcfSyntaxError",
    "shift", "subst", "wh_eval", "StuckTerm", "bound", "max_free_index",
    "Numerals",
    "BINDERS", "subterms", "map_vars", "find_sites", "rebuild",
]


# ---------------------------------------------------------------------------
# Types

class NatT(Record, metaclass=Interned):
    pass


class Arrow(Record, metaclass=Interned):
    _fields = ("dom", "cod")


PcfType = Union[NatT, Arrow]
NAT = NatT()


def show_pcf_type(t: PcfType) -> str:
    """`t` printed, arrows to the right, a domain that is an arrow in
    parentheses.  Iterative: `todo` holds, next on top, the types still to
    print and the text between them."""
    out = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Arrow):
            todo += [t.cod, " -> "]
            todo += [")", t.dom, "("] if isinstance(t.dom, Arrow) else [t.dom]
        elif isinstance(t, NatT):
            out.append("Nat")
        else:
            raise TypeError(f"not a PCF type: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Terms

class _Node(Record):
    """What every term constructor shares: `_size` and `_bound`, which
    `size` and `bound` return.  Each constructor sets them when it builds a
    node, inline from its parts' own, so they cost O(1) per node and never
    change.  They are not fields, so printing does not read them.  A closed
    node keeps the class default `_bound = 0`, a numeral both defaults.

    Terms are not interned: the reducer builds many short-lived ones."""
    _bound = 0
    _size = 1


class TVar(_Node):
    _fields = ("index",)

    def __init__(self, index: int):
        _put(self, "index", index)
        _put(self, "_bound", index + 1)


class Const(_Node):
    _fields = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError("numerals are naturals")
        _put(self, "value", value)


class Succ(_Node):
    _fields = ("body",)

    def __init__(self, body: Term):
        _put(self, "body", body)
        _put(self, "_size", body._size + 2)
        if body._bound:
            _put(self, "_bound", body._bound)


class Pred(_Node):
    _fields = ("body",)
    __init__ = Succ.__init__


class Lam(_Node):
    # Binder annotations come from the surface syntax and only feed the
    # typechecker; they do not affect size or evaluation.
    _fields = ("body", "ann")

    def __init__(self, body: Term, ann: Optional[PcfType] = None):
        _put(self, "body", body)
        _put(self, "ann", ann)
        _put(self, "_size", body._size + 1)
        if body._bound > 1:
            _put(self, "_bound", body._bound - 1)


class App(_Node):
    _fields = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        _put(self, "fn", fn)
        _put(self, "arg", arg)
        _put(self, "_size", fn._size + arg._size + 1)
        b = fn._bound if fn._bound > arg._bound else arg._bound
        if b:
            _put(self, "_bound", b)


class IfZ(_Node):
    _fields = ("scrut", "zero", "succ")

    def __init__(self, scrut: Term, zero: Term, succ: Term):
        _put(self, "scrut", scrut)
        _put(self, "zero", zero)
        _put(self, "succ", succ)
        _put(self, "_size", scrut._size + zero._size + succ._size + 1)
        b = scrut._bound if scrut._bound > zero._bound else zero._bound
        if succ._bound > b:
            b = succ._bound
        if b:
            _put(self, "_bound", b)


class Fix(_Node):
    _fields = ("body", "ann")
    __init__ = Lam.__init__     # the same optional annotation


Term = Union[TVar, Const, Succ, Pred, Lam, App, IfZ, Fix]


class Numerals(dict):
    """n -> `Const(n)`, built on first use.  An evaluator makes one per
    run, so the numerals its s and p steps make are shared within the run
    and nothing is kept across runs."""

    def __missing__(self, n: int) -> Const:
        self[n] = numeral = Const(n)
        return numeral


# Each constructor's subterm fields, in order; `Lam` and `Fix` bind de
# Bruijn index 0 in theirs.  The walkers read this table; `rebuild` and
# the constructors name each kind's fields themselves.
_SUBTERMS = {TVar: (), Const: (), Succ: ("body",), Pred: ("body",),
             Lam: ("body",), Fix: ("body",), App: ("fn", "arg"),
             IfZ: ("scrut", "zero", "succ")}
BINDERS = (Lam, Fix)


def subterms(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of `t`, in field order."""
    return tuple(getattr(t, f) for f in _SUBTERMS[type(t)])


def find_sites(t: Term, cutoff: int = 0) -> list[tuple[Term, int]]:
    """The sites of `map_vars(t, on_var, cutoff)`: the nodes of `t` on the
    paths to each variable `TVar(k)` under `depth` binders with `k` at or
    above `cutoff + depth`, in pre-order, each with `cutoff` plus the
    binders above its subterms (above itself, for a variable).  Empty when
    `t` has no such variable.

    A subterm whose `bound` is at most that limit has none, so it is not
    walked.  The sites depend on `t` and `cutoff` only, so one list serves
    every `rebuild` of the same term."""
    sites: list[tuple[Term, int]] = []
    if t._bound <= cutoff:
        return sites
    stack = [(t, cutoff)]
    while stack:
        node, limit = stack.pop()
        kind = type(node)
        if kind is not TVar:
            limit += kind is Lam or kind is Fix
            for f in reversed(_SUBTERMS[kind]):
                sub = getattr(node, f)
                if sub._bound > limit:
                    stack.append((sub, limit))
        sites.append((node, limit))
    return sites


def rebuild(sites: list[tuple[Term, int]], on_var: Callable[[int, int], Term],
            cutoff: int) -> Term:
    """The term whose non-empty `find_sites(t, cutoff)` are `sites`, with
    each of its variables there replaced by `on_var(k, depth)`.

    The sites are rebuilt in reverse, where a node's walked subterms come
    before it, on top of `done` in field order, so nothing recurses; every
    subterm off the paths is kept as the same object."""
    done: list[Term] = []            # the rebuilt subterms, the next on top
    for node, limit in reversed(sites):
        kind = type(node)
        if kind is TVar:
            done.append(on_var(node.index, limit - cutoff))
        elif kind is Succ or kind is Pred:
            done.append(kind(done.pop()))   # a site's one part is on a path
        elif kind is App:
            fn, arg = node.fn, node.arg
            fn = done.pop() if fn._bound > limit else fn
            arg = done.pop() if arg._bound > limit else arg
            done.append(App(fn, arg))
        elif kind is IfZ:
            scrut, zero, succ = node.scrut, node.zero, node.succ
            scrut = done.pop() if scrut._bound > limit else scrut
            zero = done.pop() if zero._bound > limit else zero
            succ = done.pop() if succ._bound > limit else succ
            done.append(IfZ(scrut, zero, succ))
        else:                        # a binder, whose body is on a path
            done.append(kind(done.pop(), node.ann))
    return done[0]


def map_vars(t: Term, on_var: Callable[[int, int], Term],
             cutoff: int = 0) -> Term:
    """`t` with each variable `TVar(k)` under `depth` binders, for `k` at
    or above `cutoff + depth`, replaced by `on_var(k, depth)`: its
    `find_sites`, then their `rebuild`.  Only the nodes on the paths to the
    replaced variables are visited and rebuilt; a term with none is
    returned as itself."""
    sites = find_sites(t, cutoff)
    return rebuild(sites, on_var, cutoff) if sites else t


def size(t: Term) -> int:
    """Term size: variables and numerals count 1, s/p count 2, binders and
    applications count 1 plus their parts."""
    return t._size


def bound(t: Term) -> int:
    """1 + the largest free de Bruijn index of `t`, or 0 when `t` is closed."""
    return t._bound


def max_free_index(t: Term, depth: int = 0) -> int:
    """Largest free de Bruijn index of `t` under `depth` binders, or -1
    when there is none."""
    return max(bound(t) - 1 - depth, -1)


# ---------------------------------------------------------------------------
# de Bruijn machinery (used only by the reducer)

def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to the free variables of `t` from index `cutoff` up.  A
    term with none is returned as itself."""
    if by == 0:
        return t
    return map_vars(t, lambda k, d: TVar(k + by), cutoff)


def subst(t: Term, repl: Term, j: int = 0) -> Term:
    """Substitute `repl` for TVar(j) in `t`, lowering the indices above j.

    Under binders `repl` is shifted, and `shift` returns a closed `repl`
    as itself.  As `map_vars` keeps closed subterms too, neither a `Fix`
    unfolding nor the beta step after it rebuilds the `Fix`."""
    return _subst_at(t, find_sites(t, j), repl, j)


def _subst_at(t: Term, sites: list[tuple[Term, int]], repl: Term,
              j: int) -> Term:
    """`subst(t, repl, j)`, given `find_sites(t, j)`."""
    if not sites:
        return t

    def on_var(k: int, d: int) -> Term:
        if k > j + d:
            return TVar(k - 1)
        return shift(repl, d)

    return rebuild(sites, on_var, j)


# ---------------------------------------------------------------------------
# Simple typing

class PcfTypeError(Exception):
    pass


# How a type error names each subterm field on its path from the root.
_ROLE = {"body": "the body", "fn": "the function", "arg": "the argument",
         "scrut": "the scrutinee", "zero": "the zero branch",
         "succ": "the successor branch"}


def pcf_typecheck(gamma: Sequence[PcfType], t: Term) -> PcfType:
    """Syntax-directed typing; Lam/Fix nodes must carry annotations.
    Errors name the offending subterm by its path from the root.

    Iterative: `frames` holds each node being typed, root first, with the
    types of its subterms typed so far, so the next subterm to type is
    `subterms(node)[len(done)]`.  Each node's checks run in field order,
    and an arrow is checked before its argument is typed."""
    env = list(gamma)[::-1]          # the type of TVar(k) is env[-1 - k]
    frames: list[tuple[Term, list[PcfType]]] = []
    node = t
    while True:
        match node:                  # enter `node`: type a leaf, or descend
            case TVar(k):
                if k >= len(env):
                    raise _fail(frames, f"variable index {k} out of scope")
                ty = env[-1 - k]
            case Const():
                ty = NAT
            case Lam(_, None) | Fix(_, None):
                kind = "lambda" if isinstance(node, Lam) else "fix"
                raise _fail(frames, f"{kind} binder lacks a type annotation")
            case Succ() | Pred() | Lam() | Fix() | App() | IfZ():
                if isinstance(node, BINDERS):
                    env.append(node.ann)
                frames.append((node, []))
                node = getattr(node, _SUBTERMS[type(node)][0])
                continue
            case _:
                raise TypeError(f"not a term: {node!r}")
        while frames:                # `ty` is the type of the subterm just typed
            node, done = frames.pop()
            done.append(ty)
            match node:
                case Succ() | Pred() if ty != NAT:
                    raise _fail(frames, "s/p expects Nat, got "
                                        f"{show_pcf_type(ty)}")
                case Lam():
                    ty = Arrow(node.ann, ty)
                case Fix() if ty != node.ann:
                    raise _fail(frames, f"fix body has type {show_pcf_type(ty)}"
                                f", annotation says {show_pcf_type(node.ann)}")
                case App() if len(done) == 1 and not isinstance(ty, Arrow):
                    raise _fail(frames, "applying a non-function of type "
                                        f"{show_pcf_type(ty)}")
                case App() if len(done) == 2 and ty != done[0].dom:
                    raise _fail(frames, f"argument type {show_pcf_type(ty)} "
                                "does not match domain "
                                f"{show_pcf_type(done[0].dom)}")
                case App() if len(done) == 2:
                    ty = done[0].cod
                case IfZ() if len(done) == 1 and ty != NAT:
                    raise _fail(frames, "ifz scrutinee must have type Nat")
                case IfZ() if len(done) == 3 and done[1] != ty:
                    raise _fail(frames, "ifz branches disagree: "
                                f"{show_pcf_type(done[1])} vs "
                                f"{show_pcf_type(ty)}")
                case IfZ() if len(done) == 3:
                    ty = done[1]
            fields = _SUBTERMS[type(node)]
            if len(done) < len(fields):
                frames.append((node, done))
                node = getattr(node, fields[len(done)])
                break
            if isinstance(node, BINDERS):
                env.pop()
        else:
            return ty


def _fail(frames: list[tuple[Term, list[PcfType]]],
          message: str) -> PcfTypeError:
    """The error at the subterm that `frames`, the nodes above it, lead to:
    each node's next subterm to type is the one on the path."""
    where = " of ".join(_ROLE[_SUBTERMS[type(node)][len(done)]]
                        for node, done in reversed(frames))
    return PcfTypeError(f"{message} (in {where or 'the whole term'})")


# ---------------------------------------------------------------------------
# Weak-head reduction

class StuckTerm(Exception):
    """A closed normal form that is not a numeral sits in a Nat position;
    cannot happen for well-typed programs."""


# The message for each frame whose hole holds a normal form the frame
# cannot consume: a lambda under s, p or ifz, a numeral applied.
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
    iterating one weak-head step from the root, the specification that
    the tests keep.

    It dispatches on the focus's type, then on the frame's, as
    `machine.run` does, and takes the numerals it makes from a table of
    its own, so each numeral is built once per call.  Fuel is counted on
    `steps`, as in `machine.run`: a numeral with no frame is final, and
    every other focus that the loop does not descend through ticks once,
    in one place, before it steps or raises.  The ticks before it number
    `steps`, so `steps >= fuel` is the tick that would exhaust the
    budget.

    It also keeps the last `Fix` it unfolded and the unfolding, and the
    last `Lam` it applied and the `find_sites` of its body.  The focus is
    closed, and `subst` keeps a closed `Fix` as the same object, so a
    recursive call meets that very `Fix` again and reuses its unfolding,
    and then that very `Lam`, whose sites a beta step only rebuilds with
    the new argument: each run of `dbl` unfolds its `Fix` once and searches
    its `Lam`'s body once.  A body with no free variable has no sites and
    is the contractum itself.  Each is one entry, not a table, so a `Fix`
    or `Lam` that substitution rebuilds, such as an inner loop that
    mentions an outer variable, is not kept past the next unfolding or
    beta step.

    And it replays what it has reduced before: Sestoft's update ("Deriving
    a lazy abstract machine", JFP 1997), used only to count.  A term in the
    hole of an `s`, `p` or `ifz` frame reduces on its own until it is a
    normal form, and is stuck there unless it is a numeral, so a term that
    has reached a numeral there does so again, in as many steps, wherever
    it is met.  Descending into such a hole opens a segment: the focus, the
    frame height and `steps`.  The next numeral at that height closes it
    and records the focus's numeral and the steps it took.  Opening one
    abandons the last, so at most one is open.  A later descent into the
    very same object adds the recorded steps and lands on the numeral,
    whose fuel tick raises `FuelExhausted(fuel)` if stepping would have
    exhausted the budget on the way, as `steps` only grows.  `subst` shares
    what it substitutes, so the `ifz x` of each call of `dbl` tests `p` of
    the very term the call before it tested, and costs O(1), not O(n).  The
    memo is the call's own and holds its terms weakly, so an entry lives
    no longer than its term: a divergent loop that builds a new scrutinee
    at every call keeps none of the old ones."""
    check_budget(fuel)
    numerals = Numerals()
    last_fix = unfolding = None      # the last `Fix` unfolded, and to what
    last_lam = sites = None          # the last `Lam` applied, its body's sites
    memo = WeakKeyDictionary()       # focus -> (its numeral, steps taken)
    opened = start = None            # the open segment's focus and steps,
    depth = 0                        # and its frame height, 0 if none is open
    steps = 0
    frames: list[Term] = []
    focus = t
    while True:
        kind = type(focus)
        if kind is App:
            frames.append(focus)
            focus = focus.fn
            continue
        if kind is Succ or kind is Pred or kind is IfZ:
            frames.append(focus)
            focus = focus.scrut if kind is IfZ else focus.body
            if type(focus) is not Const:
                done = memo.get(focus)
                if done is None:
                    opened, depth, start = focus, len(frames), steps
                else:
                    focus, taken = done
                    steps += taken
            continue
        if kind is Const and not frames:
            return focus.value, steps
        if steps >= fuel:
            raise FuelExhausted(fuel)
        if kind is Const:
            if len(frames) == depth:
                memo[opened] = focus, steps - start
                depth = 0
            # a numeral fills the hole of the innermost frame
            frame = frames.pop()
            frame_kind = type(frame)
            n = focus.value
            if frame_kind is Succ:
                focus = numerals[n + 1]
            elif frame_kind is Pred:
                focus = numerals[n - 1 if n else 0]
            elif frame_kind is IfZ:
                focus = frame.succ if n else frame.zero
            else:
                raise StuckTerm(_STUCK[frame_kind])
        elif kind is Lam:
            if not frames:
                raise StuckTerm("normal form is not a numeral")
            # a lambda fills the hole of the innermost frame
            frame = frames.pop()
            if type(frame) is not App:
                raise StuckTerm(_STUCK[type(frame)])
            if focus is not last_lam:
                last_lam, sites = focus, find_sites(focus.body)
            focus = _subst_at(focus.body, sites, frame.arg, 0)
        elif kind is Fix:
            if focus is not last_fix:
                last_fix, unfolding = focus, subst(focus.body, focus)
            focus = unfolding
        elif kind is TVar:
            raise StuckTerm("free variable in a closed reduction")
        else:
            raise TypeError(f"not a term: {focus!r}")
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


class _Tok(NamedTuple):
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
    the grammar and required only by the typechecker:

        expr  ::= \\x[:T]. expr | fix x[:T]. expr
                | ifz expr then expr else expr | unary unary*
        unary ::= s unary | p unary | numeral | x | ( expr )

    Iterative: `frames` holds, innermost last, each phrase that encloses
    the one being parsed, as (kind, data): a binder and its annotation,
    an `IfZ` and its parts so far, an open parenthesis, or one that awaits
    a unary term, an `s` or `p` or an `App` and its function.  A binder's
    name is in `scope` until its body ends."""
    p = _PcfParser(_lex(text))
    scope: list[str] = []            # binder names, innermost last
    frames: list[tuple] = []
    while True:
        tok = p.peek()
        if not frames or frames[-1][0] not in (Succ, Pred, App):
            if tok is None:          # an expression starts here
                raise p.error("unexpected end of input")
            if tok.text in ("\\", "fix", "ifz"):
                p.next()
                if tok.text == "ifz":
                    frames.append((IfZ, []))
                    continue
                scope.append(_binder_name(p))
                frames.append((Lam if tok.text == "\\" else Fix,
                               _optional_ann(p)))
                p.expect(".")
                continue
        tok = p.next()               # a unary term starts here
        if tok.text in ("s", "p"):
            frames.append((Succ if tok.text == "s" else Pred, None))
            continue
        if tok.text == "(":
            frames.append(("(", None))
            continue
        t = _atom(tok, scope)
        while True:                  # t is a unary term: close what it ends
            while frames and frames[-1][0] in (Succ, Pred):
                t = frames.pop()[0](t)
            if frames and frames[-1][0] is App:
                t = App(frames.pop()[1], t)
            tok = p.peek()
            if tok is not None and (tok.text == "(" or (
                    tok.kind in ("num", "id")
                    and tok.text not in ("then", "else"))):
                frames.append((App, t))      # an argument follows
                break
            # t is an expression: close the binders and the ifz it ends
            while frames and (frames[-1][0] in BINDERS or (
                    frames[-1][0] is IfZ and len(frames[-1][1]) == 2)):
                kind, data = frames.pop()
                if kind is IfZ:
                    t = IfZ(*data, t)
                else:
                    scope.pop()
                    t = kind(t, data)
            if not frames:
                if tok is not None:
                    raise p.error(f"trailing input {tok.text!r}")
                return t
            kind, data = frames[-1]
            if kind is IfZ:              # the ifz awaits its next part
                data.append(t)
                p.expect(("then", "else")[len(data) - 1])
                break
            frames.pop()                 # a parenthesised expression
            p.expect(")")


def _atom(tok: _Tok, scope: list[str]) -> Term:
    """The numeral or variable `tok`: the unary terms of one token."""
    if tok.kind == "num":
        return Const(int(tok.text))
    if tok.kind != "id":
        raise PcfSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)
    if tok.text in KEYWORDS:
        raise PcfSyntaxError(f"unexpected keyword {tok.text!r}",
                             tok.line, tok.col)
    if tok.text not in scope:
        raise PcfSyntaxError(f"unbound identifier {tok.text!r}",
                             tok.line, tok.col)
    return TVar(scope[::-1].index(tok.text))


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


def _parse_type(p: _PcfParser) -> PcfType:
    """type ::= atom [-> type], atom ::= Nat | ( type ).

    Iterative: `frames` holds, innermost last, each open parenthesis, as
    None, and each arrow's domain, whose codomain is being parsed."""
    frames: list[Optional[PcfType]] = []
    while True:
        tok = p.next()               # an atom starts here
        if tok.text == "(":
            frames.append(None)
            continue
        if tok.text != "Nat":
            raise PcfSyntaxError(f"expected a type, got {tok.text!r}",
                                 tok.line, tok.col)
        t = NAT
        while True:                  # t is an atom
            if p.peek() is not None and p.peek().text == "->":
                p.next()
                frames.append(t)
                break
            # t is a type: close the arrows whose codomain it is
            while frames and frames[-1] is not None:
                t = Arrow(frames.pop(), t)
            if not frames:
                return t
            frames.pop()
            p.expect(")")


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
