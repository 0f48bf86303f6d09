"""Index terms, equational programs, and bounded semantic entailment.

Index terms are first-order arithmetic expressions over naturals: variables,
numerals, applications of user-defined function symbols, bounded sums, and
forest cardinalities.  Function symbols get their meaning from an equational
program: an orthogonal set of constructor-pattern rewrite rules.  Entailment
between index expressions is semidecided by checking the goal at every
assignment of the constrained variables up to a bound at which the
constraints hold; each constraint is tested as soon as its variables are
bound, so a false one prunes every assignment that extends it, and a
variable bounded by a constraint x < I takes no value from I on.  An
`Oracle` fixes the program, the bound and the fuel, and remembers what it
was asked: the satisfying assignments of each context, each term's outcome
at each assignment of its own free variables, the value of each call of
a defined symbol that has one, and the verdict of each query it answered.
A goal is decided once per assignment of its own free variables, and a
repeated query is not decided again.  Every node of index syntax holds
its free variables from when it is built.

Types are this syntax plus three constructors, `NatI`, `LinArrow` and
`ModalType`, defined here and used through `types`.  `walk` takes index
terms and types alike, and so do `subst_index`, `alpha_eq_index`,
`check_symbols` and `show_index`, which are folds over it, and
`free_vars`.  `Var`, `Lit` and `App` are their own cases; every other
node is a `record.Record` read field by field.  The binding forms
`BoundedSum`, `Forest` and `ModalType` have `binder` as their first
field, bound in the last, `body`, only; the fields between (`bound`, or
`start` and `count`) are index terms outside its scope.  A node whose first
field is not `binder` binds nothing.  `_SHAPES` is the one place that reads
this rule, for `walk` and for the free variables a node gets when built.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Optional, Union

from .fuel import FuelExhausted, DEFAULT_BOUND, DEFAULT_FUEL, check_budget
from .record import Interned, Record, _put

__all__ = [
    "IndexTerm", "Var", "Lit", "App", "BoundedSum", "Forest",
    "NatI", "LinArrow", "ModalType",
    "Signature", "Rule", "NatPattern", "EquationalProgram",
    "Assignment", "Constraint", "ConstraintSet", "EMPTY_CTX", "Defined",
    "Verdict", "Verified", "Refuted", "Unknown", "merge_verdicts",
    "IndexUndefined", "FuelExhausted", "EquationError", "OverlapError",
    "ArityError", "UnboundRhsVar", "NonLinearPattern",
    "declare", "register_program", "parse_equations", "load_equations",
    "eval_index", "Oracle", "entails", "free_vars", "subst_index",
    "IDENT", "is_name", "alpha_eq_index", "fresh_name", "check_symbols",
    "parse_index", "parse_constraint", "show_index",
    "tokenize", "Parser", "parse_sum_expr", "add", "monus", "walk",
]


# ---------------------------------------------------------------------------
# Syntax

class _Syntax(Record, metaclass=Interned):
    """What index terms, goals and types share: `_free`, the node's free
    variables, set when it is built.  A `Var` has its name and a `Lit` none;
    any other node has the union of its parts' sets, a binding form's binder
    dropped from its body's only.  Every part is built before its node, so
    no walk is needed.  A node shares a part's set that holds all the
    others', but in general holds its own, so a term of n nodes with k
    distinct free variables stores up to n * k names.  It is not a field,
    so printing does not read it.  Nodes are interned: `==` is `is`."""
    _free: frozenset[str] = frozenset()

    def __init__(self, *values):
        Record.__init__(self, *values)
        binds, get = _SHAPES[type(self)]
        sets = [getattr(part, "_free", frozenset()) for part in get(self)]
        if binds and self.binder in sets[-1]:
            sets[-1] = sets[-1] - {self.binder}
        out = frozenset()
        for free in sets:
            if not free <= out:
                out = free if out <= free else out | free
        _put(self, "_free", out)


class Var(_Syntax):
    _fields = ("name",)

    def __init__(self, name: str):
        Record.__init__(self, name)
        _put(self, "_free", frozenset((name,)))


class Lit(_Syntax):
    _fields = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError("index literals are naturals")
        Record.__init__(self, value)        # no part, so no free variable


class App(_Syntax):
    _fields = ("symbol", "args")    # a string and a tuple of index terms


class BoundedSum(_Syntax):
    """sum(binder < bound, body): binder is bound in `body` only."""
    _fields = ("binder", "bound", "body")


class Forest(_Syntax):
    """forest(binder, start, count, body): number of nodes in a forest of
    `count` trees labelled in pre-order from `start`, where the node labelled
    n has body[binder := n] children.  The binder is bound in `body` only.
    """
    _fields = ("binder", "start", "count", "body")


IndexTerm = Union[Var, Lit, App, BoundedSum, Forest]


class NatI(_Syntax):
    """Nat[lo, hi]: the naturals from index term `lo` to `hi`."""
    _fields = ("lo", "hi")


class LinArrow(_Syntax):
    """dom -o cod: a modal type and a basic type."""
    _fields = ("dom", "cod")


class ModalType(_Syntax):
    """[binder < bound] body: the bound may not mention the binder."""
    _fields = ("binder", "bound", "body")

    def __init__(self, binder: str, bound: IndexTerm, body: NatI | LinArrow):
        if binder in free_vars(bound):
            raise ValueError(
                f"modal bound {show_index(bound)} mentions its own "
                f"binder {binder!r}")
        super().__init__(binder, bound, body)


def add(a: IndexTerm, b: IndexTerm) -> App:
    return App("+", (a, b))


def monus(a: IndexTerm, b: IndexTerm) -> App:
    return App("-", (a, b))


class _Shapes(dict):
    """Node class -> whether its first field binds, and a getter of the
    tuple of its parts: an application's arguments, a tuple's items, no
    parts for a leaf (`Var`, `Lit`, a string or None), and otherwise the
    values of the node's other fields, in order.  The fields are those its
    class's `__match_args__` names, which a `Record`, a named tuple and a
    dataclass all have."""

    def __missing__(self, cls) -> tuple[bool, Callable]:
        if cls in (Var, Lit, str, type(None)):
            self[cls] = False, lambda t: ()
        elif cls in (App, tuple):
            self[cls] = False, (attrgetter("args") if cls is App
                                else lambda t: t)
        elif hasattr(cls, "__match_args__"):
            names = cls.__match_args__
            binds = names[0] == "binder"
            get = attrgetter(*names[binds:])
            self[cls] = binds, (get if len(names) - binds > 1
                                else lambda t: (get(t),))
        else:
            raise TypeError(f"not index syntax: {cls.__name__}")
        return self[cls]


_SHAPES = _Shapes()
# As `_SHAPES`, but a `Nat[I, I]` whose bounds are one object has the one
# part `I`: the printer prints it `Nat[I]`, so it walks `I` once.
_SHOWN_SHAPES = _Shapes({NatI: (False, lambda t: (t.lo,) if t.lo is t.hi
                                else (t.lo, t.hi))})


def _parts(t) -> tuple:
    """The parts of the node `t`, in order."""
    return _SHAPES[type(t)][1](t)


def walk(t, shapes: _Shapes = _SHAPES) -> list[tuple]:
    """Every node of the index term, type, or record or tuple of them `t`
    in pre-order, with the binders in scope at it and its number of parts,
    as `shapes` gives them.
    The scope is None at the top, else a pair of the innermost binding form
    and the scope around that.  A form is in its own scope, and its binder
    is in scope in its last part, `body`, only: its other parts see the
    scope around it.  Iterative, so the depth of `t` is bounded by memory
    only."""
    nodes = []
    stack = [(t, None)]
    while stack:
        node, scope = stack.pop()
        binds, get = shapes[type(node)]
        parts = get(node)
        if parts:
            stack.extend(zip(reversed(parts), repeat(scope)))
            if binds:
                scope = (node, scope)
                stack[-len(parts)] = (parts[-1], scope)
        nodes.append((node, scope, len(parts)))
    return nodes


def _bound_at(scope, name: str) -> Optional[int]:
    """How many binders of `scope` are inside the innermost one of `name`,
    or None when `name` is free there."""
    depth = 0
    while scope is not None:
        node, scope = scope
        if node.binder == name:
            return depth
        depth += 1
    return None


def _rebuild(nodes, combine):
    """`combine(node, scope, values of its parts)` at every node of a walk,
    in reverse pre-order, where a node's parts come before it: the value at
    the root."""
    done: list = []
    for node, scope, n in reversed(nodes):
        if n:
            parts = done[-n:]
            del done[-n:]
            parts.reverse()
        else:
            parts = []
        done.append(combine(node, scope, parts))
    return done[0]


def free_vars(t) -> frozenset[str]:
    """The free variables of an index term, a goal or a type."""
    return t._free


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    """`base`, or the first of base_0, base_1, ... that is not in `avoid`."""
    if base not in avoid:
        return base
    i = 0
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def subst_index(t, name: str, repl: IndexTerm):
    """Capture-avoiding substitution of `repl` for free `name` in the index
    term or type `t`.  Under a binding form the body is left alone when the
    binder shadows `name`, and the binder is renamed, away from every free
    variable of `repl` and of the form, when a free variable of `repl` of
    the same name would land anywhere in the form: under the binder, or in
    an outer term beside it.

    A renamed binder's new name is substituted in its body before the
    substitutions around it are, so each scope makes a list of them in
    order, found in pre-order from the list around its form.  The term is
    then rebuilt in reverse pre-order.  Each form holds its free
    variables, so renaming at every level of a deep term stays linear."""
    nodes = walk(t)
    # id of a scope -> its form's new binder and its substitutions
    made = {id(None): (None, [(name, repl)])}
    for node, scope, _ in nodes:
        if scope is None or scope[0] is not node:
            continue
        around, binder, inside = made[id(scope[1])][1], node.binder, []
        for i, (old, new) in enumerate(around):
            if binder == old:
                continue
            if binder in new._free:
                seen = _free_after(node._free, around[:i])
                if old in seen:
                    fresh = fresh_name(binder, new._free | seen)
                    inside.append((binder, Var(fresh)))
                    binder = fresh
            inside.append((old, new))
        made[id(scope)] = binder, inside

    def combine(node, scope, parts):
        binder, subs = made[id(scope)]
        if type(node) is Var:
            # Only the last substitution of a list may be of `repl`; the
            # others rename a variable to a variable.
            for old, new in subs:
                if type(node) is Var and node.name == old:
                    node = new
            return node
        if type(node) is App:
            return App(node.symbol, tuple(parts))
        if scope is not None and scope[0] is node:
            return type(node)(binder, *parts)
        return type(node)(*parts) if parts else node

    return _rebuild(nodes, combine)


def _free_after(out: frozenset[str], subs) -> frozenset[str]:
    """The free variables `out` of a term once the substitutions `subs`,
    as `subst_index` lists them, are made in order."""
    for old, new in subs:
        if old in out:
            out = (out - {old}) | new._free
    return out


def alpha_eq_index(a, b) -> bool:
    """Structural equality of two index terms or types modulo renaming of
    binders: their walks agree node by node in type and `_label`.  Where
    all nodes before agree, the two scopes have the same shape, so two
    bound variables agree when their binders are at the same depth."""
    if a == b:
        return True
    walk_a, walk_b = walk(a), walk(b)
    if len(walk_a) != len(walk_b):
        return False
    for (x, sx, nx), (y, sy, ny) in zip(walk_a, walk_b):
        if type(x) is not type(y) or _label(x, sx, nx) != _label(y, sy, ny):
            return False
    return True


def _label(node, scope, n: int):
    """A bound variable's distance to its binder, a free one's name, a
    numeral's value, an application's symbol and arity, any other leaf
    itself and any other node's number of parts, `n`."""
    cls = type(node)
    if cls is Var:
        depth = _bound_at(scope, node.name)
        return node.name if depth is None else depth
    if cls is Lit:
        return node.value
    if cls is App:
        return node.symbol, n
    return n or node


# ---------------------------------------------------------------------------
# Signatures and equational programs

class EquationError(Exception):
    pass


class OverlapError(EquationError):
    def __init__(self, i: int, j: int):
        super().__init__(f"rules {i} and {j} have overlapping left-hand sides")
        self.rules = (i, j)


class ArityError(EquationError):
    def __init__(self, symbol: str, expected: int, got: int):
        if expected < 0:
            message = f"unknown function symbol {symbol!r}"
        else:
            message = f"symbol {symbol!r} has arity {expected}, applied to {got}"
        super().__init__(message)
        self.symbol = symbol


class UnboundRhsVar(EquationError):
    def __init__(self, name: str):
        super().__init__(f"right-hand side variable {name!r} not bound by the pattern")
        self.name = name


class NonLinearPattern(EquationError):
    def __init__(self, name: str):
        super().__init__(f"pattern variable {name!r} repeated in left-hand side")
        self.name = name


_BUILTINS = {("+", 2): lambda a, b: a + b,
             ("-", 2): lambda a, b: max(0, a - b),
             ("0", 0): lambda: 0, ("1", 0): lambda: 1}
BUILTIN_ARITIES = dict(_BUILTINS.keys())


class Signature(NamedTuple("Signature", [("arities", dict[str, int])])):
    """Function symbols with arities.  Builtins 0, 1, +, - are always present."""
    __slots__ = ()

    def __new__(cls, arities: dict[str, int] | None = None):
        merged = dict(BUILTIN_ARITIES)
        for sym, ar in (arities or {}).items():
            if sym in BUILTIN_ARITIES and ar != BUILTIN_ARITIES[sym]:
                raise EquationError(f"builtin symbol {sym!r} cannot be redeclared")
            if ar < 0:
                raise EquationError(f"negative arity for {sym!r}")
            merged[sym] = ar
        return super().__new__(cls, merged)

    def arity(self, symbol: str) -> int:
        if symbol not in self.arities:
            raise ArityError(symbol, -1, -1)
        return self.arities[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.arities


def declare(symbols: dict[str, int]) -> Signature:
    return Signature(dict(symbols))


class NatPattern(NamedTuple):
    """Constructor pattern over naturals: var+k (var=None means 0+k).

    var+k matches any n >= k, binding var to n-k; 0+k matches exactly k.
    """
    var: Optional[str]
    offset: int

    def match(self, n: int) -> Optional[dict[str, int]]:
        if self.var is None:
            return {} if n == self.offset else None
        if n >= self.offset:
            return {self.var: n - self.offset}
        return None

    def overlaps(self, other: "NatPattern") -> bool:
        if self.var is None and other.var is None:
            return self.offset == other.offset
        if self.var is None:
            return self.offset >= other.offset
        if other.var is None:
            return other.offset >= self.offset
        return True


class Rule(NamedTuple):
    symbol: str
    params: tuple[NatPattern, ...]
    rhs: IndexTerm


class EquationalProgram(NamedTuple):
    signature: Signature
    rules: tuple[Rule, ...]


def _pattern_vars(params: tuple[NatPattern, ...]) -> list[str]:
    return [p.var for p in params if p.var is not None]


def register_program(rules: list[Rule], signature: Signature) -> EquationalProgram:
    """Validate rules against the signature: arity, linearity, orthogonality,
    and closedness of right-hand sides."""
    for r in rules:
        expected = signature.arity(r.symbol)
        if len(r.params) != expected:
            raise ArityError(r.symbol, expected, len(r.params))
        seen: set[str] = set()
        for v in _pattern_vars(r.params):
            if v in seen:
                raise NonLinearPattern(v)
            seen.add(v)
        for v in free_vars(r.rhs):
            if v not in seen:
                raise UnboundRhsVar(v)
        check_symbols(r.rhs, signature)
    for i, a in enumerate(rules):
        for j in range(i + 1, len(rules)):
            b = rules[j]
            if a.symbol != b.symbol:
                continue
            if all(p.overlaps(q) for p, q in zip(a.params, b.params)):
                raise OverlapError(i, j)
    return EquationalProgram(signature, tuple(rules))


def check_symbols(t, signature: Signature) -> None:
    """ArityError unless every application in `t` matches `signature`, in
    the order the applications occur: `t` is an index term, a type, or any
    record or tuple of them, and strings and None hold none."""
    for node, _, _ in walk(t):
        if type(node) is App:
            expected = signature.arity(node.symbol)
            if len(node.args) != expected:
                raise ArityError(node.symbol, expected, len(node.args))


# ---------------------------------------------------------------------------
# Evaluation

Assignment = dict[str, int]


class IndexUndefined(Exception):
    """The index term is semantically undefined: a ground redex with no
    matching rule."""


def eval_index(term: IndexTerm, rho: Assignment, program: EquationalProgram,
               fuel: int = DEFAULT_FUEL, table: Optional[dict] = None) -> int:
    """Value of `term` under assignment `rho` and program `program`.

    Applications rewrite innermost: arguments evaluate to naturals before a
    rule is matched (orthogonality makes defined results independent of the
    strategy, though definedness itself may differ from outermost).

    Raises IndexUndefined when no rule matches a ground redex, FuelExhausted
    when the budget runs out (possible divergence), ValueError on variables
    outside rho's domain.  The fuel is the only budget: a deep term, or deep
    non-tail rewriting, takes memory, not interpreter stack.  `table` is a
    rewrite table, as `_eval` keeps it, to share between evaluations under
    `program`; the result and the fuel spent are the same with it or without.
    """
    check_budget(fuel)
    return _eval(term, rho, program, fuel, table)


# The kinds of `_eval`'s frames other than (ticks > 0, term, rho).
_APPLY, _LOOP, _DONE = -1, -2, -3


def _eval(term: IndexTerm, rho: Assignment, program: EquationalProgram,
          fuel: int, table: Optional[dict] = None) -> int:
    """`term` at rho, as one loop over a stack of frames (kind, node, data)
    whose results go on a stack of values.  A frame (k, term, rho) with
    k > 0 pushes the term's value at rho and takes k from `left`, the fuel
    left, in the one test of the budget: 1 for the term, plus 1 for the
    rewrite, or the turn of a sum or forest, that pushed it just before it
    is popped (a rewrite to a defined symbol charges its number of
    arguments in place of the term's 1).
    (_APPLY, symbol, n) applies the symbol to the top n values, and (_LOOP,
    sum or forest, [rho, label, counts, total]) runs its loop once its
    parts before `body` are in.

    `table` maps (symbol, *argument values) of a defined symbol whose
    rewrite came to a value to (that value, the fuel it spent).  A call
    found there is charged that fuel and answered, or runs out where the
    fuel exceeds `left`, as its rewrite would; so the table changes no
    result and no fuel spent.  Any other call pushes (_DONE, key, left)
    under its right side, which records it when its value is in, unless
    the frame below is a _DONE already: such a call is in tail position and
    its value is the recorded call's, so self-recursive tail equations burn
    fuel in constant space.  A call that ends in IndexUndefined or
    FuelExhausted is not recorded."""
    if table is None:
        table = {}
    left = fuel
    values: list[int] = []
    frames: list[tuple] = [(1, term, rho)]
    while frames:
        kind, node, data = frame = frames.pop()
        if kind > 0:
            left -= kind
            if left < 0:
                raise FuelExhausted(fuel)
            cls = type(node)
            if cls is Var:
                if node.name not in data:
                    raise ValueError(f"unbound index variable {node.name!r}")
                values.append(data[node.name])
            elif cls is Lit:
                values.append(node.value)
            elif cls is App:
                frames.append((_APPLY, node.symbol, len(node.args)))
                for arg in reversed(node.args):
                    frames.append((1, arg, data))
            elif cls is BoundedSum or cls is Forest:
                frames.append((_LOOP, node, [dict(data), 0, None, 0]))
                for part in reversed(_parts(node)[:-1]):
                    frames.append((1, part, data))
            else:
                raise TypeError(f"not an index term: {node!r}")
        elif kind == _APPLY:
            split = len(values) - data
            args = values[split:]
            del values[split:]
            builtin = _BUILTINS.get((node, data))
            if builtin is not None:
                values.append(builtin(*args))
                continue
            key = (node, *args)
            known = table.get(key)
            if known is not None:
                value, ticks = known
                if ticks > left:
                    raise FuelExhausted(fuel)
                left -= ticks
                values.append(value)
                continue
            rhs, binding = _rewrite(node, args, program)
            if not frames or frames[-1][0] != _DONE:
                frames.append((_DONE, key, left))
            tail = isinstance(rhs, App) and rhs.symbol not in BUILTIN_ARITIES
            frames.append((1 + (len(rhs.args) if tail else 1), rhs, binding))
        elif kind == _DONE:
            table[node] = values[-1], data - left
        else:
            # A forest is counted in a single left-to-right pass over its
            # nodes in pre-order, from label `start`: each node is visited
            # exactly once, so the repeated subterm in the defining
            # recursion is never re-evaluated.  `counts` holds, for each
            # tree being visited, how many of its children are still to go.
            # A sum runs as `bound` trees of no children, labelled from 0,
            # that add their bodies' values to the total.
            inner, label, counts, total = data
            forest = type(node) is Forest
            if counts is None:
                counts = [values.pop()]
                label = values.pop() if forest else 0
            else:
                if forest:
                    counts.append(values.pop())
                else:
                    total += values.pop()
                label += 1
            while counts and not counts[-1]:
                counts.pop()
            if counts:
                counts[-1] -= 1
                inner[node.binder] = label
                data[:] = inner, label, counts, total + 1 if forest else total
                frames += (frame, (2, node.body, inner))
            else:
                values.append(total)
    return values[0]


def _rewrite(symbol: str, values: list[int],
             program: EquationalProgram) -> tuple[IndexTerm, Assignment]:
    """The right side of the rule of `program` that matches `symbol`
    applied to `values`, and the values of its pattern variables."""
    if symbol not in program.signature:
        raise ArityError(symbol, -1, len(values))
    for rule in program.rules:
        if rule.symbol == symbol:
            found = [pat.match(v) for pat, v in zip(rule.params, values)]
            if None not in found:
                return rule.rhs, {k: v for m in found for k, v in m.items()}
    raise IndexUndefined(
        f"no rule matches {symbol}({', '.join(map(str, values))})")


# ---------------------------------------------------------------------------
# Constraints and verdicts

REL_SYMBOLS = ("<=", "<", "=")


class Constraint(_Syntax):
    _fields = ("lhs", "rel", "rhs")

    def __init__(self, lhs: IndexTerm, rel: str, rhs: IndexTerm):
        if rel not in REL_SYMBOLS + ("~",):
            raise ValueError(f"unknown relation {rel!r}")
        super().__init__(lhs, rel, rhs)


class Defined(_Syntax):
    """Goal asserting the term is defined for all satisfying assignments."""
    _fields = ("term",)


class ConstraintSet(NamedTuple("ConstraintSet", [
        ("variables", tuple[str, ...]),
        ("constraints", tuple[Constraint, ...])])):
    """The variables of a judgement's context and the constraints on them,
    checked when the set is built."""
    __slots__ = ()

    def __new__(cls, variables: tuple[str, ...] = (),
                constraints: tuple[Constraint, ...] = ()):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate constraint variable")
        scope = set(variables)
        for c in constraints:
            stray = free_vars(c) - scope
            if stray:
                raise ValueError(
                    f"constraint mentions undeclared variables {sorted(stray)}")
        if any(c.rel == "~" for c in constraints):
            raise ValueError("Kleene equality is a goal form, not a constraint")
        return super().__new__(cls, variables, constraints)

    def extend(self, var: str | None = None,
               *constraints: Constraint) -> "ConstraintSet":
        variables = self.variables
        if var is not None:
            if var in variables:
                raise ValueError(f"variable {var!r} already in scope")
            variables = variables + (var,)
        return ConstraintSet(variables, self.constraints + tuple(constraints))

    def under(self, var: str, bound: IndexTerm) -> "ConstraintSet":
        """The scope of a binder `var < bound`: `var` declared with that
        constraint."""
        return self.extend(var, Constraint(Var(var), "<", bound))


EMPTY_CTX = ConstraintSet()


class Verified(NamedTuple):
    bound: int


class Refuted(NamedTuple):
    witness: tuple[tuple[str, int], ...]

    @staticmethod
    def at(rho: Assignment) -> "Refuted":
        return Refuted(tuple(sorted(rho.items())))


class Unknown(NamedTuple):
    reason: str  # "fuel-exhausted": the only reason `_fate` gives
    witness: tuple[tuple[str, int], ...] = ()


Verdict = Union[Verified, Refuted, Unknown]


def merge_verdicts(*verdicts: Verdict) -> Verdict:
    """Conjunction: Refuted dominates Unknown dominates Verified."""
    out: Verdict | None = None
    for v in verdicts:
        match v:
            case Refuted():
                return v
            case Unknown():
                out = out if isinstance(out, Unknown) else v
            case Verified():
                out = v if out is None else out
    if out is None:
        raise ValueError("merge_verdicts needs at least one verdict")
    return out


_OK, _UNDEF, _FUEL = 0, 1, 2


def _outcome(term: IndexTerm, rho: Assignment,
             oracle: Oracle) -> tuple[int, int]:
    """`term` at rho as (tag, value).  Each evaluation gets fresh fuel, so
    the outcome depends only on the term, the values of its free variables
    and the oracle's program and fuel; the oracle's rewrite table changes
    none of them."""
    try:
        return (_OK, eval_index(term, rho, oracle.program, oracle.fuel,
                                oracle.rewrites))
    except IndexUndefined:
        return (_UNDEF, 0)
    except FuelExhausted:
        return (_FUEL, 0)


def _related(rel: str, a: int, b: int) -> bool:
    return a <= b if rel == "<=" else a < b if rel == "<" else a == b


class Oracle:
    """The bounded entailment oracle of one program at one (bound, fuel).

    For as long as it lives it remembers, in `verdicts`, the verdict of
    each (ctx, goal) that `entails` answered; the satisfying assignments of
    each ctx it was asked about; in `outcomes` the outcome of each index
    term it evaluated: term -> (its free variables, sorted; a table from
    the tuple of their values to `_outcome`'s (tag, value)); and in
    `rewrites` the value and fuel of each call of a defined symbol that
    came to a value, as `_eval` keeps them.  Since a verdict and an outcome
    depend on nothing else the oracle does not fix, each distinct query is
    decided once, each distinct evaluation runs once, and so does each
    distinct call that comes to a value.  It compares by identity: two
    oracles with equal fields are two memos.
    """

    def __init__(self, program: EquationalProgram, bound: int = DEFAULT_BOUND,
                 fuel: int = DEFAULT_FUEL):
        if bound < 0:
            raise ValueError(f"bound must be a natural, got {bound}")
        check_budget(fuel)
        self.program, self.bound, self.fuel = program, bound, fuel
        self.verdicts: dict = {}
        self.satisfying: dict = {}
        self.outcomes: dict = {}
        self.rewrites: dict = {}


class _Side(NamedTuple):
    """An index term looked up in its oracle's outcome table at assignments
    given as a sequence of values of some variables, in their order."""
    term: IndexTerm
    names: tuple[str, ...]    # the term's free variables, sorted
    key_of: Callable          # a sequence of values -> the names' values
    table: dict


def _side(term: IndexTerm, variables: tuple[str, ...], oracle: Oracle) -> _Side:
    names, table = _entry(term, oracle)
    return _Side(term, names, _projection(variables, names), table)


def _entry(term: IndexTerm, oracle: Oracle) -> tuple[tuple[str, ...], dict]:
    """The term's free variables, sorted, and its table in `outcomes`."""
    entry = oracle.outcomes.get(term)
    if entry is None:
        entry = oracle.outcomes[term] = (tuple(sorted(free_vars(term))), {})
    return entry


def _projection(variables: tuple[str, ...],
                names: tuple[str, ...]) -> Callable:
    """A sequence of values of `variables`, in order -> the tuple of the
    values of `names`."""
    where = [variables.index(name) for name in names]
    if len(where) == 1:
        i, = where
        return lambda values: (values[i],)
    return itemgetter(*where) if where else lambda values: ()


def _look(side: _Side, values, oracle: Oracle) -> tuple[int, int]:
    """The side's outcome at `values`; on a miss, the term is evaluated at
    the values of its own free variables only."""
    term, names, key_of, table = side
    key = key_of(values)
    out = table.get(key)
    if out is None:
        out = table[key] = _outcome(term, dict(zip(names, key)), oracle)
    return out


def _satisfies(tests: list[tuple[str, _Side, _Side]], values,
               oracle: Oracle) -> Optional[bool]:
    """Do the constraints `tests` hold at `values`?  A constraint holds when
    both sides are defined and related, so an undefined side makes it
    false.  False at the first false constraint; None when fuel ran out on a
    side of some constraint and none is false."""
    out: Optional[bool] = True
    for rel, lhs, rhs in tests:
        tl, vl = _look(lhs, values, oracle)
        if tl == _UNDEF:
            return False
        tr, vr = _look(rhs, values, oracle)
        if tr == _UNDEF:
            return False
        if _FUEL in (tl, tr):
            out = None
        elif not _related(rel, vl, vr):
            return False
    return out


def entails(ctx: ConstraintSet, goal: Constraint | Defined,
            oracle: Oracle) -> Verdict:
    """Does the goal hold at every assignment of ctx.variables into
    {0..oracle.bound} satisfying ctx.constraints?

    Exhaustive and three-valued: Verified(bound) when the goal holds at
    every satisfying assignment, Refuted(rho) at the first definite
    counterexample, Unknown when fuel ran out on a goal evaluation at some
    satisfying assignment, or on a constraint at an assignment that no
    constraint rules out (and no definite counterexample was found).
    "First" is in lexicographic order of the values of ctx.variables.

    The oracle's verdict of an equal query, its satisfying assignments of
    an equal context, and its outcome of an equal term at equal values of
    the term's free variables, are reused.  A query that raises is not
    remembered, so it raises each time it is asked.
    """
    verdict = oracle.verdicts.get((ctx, goal))
    if verdict is not None:
        return verdict
    stray = free_vars(goal) - set(ctx.variables)
    if stray:
        raise ValueError(f"goal mentions undeclared variables {sorted(stray)}")

    satisfying = oracle.satisfying
    if ctx not in satisfying:
        satisfying[ctx] = _satisfying(ctx, oracle)
    verdict = oracle.verdicts[ctx, goal] = _goal_over(
        ctx.variables, satisfying[ctx], goal, oracle)
    return verdict


def _satisfying(ctx: ConstraintSet,
                oracle: Oracle) -> list[tuple[tuple[int, ...], bool]]:
    """The assignments of ctx.variables into {0..bound} at which no
    constraint is false, in lexicographic order, as (values, settled):
    settled is False when fuel ran out on a constraint there.

    The variables are bound depth-first in order, and each constraint is
    tested once, as soon as its last free variable is bound: where it is
    false, no extension of the partial assignment is visited.  A variable x
    with a constraint x < I or x <= I, I over earlier variables only, takes
    no value the first such constraint makes false: see `_stop`.
    """
    variables = ctx.variables
    depth = {v: i + 1 for i, v in enumerate(variables)}
    tests: list[list[tuple[str, _Side, _Side]]] = [
        [] for _ in range(len(variables) + 1)]
    caps: list[Optional[tuple[str, _Side]]] = [None] * len(variables)
    for c in ctx.constraints:
        lhs = _side(c.lhs, variables, oracle)
        rhs = _side(c.rhs, variables, oracle)
        level = max((depth[v] for v in lhs.names + rhs.names), default=0)
        tests[level].append((c.rel, lhs, rhs))
        if (type(c.lhs) is Var and c.rel != "=" and c.lhs.name not in rhs.names
                and level == depth[c.lhs.name] and caps[level - 1] is None):
            caps[level - 1] = c.rel, rhs
    points: list[tuple[tuple[int, ...], bool]] = []
    _extend(0, True, tests, caps, [0] * len(variables), points, oracle)
    return points


def _extend(level: int, settled: bool, tests, caps, values: list[int],
            points, oracle: Oracle) -> None:
    """Append to `points` every extension of `values[:level]` that
    `_satisfying` lists.  A module-level function, not a closure, so that
    no reference cycle keeps the oracle alive after the check."""
    holds = _satisfies(tests[level], values, oracle)
    if holds is False:
        return
    settled = settled and holds is True
    if level == len(values):
        points.append((tuple(values), settled))
        return
    for value in range(_stop(caps[level], values, oracle)):
        values[level] = value
        _extend(level + 1, settled, tests, caps, values, points, oracle)


def _stop(cap: Optional[tuple[str, _Side]], values, oracle: Oracle) -> int:
    """How many values, from 0, the variable x of the cap x < I or x <= I
    takes, with I at `values`: those up to I - 1 or I in {0..bound}; none
    where I is undefined, since the cap is false there; all of {0..bound}
    where fuel ran out on I, so that the cap's own test finds them
    unsettled."""
    if cap is None:
        return oracle.bound + 1
    rel, side = cap
    tag, value = _look(side, values, oracle)
    if tag == _UNDEF:
        return 0
    if tag == _FUEL:
        return oracle.bound + 1
    return min(oracle.bound + 1, value if rel == "<" else value + 1)


def _goal_sides(goal: Constraint | Defined) -> tuple[IndexTerm, ...]:
    return (goal.term,) if isinstance(goal, Defined) else (goal.lhs, goal.rhs)


def _goal_over(variables: tuple[str, ...], points, goal: Constraint | Defined,
               oracle: Oracle) -> Verdict:
    """The verdict of the goal over `points`, as `_satisfying` lists them:
    Refuted at the first settled point where the goal is false, else
    Unknown at the first point that is unsettled or where fuel ran out on
    a side, else Verified.  The goal's fate depends on the values of its
    own free variables only, so it is decided, with the sides looked up in
    their tables, at the first settled point of each of their values."""
    sides = [_side(term, variables, oracle) for term in _goal_sides(goal)]
    project = _projection(variables, tuple(sorted(free_vars(goal))))
    decided: set[tuple[int, ...]] = set()
    unknown: Unknown | None = None
    for values, settled in points:
        if settled:
            key = project(values)
            if key in decided:
                continue
            decided.add(key)
            fate = _fate(goal, [_look(side, values, oracle) for side in sides])
        else:
            fate = "fuel-exhausted"
        if fate is None:
            continue
        verdict = _verdict_at(fate, dict(zip(variables, values)))
        if isinstance(verdict, Refuted):
            return verdict
        if unknown is None:
            unknown = verdict
    return unknown if unknown is not None else Verified(oracle.bound)


def _fate(goal: Constraint | Defined,
          outcomes: list[tuple[int, int]]) -> str | None:
    """What the outcomes of the goal's sides make of it: None where it
    holds, else "refuted" or "fuel-exhausted"."""
    tags = [tag for tag, _ in outcomes]
    if _FUEL in tags:
        return "fuel-exhausted"
    if isinstance(goal, Defined):
        return None if tags[0] == _OK else "refuted"
    (tl, vl), (tr, vr) = outcomes
    if goal.rel == "~":
        # Kleene equality: both undefined, or both defined and equal.
        holds = tl == tr == _UNDEF or (tl == tr == _OK and vl == vr)
    else:
        holds = tl == tr == _OK and _related(goal.rel, vl, vr)
    return None if holds else "refuted"


def _verdict_at(fate: str | None, rho: Assignment) -> Verdict | None:
    if fate is None:
        return None
    return (Refuted.at(rho) if fate == "refuted"
            else Unknown(fate, tuple(sorted(rho.items()))))


# ---------------------------------------------------------------------------
# Concrete syntax

# How a variable or function symbol is spelled in index terms, types,
# derivations and equation files.
IDENT = r"[A-Za-z_][A-Za-z0-9_']*"

_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<id>{IDENT})"
                    r"|(?P<op><=|[-+<>=(),]))", re.ASCII)


def is_name(text: str) -> bool:
    """Can `text` name an index variable?  Not if it is `sum` or `forest`."""
    return bool(re.fullmatch(IDENT, text)) and text not in ("sum", "forest")


class IndexSyntaxError(ValueError):
    pass


def tokenize(text: str, token: re.Pattern = _TOKEN,
             error: type[ValueError] = IndexSyntaxError) -> list[str]:
    """Split `text` by `token`'s num/id/op groups; `error` on a character
    no token starts with.  The type syntax passes its own regex and error."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise error(f"bad character at {rest[:10]!r}")
        tokens.append(m.group("num") or m.group("id") or m.group("op"))
        pos = m.end()
    return tokens


class Parser:
    """A cursor over tokens, shared with the type syntax."""

    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise IndexSyntaxError(f"unexpected end of input in {self.source!r}")
        self.pos += 1
        return tok

    def name(self) -> str:
        """The next token, which must name an index variable."""
        tok = self.next()
        if not is_name(tok):
            raise IndexSyntaxError(
                f"expected a variable name, got {tok!r} in {self.source!r}")
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise IndexSyntaxError(
                f"expected {tok!r}, got {got!r} in {self.source!r}")

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def parse_index(text: str) -> IndexTerm:
    return _parse_whole(text, parse_sum_expr)


def parse_constraint(text: str) -> Constraint:
    return _parse_whole(text, _parse_constraint)


def _parse_whole(text: str, parse):
    p = Parser(tokenize(text), text)
    t = parse(p)
    if not p.done():
        raise IndexSyntaxError(f"trailing tokens after index term in {text!r}")
    return t


def _parse_constraint(p: Parser) -> Constraint:
    lhs = parse_sum_expr(p)
    if p.peek() not in REL_SYMBOLS:
        raise IndexSyntaxError(f"no relation in constraint {p.source!r}")
    rel = p.next()
    return Constraint(lhs, rel, parse_sum_expr(p))


def parse_sum_expr(p: Parser) -> IndexTerm:
    """The index term at the cursor: atoms joined by + and -."""
    t = _parse_atom(p)
    while p.peek() in ("+", "-"):
        op = p.next()
        rhs = _parse_atom(p)
        t = App(op, (t, rhs))
    return t


def _parse_atom(p: Parser) -> IndexTerm:
    tok = p.next()
    if tok.isdigit():
        return Lit(int(tok))
    if tok == "(":
        t = parse_sum_expr(p)
        p.expect(")")
        return t
    if tok == "sum":
        p.expect("(")
        binder = p.name()
        p.expect("<")
        bound = parse_sum_expr(p)
        p.expect(",")
        body = parse_sum_expr(p)
        p.expect(")")
        return BoundedSum(binder, bound, body)
    if tok == "forest":
        p.expect("(")
        binder = p.name()
        p.expect(",")
        start = parse_sum_expr(p)
        p.expect(",")
        count = parse_sum_expr(p)
        p.expect(",")
        body = parse_sum_expr(p)
        p.expect(")")
        return Forest(binder, start, count, body)
    if re.fullmatch(IDENT, tok):
        if p.peek() == "(":
            p.next()
            args = []
            if p.peek() != ")":
                args.append(parse_sum_expr(p))
                while p.peek() == ",":
                    p.next()
                    args.append(parse_sum_expr(p))
            p.expect(")")
            return App(tok, tuple(args))
        return Var(tok)
    raise IndexSyntaxError(f"unexpected token {tok!r}")


def show_index(t) -> str:
    """An index term, a constraint, a constraint set or a type, printed."""
    return _rebuild(walk(t, _SHOWN_SHAPES), _show_node)


def _show_node(node, _scope, parts: list):
    """A node of index syntax printed, given its parts printed: a string,
    or for a tuple the list of its items'."""
    cls = type(node)
    if cls is Var:
        return node.name
    if cls is Lit:
        return str(node.value)
    if cls is App and node.symbol in ("+", "-") and len(parts) == 2:
        right, b = parts[1], node.args[1]
        if isinstance(b, App) and b.symbol in ("+", "-"):
            right = f"({right})"
        return f"{parts[0]} {node.symbol} {right}"
    if cls is App:
        return f"{node.symbol}({', '.join(parts)})"
    if cls is BoundedSum:
        return f"sum({node.binder} < {parts[0]}, {parts[1]})"
    if cls is Forest:
        return "forest({}, {}, {}, {})".format(node.binder, *parts)
    if cls is NatI:
        if alpha_eq_index(node.lo, node.hi):
            return f"Nat[{parts[0]}]"
        return f"Nat[{parts[0]}, {parts[1]}]"
    if cls is LinArrow:
        return f"{parts[0]} -o {parts[1]}"
    if cls is ModalType:
        inner = parts[1]
        if isinstance(node.body, LinArrow):
            inner = f"({inner})"
        return f"[{node.binder} < {parts[0]}] {inner}"
    if cls is Constraint:
        return " ".join(parts)
    if cls is str:
        return node
    if cls is tuple:
        return parts
    if cls is ConstraintSet:
        vs = ", ".join(parts[0]) or "(none)"
        cs = "; ".join(parts[1]) or "(none)"
        return f"[vars {vs} | {cs}]"
    raise TypeError(f"cannot print {node!r}")


# ---------------------------------------------------------------------------
# Equation files

_EQ_LINE = re.compile(
    rf"^\s*(?P<sym>{IDENT})\s*\((?P<params>[^)]*)\)\s*=\s*(?P<rhs>.+?)\s*$")


def _parse_pattern(text: str) -> NatPattern:
    parts = [p.strip() for p in text.split("+")]
    base = parts[0]
    offset = 0
    for extra in parts[1:]:
        if extra != "1":
            raise IndexSyntaxError(
                f"patterns are built from 0, variables and +1: {text!r}")
        offset += 1
    if base == "0":
        return NatPattern(None, offset)
    if re.fullmatch(IDENT, base):
        return NatPattern(base, offset)
    raise IndexSyntaxError(f"bad pattern base {base!r} in {text!r}")


def parse_equations(text: str) -> EquationalProgram:
    """Parse an equational program, one `f(p1,...,pn) = rhs` per line.

    The signature is inferred from the left-hand sides; `#` starts a comment.
    """
    rules: list[Rule] = []
    arities: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _EQ_LINE.match(line)
        if not m:
            raise IndexSyntaxError(f"line {lineno}: cannot parse rule {line!r}")
        sym = m.group("sym")
        params_text = m.group("params").strip()
        params = tuple(_parse_pattern(p) for p in params_text.split(",")) \
            if params_text else ()
        if sym in arities and arities[sym] != len(params):
            raise ArityError(sym, arities[sym], len(params))
        arities[sym] = len(params)
        rules.append(Rule(sym, params, parse_index(m.group("rhs"))))
    return register_program(rules, declare(arities))


def load_equations(path) -> EquationalProgram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_equations(fh.read())


EMPTY_PROGRAM = register_program([], declare({}))
