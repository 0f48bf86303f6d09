"""Index terms, equational programs, and bounded semantic entailment.

Index terms are first-order arithmetic expressions over naturals: variables,
numerals, applications of user-defined function symbols, bounded sums, and
forest cardinalities.  Function symbols get their meaning from an equational
program: an orthogonal set of constructor-pattern rewrite rules.  Entailment
between index expressions is semidecided by checking the goal at every
assignment of the constrained variables up to a bound at which the
constraints hold; each constraint is tested as soon as its variables are
bound, so a false one prunes every assignment that extends it.

The binding forms `BoundedSum`, `Forest` and `types.ModalType` are frozen
dataclasses whose first field, `binder`, is bound in the last, `body`, only;
the fields between (`bound`, or `start` and `count`) are index terms outside
its scope.  `binder_free_vars`, `subst_binder` and `alpha_eq_binder` serve
all three, given the same operation on the body.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union

from .fuel import Fuel, FuelExhausted, DEFAULT_BOUND, DEFAULT_FUEL

__all__ = [
    "IndexTerm", "Var", "Lit", "App", "BoundedSum", "Forest",
    "Signature", "Rule", "NatPattern", "EquationalProgram",
    "Assignment", "Constraint", "ConstraintSet", "EMPTY_CTX", "Defined",
    "Verdict", "Verified", "Refuted", "Unknown", "merge_verdicts",
    "IndexUndefined", "FuelExhausted", "EquationError", "OverlapError",
    "ArityError", "UnboundRhsVar", "NonLinearPattern",
    "declare", "register_program", "parse_equations", "load_equations",
    "eval_index", "entails", "entails_memo", "free_vars", "subst_index",
    "alpha_eq_index", "binder_free_vars", "subst_binder", "alpha_eq_binder",
    "fresh_name", "check_symbols", "parse_index", "parse_constraint",
    "show_index", "show_constraint", "tokenize", "Parser", "parse_sum_expr",
    "add", "monus",
]


# ---------------------------------------------------------------------------
# Syntax

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("index literals are naturals")


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple["IndexTerm", ...]


@dataclass(frozen=True)
class BoundedSum:
    """sum(binder < bound, body): binder is bound in `body` only."""
    binder: str
    bound: "IndexTerm"
    body: "IndexTerm"


@dataclass(frozen=True)
class Forest:
    """forest(binder, start, count, body): number of nodes in a forest of
    `count` trees labelled in pre-order from `start`, where the node labelled
    n has body[binder := n] children.  The binder is bound in `body` only.
    """
    binder: str
    start: "IndexTerm"
    count: "IndexTerm"
    body: "IndexTerm"


IndexTerm = Union[Var, Lit, App, BoundedSum, Forest]


def add(a: IndexTerm, b: IndexTerm) -> App:
    return App("+", (a, b))


def monus(a: IndexTerm, b: IndexTerm) -> App:
    return App("-", (a, b))


def free_vars(t: IndexTerm) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Lit():
            return frozenset()
        case App(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
        case BoundedSum() | Forest():
            return binder_free_vars(t, free_vars)
    raise TypeError(f"not an index term: {t!r}")


def _outer(t) -> tuple[IndexTerm, ...]:
    """The index terms of a binding form outside its binder's scope."""
    return tuple(getattr(t, f.name) for f in fields(t)[1:-1])


def binder_free_vars(t, body_free_vars) -> frozenset[str]:
    """Free variables of the binding form `t`, whose body's free variables
    are `body_free_vars(t.body)`."""
    out = body_free_vars(t.body) - {t.binder}
    for term in _outer(t):
        out |= free_vars(term)
    return out


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    """`base`, or the first of base_0, base_1, ... that is not in `avoid`."""
    if base not in avoid:
        return base
    i = 0
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def subst_index(t: IndexTerm, name: str, repl: IndexTerm) -> IndexTerm:
    """Capture-avoiding substitution of `repl` for free `name` in `t`."""
    match t:
        case Var(n):
            return repl if n == name else t
        case Lit():
            return t
        case App(sym, args):
            return App(sym, tuple(subst_index(a, name, repl) for a in args))
        case BoundedSum() | Forest():
            return subst_binder(t, name, repl, subst_index, free_vars)
    raise TypeError(f"not an index term: {t!r}")


def subst_binder(t, name: str, repl: IndexTerm, subst_body, body_free_vars):
    """Capture-avoiding substitution into the binding form `t`: the body is
    left alone when the binder shadows `name`, and the binder is renamed
    when a free variable of `repl` of the same name would land anywhere in
    `t`: under the binder, or in an outer term beside it."""
    outer = tuple(subst_index(o, name, repl) for o in _outer(t))
    binder, body = t.binder, t.body
    if binder != name:
        if (binder in free_vars(repl)
                and name in binder_free_vars(t, body_free_vars)):
            nb = fresh_name(binder, free_vars(repl) | body_free_vars(body))
            body = subst_body(body, binder, Var(nb))
            binder = nb
        body = subst_body(body, name, repl)
    return type(t)(binder, *outer, body)


def alpha_eq_index(a: IndexTerm, b: IndexTerm,
                   env_a: dict[str, int] | None = None,
                   env_b: dict[str, int] | None = None,
                   depth: int = 0) -> bool:
    """Structural equality modulo renaming of the binders of sums, forests
    and (through `types.alpha_eq_type`) modal types: `env_a` and `env_b` map
    each binder in scope to the depth that bound it."""
    ea = env_a or {}
    eb = env_b or {}
    match (a, b):
        case (Var(x), Var(y)):
            ia, ib = ea.get(x), eb.get(y)
            return ia == ib if (ia is not None or ib is not None) else x == y
        case (Lit(m), Lit(n)):
            return m == n
        case (App(f, xs), App(g, ys)):
            return (f == g and len(xs) == len(ys)
                    and all(alpha_eq_index(x, y, ea, eb, depth)
                            for x, y in zip(xs, ys)))
        case (BoundedSum() | Forest(), _):
            return alpha_eq_binder(a, b, ea, eb, depth, alpha_eq_index)
    return False


def alpha_eq_binder(a, b, env_a: dict[str, int], env_b: dict[str, int],
                    depth: int, body_eq) -> bool:
    """Alpha-equivalence of two binding forms, given that of their bodies:
    the same kind of form, equal outer terms, and bodies equal with both
    binders bound at `depth`."""
    return (type(a) is type(b)
            and all(alpha_eq_index(x, y, env_a, env_b, depth)
                    for x, y in zip(_outer(a), _outer(b)))
            and body_eq(a.body, b.body, {**env_a, a.binder: depth},
                        {**env_b, b.binder: depth}, depth + 1))


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


BUILTIN_ARITIES = {"0": 0, "1": 0, "+": 2, "-": 2}


@dataclass(frozen=True)
class Signature:
    """Function symbols with arities.  Builtins 0, 1, +, - are always present."""
    arities: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(BUILTIN_ARITIES)
        for sym, ar in self.arities.items():
            if sym in BUILTIN_ARITIES and ar != BUILTIN_ARITIES[sym]:
                raise EquationError(f"builtin symbol {sym!r} cannot be redeclared")
            if ar < 0:
                raise EquationError(f"negative arity for {sym!r}")
            merged[sym] = ar
        object.__setattr__(self, "arities", merged)

    def arity(self, symbol: str) -> int:
        if symbol not in self.arities:
            raise ArityError(symbol, -1, -1)
        return self.arities[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.arities


def declare(symbols: dict[str, int]) -> Signature:
    return Signature(dict(symbols))


@dataclass(frozen=True)
class NatPattern:
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


@dataclass(frozen=True)
class Rule:
    symbol: str
    params: tuple[NatPattern, ...]
    rhs: IndexTerm


@dataclass(frozen=True)
class EquationalProgram:
    signature: Signature
    rules: tuple[Rule, ...]

    def rules_for(self, symbol: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.symbol == symbol)


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


def check_symbols(t: IndexTerm, signature: Signature) -> None:
    """ArityError unless every application in `t` matches `signature`."""
    match t:
        case App(sym, args):
            expected = signature.arity(sym)
            if len(args) != expected:
                raise ArityError(sym, expected, len(args))
            for a in args:
                check_symbols(a, signature)
        case BoundedSum() | Forest():
            for sub in _outer(t) + (t.body,):
                check_symbols(sub, signature)


# ---------------------------------------------------------------------------
# Evaluation

Assignment = dict[str, int]


class IndexUndefined(Exception):
    """The index term is semantically undefined: a ground redex with no
    matching rule."""


def eval_index(term: IndexTerm, rho: Assignment, program: EquationalProgram,
               fuel: int | Fuel = DEFAULT_FUEL) -> int:
    """Value of `term` under assignment `rho` and program `program`.

    Applications rewrite innermost: arguments evaluate to naturals before a
    rule is matched (orthogonality makes defined results independent of the
    strategy, though definedness itself may differ from outermost).

    Raises IndexUndefined when no rule matches a ground redex, FuelExhausted
    when the budget runs out (possible divergence), ValueError on variables
    outside rho's domain.
    """
    gas = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
    try:
        return _eval(term, rho, program, gas)
    except RecursionError:
        # Deep non-tail rewriting exhausts the interpreter stack before the
        # fuel; both are resource budgets, so report it the same way.
        raise FuelExhausted(gas.budget) from None


def _eval(term: IndexTerm, rho: Assignment, program: EquationalProgram,
          gas: Fuel) -> int:
    gas.tick()
    match term:
        case Var(name):
            if name not in rho:
                raise ValueError(f"unbound index variable {name!r}")
            return rho[name]
        case Lit(value):
            return value
        case App("+", (a, b)):
            return _eval(a, rho, program, gas) + _eval(b, rho, program, gas)
        case App("-", (a, b)):
            return max(0, _eval(a, rho, program, gas) - _eval(b, rho, program, gas))
        case App("0", ()):
            return 0
        case App("1", ()):
            return 1
        case App(sym, args):
            values = [_eval(a, rho, program, gas) for a in args]
            return _apply(sym, values, program, gas)
        case BoundedSum(binder, bound, body):
            n = _eval(bound, rho, program, gas)
            total = 0
            inner = dict(rho)
            for v in range(n):
                gas.tick()
                inner[binder] = v
                total += _eval(body, inner, program, gas)
            return total
        case Forest(binder, start, count, body):
            start_v = _eval(start, rho, program, gas)
            count_v = _eval(count, rho, program, gas)
            inner = dict(rho)

            def children(pos: int) -> int:
                inner[binder] = pos
                return _eval(body, inner, program, gas)

            return _forest_nodes(start_v, count_v, children, gas)
    raise TypeError(f"not an index term: {term!r}")


def _apply(symbol: str, values: list[int], program: EquationalProgram,
           gas: Fuel) -> int:
    # Tail rewrites loop here instead of recursing, so self-recursive
    # equations burn fuel rather than interpreter stack.
    while True:
        if symbol not in program.signature:
            raise ArityError(symbol, -1, len(values))
        for rule in program.rules:
            if rule.symbol != symbol:
                continue
            binding: dict[str, int] = {}
            ok = True
            for pat, v in zip(rule.params, values):
                m = pat.match(v)
                if m is None:
                    ok = False
                    break
                binding.update(m)
            if ok:
                gas.tick()
                rhs = rule.rhs
                if (isinstance(rhs, App)
                        and rhs.symbol not in ("+", "-", "0", "1")):
                    gas.tick(len(rhs.args))
                    symbol = rhs.symbol
                    values = [_eval(a, binding, program, gas)
                              for a in rhs.args]
                    break
                return _eval(rhs, binding, program, gas)
        else:
            raise IndexUndefined(
                f"no rule matches {symbol}({', '.join(map(str, values))})")


def _forest_nodes(start: int, count: int, children, gas: Fuel) -> int:
    """Pre-order count of nodes in `count` consecutive trees from label
    `start`.  Single left-to-right pass: each node is visited exactly once,
    so the repeated subterm in the defining recursion is never re-evaluated.
    """
    total = 0
    pos = start
    stack = [count]
    while stack:
        c = stack.pop()
        if c == 0:
            continue
        gas.tick()
        stack.append(c - 1)
        total += 1
        stack.append(children(pos))
        pos += 1
    return total


# ---------------------------------------------------------------------------
# Constraints and verdicts

REL_SYMBOLS = ("<=", "<", "=")


@dataclass(frozen=True)
class Constraint:
    lhs: IndexTerm
    rel: str
    rhs: IndexTerm

    def __post_init__(self):
        if self.rel not in REL_SYMBOLS + ("~",):
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class Defined:
    """Goal asserting the term is defined for all satisfying assignments."""
    term: IndexTerm


@dataclass(frozen=True)
class ConstraintSet:
    variables: tuple[str, ...] = ()
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate constraint variable")
        scope = set(self.variables)
        for c in self.constraints:
            stray = (free_vars(c.lhs) | free_vars(c.rhs)) - scope
            if stray:
                raise ValueError(
                    f"constraint mentions undeclared variables {sorted(stray)}")
        if any(c.rel == "~" for c in self.constraints):
            raise ValueError("Kleene equality is a goal form, not a constraint")

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


@dataclass(frozen=True)
class Verified:
    bound: int


@dataclass(frozen=True)
class Refuted:
    witness: tuple[tuple[str, int], ...]

    @staticmethod
    def at(rho: Assignment) -> "Refuted":
        return Refuted(tuple(sorted(rho.items())))

    def assignment(self) -> Assignment:
        return dict(self.witness)


@dataclass(frozen=True)
class Unknown:
    reason: str  # "fuel-exhausted" | "undefined-at"
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


def _outcome(term: IndexTerm, rho: Assignment, program: EquationalProgram,
             fuel: int) -> tuple[int, int]:
    try:
        return (_OK, eval_index(term, rho, program, Fuel(fuel)))
    except IndexUndefined:
        return (_UNDEF, 0)
    except FuelExhausted:
        return (_FUEL, 0)


def _related(rel: str, a: int, b: int) -> bool:
    return a <= b if rel == "<=" else a < b if rel == "<" else a == b


def _satisfies(constraints: list[Constraint], rho: Assignment,
               program: EquationalProgram, fuel: int) -> Optional[bool]:
    """Do `constraints` hold at rho?  A constraint holds when both sides
    are defined and related, so an undefined side makes it false.  False at
    the first false constraint; None when fuel ran out on a side of some
    constraint and none is false."""
    out: Optional[bool] = True
    for c in constraints:
        tl, vl = _outcome(c.lhs, rho, program, fuel)
        if tl == _UNDEF:
            return False
        tr, vr = _outcome(c.rhs, rho, program, fuel)
        if tr == _UNDEF:
            return False
        if _FUEL in (tl, tr):
            out = None
        elif not _related(c.rel, vl, vr):
            return False
    return out


@dataclass
class _Memo:
    """What `entails` learnt within one `entails_memo` block: the verdict
    of each (ctx, goal) and the satisfying assignments of each ctx.  It
    serves only the program, bound and fuel it was opened for."""
    program: EquationalProgram
    bound: int
    fuel: int
    verdicts: dict = field(default_factory=dict)
    satisfying: dict = field(default_factory=dict)


_MEMO: ContextVar[Optional[_Memo]] = ContextVar("entails_memo", default=None)


@contextmanager
def entails_memo(program: EquationalProgram, bound: int,
                 fuel: int) -> Iterator[None]:
    """Within the block, `entails` on `program` at (bound, fuel) remembers
    its verdicts and each context's satisfying assignments.  Both are
    dropped when the block exits, however it exits."""
    token = _MEMO.set(_Memo(program, bound, fuel))
    try:
        yield
    finally:
        _MEMO.reset(token)


def entails(ctx: ConstraintSet, goal: Constraint | Defined,
            program: EquationalProgram, bound: int = DEFAULT_BOUND,
            fuel: int = DEFAULT_FUEL) -> Verdict:
    """Does the goal hold at every assignment of ctx.variables into
    {0..bound} satisfying ctx.constraints?

    Exhaustive and three-valued: Verified(bound) when the goal holds at
    every satisfying assignment, Refuted(rho) at the first definite
    counterexample, Unknown when fuel ran out on a goal evaluation at some
    satisfying assignment, or on a constraint at an assignment that no
    constraint rules out (and no definite counterexample was found).
    "First" is in lexicographic order of the values of ctx.variables.

    Inside `entails_memo` for the same program, bound and fuel, the verdict
    of an equal query and the satisfying assignments of an equal context
    are reused; elsewhere every call enumerates afresh.
    """
    goal_vars = (free_vars(goal.term) if isinstance(goal, Defined)
                 else free_vars(goal.lhs) | free_vars(goal.rhs))
    stray = goal_vars - set(ctx.variables)
    if stray:
        raise ValueError(f"goal mentions undeclared variables {sorted(stray)}")

    memo = _MEMO.get()
    if (memo is None or memo.program is not program or memo.bound != bound
            or memo.fuel != fuel):
        return _goal_over(ctx.variables, _satisfying(ctx, program, bound, fuel),
                          goal, program, bound, fuel)
    key = (ctx, goal)
    if key not in memo.verdicts:
        if ctx not in memo.satisfying:
            memo.satisfying[ctx] = list(_satisfying(ctx, program, bound, fuel))
        memo.verdicts[key] = _goal_over(ctx.variables, memo.satisfying[ctx],
                                        goal, program, bound, fuel)
    return memo.verdicts[key]


def _satisfying(ctx: ConstraintSet, program: EquationalProgram, bound: int,
                fuel: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The assignments of ctx.variables into {0..bound} at which no
    constraint is false, in lexicographic order, as (values, settled):
    settled is False when fuel ran out on a constraint there.

    The variables are bound depth-first in order, and each constraint is
    tested once, as soon as its last free variable is bound: where it is
    false, no extension of the partial assignment is visited.
    """
    variables = ctx.variables
    depth = {v: i + 1 for i, v in enumerate(variables)}
    tests: list[list[Constraint]] = [[] for _ in range(len(variables) + 1)]
    for c in ctx.constraints:
        tests[max((depth[v] for v in free_vars(c.lhs) | free_vars(c.rhs)),
                  default=0)].append(c)
    rho: Assignment = {}

    def walk(level: int, settled: bool):
        holds = _satisfies(tests[level], rho, program, fuel)
        if holds is False:
            return
        settled = settled and holds is True
        if level == len(variables):
            yield tuple(rho[v] for v in variables), settled
            return
        var = variables[level]
        for value in range(bound + 1):
            rho[var] = value
            yield from walk(level + 1, settled)

    return walk(0, True)


def _goal_over(variables: tuple[str, ...], points, goal: Constraint | Defined,
               program: EquationalProgram, bound: int, fuel: int) -> Verdict:
    """The verdict of the goal over `points`, as `_satisfying` yields them."""
    unknown: Unknown | None = None
    for values, settled in points:
        rho = dict(zip(variables, values))
        verdict = (_goal_at(goal, rho, program, fuel) if settled
                   else Unknown("fuel-exhausted", tuple(sorted(rho.items()))))
        if isinstance(verdict, Refuted):
            return verdict
        if isinstance(verdict, Unknown) and unknown is None:
            unknown = verdict
    return unknown if unknown is not None else Verified(bound)


def _goal_at(goal: Constraint | Defined, rho: Assignment,
             program: EquationalProgram, fuel: int) -> Verdict | None:
    if isinstance(goal, Defined):
        tag, _ = _outcome(goal.term, rho, program, fuel)
        if tag == _OK:
            return None
        if tag == _UNDEF:
            return Refuted.at(rho)
        return Unknown("fuel-exhausted", tuple(sorted(rho.items())))
    tl, vl = _outcome(goal.lhs, rho, program, fuel)
    tr, vr = _outcome(goal.rhs, rho, program, fuel)
    if tl == _FUEL or tr == _FUEL:
        return Unknown("fuel-exhausted", tuple(sorted(rho.items())))
    if goal.rel == "~":
        # Kleene equality: both undefined, or both defined and equal.
        if tl == _UNDEF and tr == _UNDEF:
            return None
        if tl == _OK and tr == _OK and vl == vr:
            return None
        return Refuted.at(rho)
    if tl == _UNDEF or tr == _UNDEF:
        return Refuted.at(rho)
    return None if _related(goal.rel, vl, vr) else Refuted.at(rho)


# ---------------------------------------------------------------------------
# Concrete syntax

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<id>[A-Za-z_][A-Za-z0-9_']*)"
                    r"|(?P<op><=|[-+<>=(),]))", re.ASCII)


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
        binder = p.next()
        p.expect("<")
        bound = parse_sum_expr(p)
        p.expect(",")
        body = parse_sum_expr(p)
        p.expect(")")
        return BoundedSum(binder, bound, body)
    if tok == "forest":
        p.expect("(")
        binder = p.next()
        p.expect(",")
        start = parse_sum_expr(p)
        p.expect(",")
        count = parse_sum_expr(p)
        p.expect(",")
        body = parse_sum_expr(p)
        p.expect(")")
        return Forest(binder, start, count, body)
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", tok):
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


def show_index(t: IndexTerm) -> str:
    match t:
        case Var(name):
            return name
        case Lit(v):
            return str(v)
        case App("+" | "-" as op, (a, b)):
            left = show_index(a)
            right = show_index(b)
            if isinstance(b, App) and b.symbol in ("+", "-"):
                right = f"({right})"
            return f"{left} {op} {right}"
        case App(sym, args):
            return f"{sym}({', '.join(show_index(a) for a in args)})"
        case BoundedSum(binder, bound, body):
            return f"sum({binder} < {show_index(bound)}, {show_index(body)})"
        case Forest(binder, start, count, body):
            return (f"forest({binder}, {show_index(start)}, "
                    f"{show_index(count)}, {show_index(body)})")
    raise TypeError(f"not an index term: {t!r}")


def show_constraint(c: Constraint) -> str:
    return f"{show_index(c.lhs)} {c.rel} {show_index(c.rhs)}"


# ---------------------------------------------------------------------------
# Equation files

_EQ_LINE = re.compile(r"^\s*(?P<sym>[A-Za-z_][A-Za-z0-9_']*)\s*\((?P<params>[^)]*)\)\s*=\s*(?P<rhs>.+?)\s*$")


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
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", base):
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
        if sym in BUILTIN_ARITIES:
            raise EquationError(f"line {lineno}: builtin {sym!r} cannot be redefined")
        if sym in arities and arities[sym] != len(params):
            raise ArityError(sym, arities[sym], len(params))
        arities[sym] = len(params)
        rules.append(Rule(sym, params, parse_index(m.group("rhs"))))
    return register_program(rules, declare(arities))


def load_equations(path) -> EquationalProgram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_equations(fh.read())


EMPTY_PROGRAM = register_program([], declare({}))
