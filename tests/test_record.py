"""The syntax classes built on `dlpcf.record.Record`: equality, hashing,
printing and immutability against field-by-field references, and a guard
that no class of dlpcf but the two derivation records is a dataclass."""

import importlib
import inspect
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import dlpcf
from dlpcf import index as ix
from dlpcf import pcf
from dlpcf import types as ty
from dlpcf.index import App, BoundedSum, Forest, Lit, Var
from dlpcf.record import Record

from genterms import gen_basic_type, open_terms


def test_only_the_derivation_records_are_dataclasses():
    """A dataclass decorator costs about a millisecond at import, so each
    class of dlpcf is built without one, but for `Derivation` and
    `Annotations`, whose API is `dataclasses.replace`."""
    found = set()
    for info in pkgutil.iter_modules(dlpcf.__path__):
        module = importlib.import_module(f"dlpcf.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                found.add((info.name, name,
                           hasattr(cls, "__dataclass_fields__")))
    assert {(m, n) for m, n, dc in found if dc} == {
        ("checker", "Derivation"), ("checker", "Annotations")}
    # the listing reaches every module: these are records of each family
    assert {("index", "Var", False), ("types", "ModalType", False),
            ("pcf", "Lam", False), ("machine", "SMark", False)} <= found


names = st.sampled_from(("a", "b", "x"))
index_terms = st.recursive(
    st.integers(0, 3).map(Lit) | names.map(Var),
    lambda sub: st.one_of(
        st.builds(ix.add, sub, sub), st.builds(ix.monus, sub, sub),
        st.builds(lambda f, args: App(f, tuple(args)),
                  st.sampled_from(("f", "g")), st.lists(sub, max_size=2)),
        st.builds(BoundedSum, names, sub, sub),
        st.builds(Forest, names, sub, sub, sub)),
    max_leaves=6)
goals = (st.builds(ix.Constraint, index_terms,
                   st.sampled_from(ix.REL_SYMBOLS + ("~",)), index_terms)
         | st.builds(ix.Defined, index_terms))
types = st.integers(0, 10**6).map(
    lambda seed: gen_basic_type(random.Random(seed), ("a", "x"), 2,
                                ("a", "b")))
nodes = index_terms | goals | types | open_terms


def reference_eq(a, b) -> bool:
    """Equality as the frozen dataclasses had it: same class and equal
    fields, a binder's type annotation left out, tuples item by item."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(reference_eq, a, b))
    if not isinstance(a, Record):
        return a == b
    return all(reference_eq(getattr(a, f), getattr(b, f))
               for f in a._fields if f != "ann")


def rebuilt(t):
    """An equal copy of `t` made of new nodes."""
    if type(t) is tuple:
        return tuple(map(rebuilt, t))
    if not isinstance(t, Record):
        return t
    return type(t)(*(rebuilt(getattr(t, f)) for f in t._fields))


def changed(t, name):
    """`t` with another value in its field `name`."""
    old = getattr(t, name)
    if name == "rel":
        new = "<" if old != "<" else "="
    elif isinstance(old, str):
        new = old + "'"
    elif isinstance(old, int):
        new = old + 1
    elif type(old) is tuple:
        new = old + (Lit(7),)
    else:
        new = pcf.Const(7) if isinstance(old, pcf.Term.__args__) else Lit(7)
        if new == old:
            new = type(new)(8)
    return type(t)(*(new if f == name else getattr(t, f) for f in t._fields))


@given(nodes, nodes)
@settings(max_examples=400, deadline=None)
def test_equality_and_hash_agree_with_the_fields(s, t):
    copy = rebuilt(t)
    # one field changed, a binder's name or a relation included
    others = [changed(t, f) for f in t._fields if f != "ann"]
    for a, b in ((s, t), (t, s), (t, copy), (copy, t), (t, t),
                 *((t, u) for u in others)):
        assert (a == b) == reference_eq(a, b)
        assert (a != b) != reference_eq(a, b)
        if reference_eq(a, b):
            assert hash(a) == hash(b)
    assert copy is not t and repr(copy) == repr(t)
    assert not any(map(reference_eq, others, [t] * len(others)))
    for name in t._fields + ("_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        if name in t._fields:
            with pytest.raises(AttributeError):
                delattr(t, name)
    assert reference_eq(t, copy)


def test_a_node_equals_no_value_of_another_class():
    assert Var("a") != "a" and Lit(1) != 1 and pcf.Const(1) != Lit(1)
    assert pcf.App(pcf.Const(0), pcf.Const(1)) != (pcf.Const(0), pcf.Const(1))
    assert pcf.NatT() == pcf.NAT and hash(pcf.NatT()) == hash(pcf.NAT)
    # a binder's annotation is not compared
    assert pcf.Lam(pcf.TVar(0), pcf.NAT) == pcf.Lam(pcf.TVar(0))


def test_nodes_print_as_the_dataclasses_did():
    assert repr(ix.parse_index("a + sum(b < 2, f(b))")) == (
        "App(symbol='+', args=(Var(name='a'), BoundedSum(binder='b', "
        "bound=Lit(value=2), body=App(symbol='f', args=(Var(name='b'),)))))")
    assert repr(ix.parse_constraint("a <= 1")) == (
        "Constraint(lhs=Var(name='a'), rel='<=', rhs=Lit(value=1))")
    assert repr(ty.parse_modal_type("[b < 2] Nat[b]")) == (
        "ModalType(binder='b', bound=Lit(value=2), "
        "body=NatI(lo=Var(name='b'), hi=Var(name='b')))")
    assert repr(pcf.parse_term("fix f: Nat -> Nat. \\x: Nat. s x")) == (
        "Fix(body=Lam(body=Succ(body=TVar(index=0)), ann=NatT()), "
        "ann=Arrow(dom=NatT(), cod=NatT()))")
    assert repr(pcf.Lam(pcf.Const(0))) == "Lam(body=Const(value=0), ann=None)"


def test_a_node_is_built_from_exactly_its_fields():
    for make in (lambda: Var(), lambda: Lit(1, 2), lambda: pcf.App(pcf.NAT),
                 lambda: pcf.IfZ(pcf.Const(0), pcf.Const(1))):
        with pytest.raises(TypeError):
            make()
