"""The syntax classes built on `dlpcf.record.Record`: interning, equality,
hashing, printing and immutability against structural equality, and
a guard that no class of dlpcf but the two derivation records is a
dataclass."""

import gc
import importlib
import inspect
import pkgutil
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import dlpcf
from dlpcf import checker as ck
from dlpcf import index as ix
from dlpcf import pcf
from dlpcf import types as ty
from dlpcf.index import App, BoundedSum, Forest, Lit, Var
from dlpcf.machine import PMark, SMark
from dlpcf.record import Interned, Record

from genterms import gen_basic_type, open_terms, same


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
    # the listing reaches every module: these are records of each family,
    # the types among index syntax, and a class of the type judgements
    assert {("index", "Var", False), ("index", "ModalType", False),
            ("types", "SumWitness", False), ("pcf", "Lam", False),
            ("machine", "SMark", False)} <= found


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
pcf_types = st.recursive(st.just(pcf.NAT),
                         lambda sub: st.builds(pcf.Arrow, sub, sub),
                         max_leaves=4)
nodes = (index_terms | goals | types | open_terms | pcf_types
         | st.sampled_from((SMark(), PMark())))


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
    # every record compares by identity; equal index syntax, types, PCF
    # types and marks are one object, and a rebuilt PCF term is a new one
    interned = not isinstance(t, pcf.Term.__args__)
    for a, b in ((s, t), (t, s), (t, copy), (copy, t), (t, t),
                 *((t, u) for u in others)):
        assert (a == b) == (a is b) != (a != b)
        if interned:
            assert (a is b) == same(a, b)
    assert (copy is t) == interned and repr(copy) == repr(t)
    assert not any(map(same, others, [t] * len(others)))
    for name in t._fields + ("_size", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        if name in t._fields:
            with pytest.raises(AttributeError):
                delattr(t, name)
    assert same(t, copy)


def test_a_node_equals_no_value_of_another_class():
    assert Var("a") != "a" and Lit(1) != 1 and pcf.Const(1) != Lit(1)
    assert pcf.App(pcf.Const(0), pcf.Const(1)) != (pcf.Const(0), pcf.Const(1))
    assert pcf.NatT() == pcf.NAT and hash(pcf.NatT()) == hash(pcf.NAT)
    # interning keys on the values' types too, as `True == 1`
    assert Lit(True) is not Lit(1) and Lit(True) != Lit(1)
    assert Var("a") is Var("a")
    # terms are not interned: two built apart differ, annotated or not
    assert pcf.Lam(pcf.TVar(0), pcf.NAT) != pcf.Lam(pcf.TVar(0))


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


def test_a_dropped_node_leaves_the_intern_table(arith, dbl_derivation):
    """The table holds its records weakly, so neither a term nor a whole
    check keeps a node alive once it is dropped."""
    gc.collect()
    before = len(Interned.table)
    term = ix.add(Var("dropped"), Lit(10**9))
    assert len(Interned.table) == before + 3
    del term
    report = ck.check(dbl_derivation, arith, bound=4)
    assert len(Interned.table) > before
    del report
    gc.collect()
    assert len(Interned.table) == before


def test_threads_that_build_equal_nodes_get_one_object():
    """Two threads that miss the table for one key at once store one
    record, so `==` stays identity under threads."""
    workers, n = 4, 3000
    built = [None] * workers

    def build(w):
        built[w] = [ix.add(Var(f"race{j}"), Lit(j)) for j in range(n)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(w,))
                   for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert all(a is b for nodes in built[1:] for a, b in zip(nodes, built[0]))
