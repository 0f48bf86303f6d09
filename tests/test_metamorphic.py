"""Metamorphic soundness fuzz: corrupt one numeric literal of the golden
derivation at a time; whenever the corrupted derivation still verifies, its
root bounds must hold on real machine runs up to the checked bound.  A
checker bug that lets an unsound claim through would surface here as a
verified derivation whose promised step or value bounds the machine then
breaks."""

import dataclasses
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dlpcf import checker as ck
from dlpcf import index as ix
from dlpcf import pcf
from dlpcf.cli import soundness_rows
from dlpcf.index import Verified
from dlpcf.types import LinArrow, erase, parse_basic_type

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def literal_mutants(text: str, rng: random.Random, count: int):
    spans = [m.span() for m in re.finditer(r"\d+", text)]
    for _ in range(count):
        lo, hi = spans[rng.randrange(len(spans))]
        value = int(text[lo:hi]) + rng.choice((-1, 1))
        if value < 0:
            continue
        yield text[:lo] + str(value) + text[hi:]


def all_literal_mutants(text: str):
    for lo, hi in [m.span() for m in re.finditer(r"\d+", text)]:
        for delta in (-1, 1):
            value = int(text[lo:hi]) + delta
            if value >= 0:
                yield text[:lo] + str(value) + text[hi:]


def test_verified_mutants_respect_the_machine(arith, dbl_term):
    text = (FIXTURES / "dbl.deriv").read_text()
    rng = random.Random(97)
    bound = 3
    verified = rejected = 0
    for mutant_text in literal_mutants(text, rng, 40):
        try:
            deriv = ck.bind(ck.parse_derivation(mutant_text), dbl_term)
            report = ck.check(deriv, arith, bound=bound)
        except (ck.StructuralError, ck.DerivationSyntaxError, ValueError):
            rejected += 1
            continue
        if not isinstance(report.overall, Verified):
            rejected += 1
            continue
        verified += 1
        rows = soundness_rows(deriv, dbl_term, arith,
                              tuple(range(bound + 1)), fuel=10**6)
        for n, row in enumerate(rows):
            assert row.bound_ok, (n, mutant_text)
            assert row.interval_ok, (n, mutant_text)
    # slack-adding mutations (for instance bumping the root weight) verify,
    # most others are refuted or structurally rejected
    assert verified >= 1
    assert rejected >= 10


def test_verified_mutants_of_the_vacuous_fix(arith):
    term_text = (FIXTURES / "delay5.pcf").read_text()
    from dlpcf import pcf
    term = pcf.parse_term(term_text)
    text = (FIXTURES / "delay5.deriv").read_text()
    verified = rejected = 0
    for mutant_text in all_literal_mutants(text):
        try:
            deriv = ck.bind(ck.parse_derivation(mutant_text), term)
            report = ck.check(deriv, arith, bound=4)
        except (ck.StructuralError, ck.DerivationSyntaxError, ValueError):
            rejected += 1
            continue
        if not isinstance(report.overall, Verified):
            rejected += 1
            continue
        verified += 1
        rows = soundness_rows(deriv, term, arith, (), fuel=10**6)
        assert rows[0].bound_ok and rows[0].interval_ok, mutant_text
    # bumping the root weight or a comment digit verifies; shrinking the
    # argument interval or the unfolding bound must not
    assert verified >= 1 and rejected >= 10


# ---------------------------------------------------------------------------
# Erasure: literals never change it, every derivation `check` accepts erases,
# node by node, to a simply typed PCF derivation, and a type of another shape
# is always a structural error

def fixture_text_and_term(name):
    term = pcf.parse_term((FIXTURES / f"{name}.pcf").read_text())
    return (FIXTURES / f"{name}.deriv").read_text(), term


def nodes(d, path=()):
    yield path, d
    for i, premise in enumerate(d.premises):
        yield from nodes(premise, path + (i,))


def replace_at(d, path, **changes):
    if not path:
        return dataclasses.replace(d, **changes)
    premises = list(d.premises)
    premises[path[0]] = replace_at(premises[path[0]], path[1:], **changes)
    return dataclasses.replace(d, premises=tuple(premises))



def erased_nodes(d):
    """Each node's path with its erased context and erased type."""
    return [(path, tuple(map(erase, node.context)), erase(node.type))
            for path, node in nodes(d)]


@pytest.mark.parametrize("name", ["dbl", "delay5"])
def test_literal_mutants_erase_as_the_fixture(name):
    text, term = fixture_text_and_term(name)
    want = erased_nodes(ck.bind(ck.parse_derivation(text), term))
    for mutant_text in all_literal_mutants(text):
        deriv = ck.bind(ck.parse_derivation(mutant_text), term)
        assert erased_nodes(deriv) == want, mutant_text

@st.composite
def fixture_and_mutants(draw):
    """A fixture's name and one or two of its literal mutants."""
    name = draw(st.sampled_from(["dbl", "delay5"]))
    mutants = list(all_literal_mutants(fixture_text_and_term(name)[0]))
    return name, draw(st.lists(st.sampled_from(mutants), min_size=1,
                               max_size=2))


@given(fixture_and_mutants())
@settings(max_examples=25, deadline=None)
def test_accepted_derivations_erase_node_by_node(arith, drawn):
    """The erasure lemma: at every node of an accepted derivation, the
    subject has, in the erased typing context, the erased type; a binder's
    annotation is the erasure of its bound variable's entry."""
    name, mutants = drawn
    text, term = fixture_text_and_term(name)
    for deriv_text in [text] + mutants:
        deriv = ck.bind(ck.parse_derivation(deriv_text), term)
        try:
            ck.check(deriv, arith, bound=3)
        except ck.StructuralError:
            continue
        for path, node in nodes(deriv):
            context = tuple(map(erase, node.context))
            assert (pcf.pcf_typecheck(context, node.subject)
                    == erase(node.type)), (path, deriv_text)
            if isinstance(node.subject, pcf.BINDERS):
                assert (node.subject.ann
                        == erase(node.premises[0].context[0])), path


def other_shape(t):
    return parse_basic_type("Nat[0]" if isinstance(t, LinArrow)
                            else "[c < 1] Nat[0] -o Nat[0]")


def shape_mutants(d):
    """(node path, what changed, derivation) for each node's type, each of
    its context slots' bodies and R's `bodytype`, swapped for a type of
    another shape."""
    for path, node in nodes(d):
        yield path, "type", replace_at(d, path, type=other_shape(node.type))
        for j, entry in enumerate(node.context):
            context = list(node.context)
            context[j] = dataclasses.replace(entry,
                                             body=other_shape(entry.body))
            yield path, f"slot {j}", replace_at(d, path,
                                                context=tuple(context))
        if node.annots.bodytype is not None:
            annots = dataclasses.replace(
                node.annots, bodytype=other_shape(node.annots.bodytype))
            yield path, "bodytype", replace_at(d, path, annots=annots)


# The node `check` names for a shape mutant, where it is not the mutated
# node: a premise compared against the rule's wanted judgement, or the parent
# whose context sum or join meets the swapped slot.
NAMED_ELSEWHERE = {
    "dbl": {((), "bodytype"): (0,),
            ((0, 0, 0), "slot 0"): (0, 0),
            ((0, 0, 0), "slot 1"): (0, 0),
            ((0, 0, 1), "slot 0"): (0, 0, 2),
            ((0, 0, 1), "slot 1"): (0, 0, 2),
            ((0, 0, 2, 0, 0, 0), "slot 0"): (0, 0, 2, 0, 0),
            ((0, 0, 2, 0, 0, 0), "slot 1"): (0, 0, 2, 0, 0),
            ((0, 0, 2, 0, 0, 1), "slot 0"): (0, 0, 2, 0, 0),
            ((0, 0, 2, 0, 0, 1), "slot 1"): (0, 0, 2, 0, 0)},
    "delay5": {((), "type"): (0,),
               ((0, 0), "bodytype"): (0, 0, 0),
               ((0, 0, 0), "slot 1"): (0, 0)},
}


@pytest.mark.parametrize("name", ["dbl", "delay5"])
def test_a_type_of_another_erasure_is_a_structural_error(arith, name):
    text, term = fixture_text_and_term(name)
    deriv = ck.bind(ck.parse_derivation(text), term)
    mutants = list(shape_mutants(deriv))
    assert len(mutants) == {"dbl": 31, "delay5": 9}[name]
    for path, what, mutant in mutants:
        with pytest.raises(ck.StructuralError) as caught:
            ck.check(mutant, arith, bound=3)
        assert caught.value.path == NAMED_ELSEWHERE[name].get(
            (path, what), path), (path, what)
