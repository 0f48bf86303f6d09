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

from dlpcf import checker as ck
from dlpcf import index as ix
from dlpcf import pcf
from dlpcf.cli import soundness_rows
from dlpcf.index import Verified
from dlpcf.types import LinArrow, parse_basic_type

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
# Erasure: literals never change it, a type of another shape always breaks it

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


@pytest.mark.parametrize("name", ["dbl", "delay5"])
def test_literal_mutants_erase_as_the_fixture(name):
    text, term = fixture_text_and_term(name)
    # repr, not ==: binder annotations take no part in term equality
    want = repr(ck.erase_derivation(ck.bind(ck.parse_derivation(text), term)))
    for mutant_text in all_literal_mutants(text):
        deriv = ck.bind(ck.parse_derivation(mutant_text), term)
        assert repr(ck.erase_derivation(deriv)) == want, mutant_text


@pytest.mark.parametrize("name", ["dbl", "delay5"])
def test_a_type_of_another_erasure_is_a_structural_error(name):
    text, term = fixture_text_and_term(name)
    deriv = ck.bind(ck.parse_derivation(text), term)
    for path, node in nodes(deriv):
        other = parse_basic_type("Nat[0]" if isinstance(node.type, LinArrow)
                                 else "[c < 1] Nat[0] -o Nat[0]")
        with pytest.raises(ck.StructuralError) as caught:
            ck.erase_derivation(replace_at(deriv, path, type=other))
        assert caught.value.path == path
