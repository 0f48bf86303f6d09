"""Property suites for the forest-cardinality identities: the defining
unfolding, shift-invariance of the start label, and the decomposition of a
single tree count into a bounded sum over its top-level subtrees."""

import random

from hypothesis import given, settings, strategies as st

from dlpcf import index as ix
from dlpcf.index import (BoundedSum, Constraint, EMPTY_CTX, Forest, Lit,
                         Oracle, Var, Verified, add, entails, eval_index,
                         subst_index)

from genterms import table_program

FUEL = 10**5


def make_table(seed: int):
    return table_program(random.Random(seed), width=12, max_children=3)


small = st.integers(min_value=0, max_value=4)
seeds = st.integers(min_value=0, max_value=10**6)


@given(seeds, small, small)
@settings(max_examples=120, deadline=None)
def test_unfolding_identity(seed, i, j):
    # forest(i, j+1) = forest(i, j) + 1 + forest(i+1+t, K[a := i+t]) with
    # t the first summand, read off the defining recursion
    program, body = make_table(seed)
    t1 = Forest("a", Lit(i), Lit(j), body)
    expanded = add(add(t1, Lit(1)),
                   Forest("a", add(add(Lit(i), Lit(1)), t1),
                          subst_index(body, "a", add(Lit(i), t1)), body))
    whole = Forest("a", Lit(i), Lit(j + 1), body)
    assert (eval_index(whole, {}, program, FUEL)
            == eval_index(expanded, {}, program, FUEL))


@given(seeds, small, small, small)
@settings(max_examples=120, deadline=None)
def test_shift_lemma(seed, i, j, k):
    # forest(a, i+j, k, H) ~ forest(a, j, k, H[a := a+i])
    program, body = make_table(seed)
    lhs = Forest("a", Lit(i + j), Lit(k), body)
    rhs = Forest("a", Lit(j), Lit(k),
                 subst_index(body, "a", add(Var("a"), Lit(i))))
    verdict = entails(EMPTY_CTX, Constraint(lhs, "~", rhs),
                      Oracle(program, bound=8, fuel=FUEL))
    assert isinstance(verdict, Verified)


@given(seeds, small)
@settings(max_examples=120, deadline=None)
def test_single_tree_sum_lemma(seed, j):
    # forest(a, 1, j, I) ~ sum(b < j) forest(a, 0, 1, I[a := a+1+forest(a,1,b,I)])
    program, body = make_table(seed)
    lhs = Forest("a", Lit(1), Lit(j), body)
    inner = Forest("a", Lit(1), Var("b"), body)
    shifted = subst_index(body, "a", add(add(Var("a"), Lit(1)), inner))
    rhs = BoundedSum("b", Lit(j), Forest("a", Lit(0), Lit(1), shifted))
    verdict = entails(EMPTY_CTX, Constraint(lhs, "~", rhs),
                      Oracle(program, bound=8, fuel=FUEL))
    assert isinstance(verdict, Verified)


def partial_table(rng: random.Random):
    """A child-count table with a hole: labels >= 12 have no matching rule,
    so forests reaching them are undefined rather than divergent."""
    rules = []
    for n in range(12):
        rules.append(ix.Rule("ptab", (ix.NatPattern(None, n),),
                             Lit(rng.randint(0, 3))))
    program = ix.register_program(rules, ix.declare({"ptab": 1}))
    return program, ix.App("ptab", (Var("a"),))


@given(seeds, small, small, small)
@settings(max_examples=80, deadline=None)
def test_shift_lemma_kleene_on_partial_tables(seed, i, j, k):
    # with a partial body both sides may be undefined; the identity holds
    # in the Kleene sense either way
    program, body = partial_table(random.Random(seed))
    lhs = Forest("a", Lit(i + j), Lit(k), body)
    rhs = Forest("a", Lit(j), Lit(k),
                 subst_index(body, "a", ix.add(Var("a"), Lit(i))))
    verdict = entails(EMPTY_CTX, Constraint(lhs, "~", rhs),
                      Oracle(program, bound=8, fuel=FUEL))
    assert isinstance(verdict, Verified)


def test_unfolding_with_free_variables(ktab):
    # the identity as an entailment over assignments up to 6
    ctx = ix.ConstraintSet(("i", "j"), ())
    body = ix.App("ktab", (Var("a"),))
    t1 = Forest("a", Var("i"), Var("j"), body)
    whole = Forest("a", Var("i"), add(Var("j"), Lit(1)), body)
    expanded = add(add(t1, Lit(1)),
                   Forest("a", add(add(Var("i"), Lit(1)), t1),
                          subst_index(body, "a", add(Var("i"), t1)), body))
    verdict = entails(ctx, Constraint(whole, "~", expanded),
                      Oracle(ktab, bound=6, fuel=FUEL))
    assert isinstance(verdict, Verified)
