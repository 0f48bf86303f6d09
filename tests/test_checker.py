import ast
import collections
import dataclasses
import gc
import importlib
import pathlib
import weakref

import pytest
from click.testing import CliRunner

from dlpcf import checker as ck
from dlpcf import cli
from dlpcf import index as ix
from dlpcf import machine
from dlpcf import pcf
from dlpcf import types as ty
from dlpcf.checker import (Annotations, Derivation, StructuralError, bind,
                           check, load_derivation, parse_derivation)
from dlpcf.cli import main
from dlpcf.index import (App, Constraint, ConstraintSet, EMPTY_CTX, Lit,
                         Oracle, Refuted, Var, Verified, alpha_eq_index,
                         entails, parse_constraint, parse_equations,
                         parse_index, show_index)
from dlpcf.types import ModalType, erase, parse_basic_type, parse_modal_type


def cs(variables="", *constraints):
    return ConstraintSet(tuple(variables.split()),
                         tuple(parse_constraint(c) for c in constraints))


def B(text):
    return parse_basic_type(text)


def M(text):
    return parse_modal_type(text)


def leaf_n(value, ctx=EMPTY_CTX, context=(), weight="0", type_text=None):
    return Derivation("N", ctx, context, parse_index(weight),
                      B(type_text or f"Nat[{value}]"), Annotations(), (),
                      subject=pcf.Const(value))


# ---------------------------------------------------------------------------
# Leaves and a small application derivation

def test_constant_leaf_verifies(arith):
    report = check(leaf_n(3, type_text="Nat[3, 3]"), arith, bound=6)
    assert isinstance(report.overall, Verified)


def test_constant_leaf_wrong_interval_refuted(arith):
    report = check(leaf_n(3, type_text="Nat[4, 5]"), arith, bound=6)
    assert isinstance(report.overall, Refuted)


def test_leaf_rule_must_match_subject(arith):
    bad = dataclasses.replace(leaf_n(3), subject=pcf.Succ(pcf.Const(2)))
    with pytest.raises(StructuralError):
        check(bad, arith)


def small_app_derivation():
    """(\\x. s x) 2 at type Nat[3] with weight 1 (one argument copy)."""
    entry = M("[c < 1] Nat[2, 2]")
    v = Derivation("V", EMPTY_CTX, (entry,), Lit(0), B("Nat[2, 2]"),
                   Annotations(), (), subject=pcf.TVar(0))
    s = Derivation("S", EMPTY_CTX, (entry,), Lit(0), B("Nat[3, 3]"),
                   Annotations(), (v,), subject=pcf.Succ(pcf.TVar(0)))
    lam = Derivation("L", EMPTY_CTX, (), Lit(0),
                     B("[c < 1] Nat[2, 2] -o Nat[3, 3]"),
                     Annotations(), (s,),
                     subject=pcf.Lam(pcf.Succ(pcf.TVar(0))))
    arg = Derivation("N", cs("c", "c < 1"), (), Lit(0), B("Nat[2, 2]"),
                     Annotations(), (), subject=pcf.Const(2))
    return Derivation("A", EMPTY_CTX, (), Lit(1), B("Nat[3, 3]"),
                      Annotations(ctxsum=(), ctxjoin=()), (lam, arg),
                      subject=pcf.App(pcf.Lam(pcf.Succ(pcf.TVar(0))),
                                      pcf.Const(2)))


def test_small_application_derivation_verifies(arith):
    report = check(small_app_derivation(), arith, bound=6)
    assert isinstance(report.overall, Verified)
    # and the weight is tight: one unit less is refuted
    low = dataclasses.replace(small_app_derivation(), weight=Lit(0))
    report = check(low, arith, bound=6)
    assert isinstance(report.overall, Refuted)


def test_small_application_runs_within_its_weight(arith):
    d = small_app_derivation()
    r = machine.run(d.subject)
    w = ix.eval_index(d.weight, {}, arith)
    assert r.steps <= pcf.size(d.subject) * (w + 1)
    assert r.value == 3


def test_argument_premise_context_is_checked(arith):
    d = small_app_derivation()
    bad_arg = dataclasses.replace(d.premises[1], ctx=EMPTY_CTX)
    with pytest.raises(StructuralError):
        check(dataclasses.replace(d, premises=(d.premises[0], bad_arg)),
              arith)


def test_missing_witness_annotation_is_structural(arith):
    d = dataclasses.replace(small_app_derivation(), annots=Annotations())
    with pytest.raises(StructuralError):
        check(d, arith)


# ---------------------------------------------------------------------------
# The golden doubling derivation

def test_golden_dbl_verifies_at_bound_6(arith, dbl_derivation):
    report = check(dbl_derivation, arith, bound=6)
    assert isinstance(report.overall, Verified)
    assert report.bound == 6


def test_golden_dbl_is_precise(arith, dbl_derivation):
    # the corrected weights are exact: every inequality premise holds as an
    # equality, so the derivation also passes precise mode
    report = check(dbl_derivation, arith, bound=3, precise=True)
    assert isinstance(report.overall, Verified)


def test_derivations_are_hashable(dbl_term):
    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures/dbl.deriv"
    first, second = load_derivation(path), load_derivation(path)
    assert first == second and hash(first) == hash(second)
    assert hash(bind(first, dbl_term)) == hash(bind(second, dbl_term))


def test_golden_dbl_root_bounds(dbl_derivation):
    assert alpha_eq_index(dbl_derivation.type,
                          B("[b < a + 1] Nat[a] -o Nat[mult(2, a)]"))
    assert ix.alpha_eq_index(dbl_derivation.weight,
                             parse_index("a + sum(b < a+1, a - b)"))


def test_golden_dbl_erasure(dbl_derivation, dbl_term):
    assert erase(dbl_derivation.type) == pcf.Arrow(pcf.NAT, pcf.NAT)
    assert dbl_derivation.subject is dbl_term
    assert pcf.pcf_typecheck((), dbl_term) == pcf.Arrow(pcf.NAT, pcf.NAT)


def test_erased_premises_carry_binder_annotations(dbl_derivation):
    lam = dbl_derivation.premises[0]
    assert lam.subject.ann == erase(lam.premises[0].context[0]) == pcf.NAT
    assert dbl_derivation.subject.body is lam.subject


@pytest.mark.parametrize("program, derivation, message", [
    (r"\x: Nat -> Nat. 0",
     '(L (weight "0") (type "[c < 1] Nat[0] -o Nat[0]") (premises'
     ' (N (context "[c < 1] Nat[0]") (weight "0") (type "Nat[0]"))))',
     "lambda annotation Nat -> Nat does not match the erased type Nat"),
    ("fix f: Nat -> Nat. 0",
     '(R (weight "0") (type "Nat[0]") (annots (recvar b) (unfoldbound "1")'
     ' (callcap "1") (bodyweight "0") (selftype "[v < 0] Nat[0]")'
     ' (bodytype "Nat[0]") (resulttype "Nat[0]") (ctxsum)) (premises'
     ' (N (phi b) (constraints "b < 1") (context "[v < 0] Nat[0]")'
     ' (weight "0") (type "Nat[0]"))))',
     "fix annotation Nat -> Nat does not match the erased type Nat"),
], ids=["lambda", "fix"])
def test_a_binder_annotation_must_be_the_erasure_of_its_type(
        program, derivation, message, tmp_path):
    """A derivation whose binder types erase to other types than the
    program's annotations is no derivation of that program."""
    (tmp_path / "p.pcf").write_text(program)
    (tmp_path / "p.deriv").write_text(derivation)
    result = CliRunner().invoke(main, [
        "check", str(tmp_path / "p.deriv"), str(tmp_path / "p.pcf"),
        "--eqprog", str(FIXTURES / "arith.eqs"), "--bound", "3"])
    assert result.exit_code == 3
    assert result.output == f"structural error: root: {message}\n"


def test_lambda_of_interval_type_does_not_erase(arith):
    body = leaf_n(0, context=(M("[c < 1] Nat[0]"),))
    lam = Derivation("L", EMPTY_CTX, (), Lit(0), B("Nat[0]"), Annotations(),
                     (body,), subject=pcf.Lam(pcf.Const(0)))
    with pytest.raises(StructuralError) as err:
        check(lam, arith)
    assert str(err.value) == "root: lambdas take arrow types"


@pytest.mark.parametrize("rule, subject, type_text", [
    ("V", pcf.TVar(0), "Nat[0]"),
    ("N", pcf.TVar(0), "Nat[0]"),
    ("N", pcf.Succ(pcf.Const(2)), "Nat[3]"),
    ("L", pcf.Lam(pcf.Const(0)), "[c < 1] Nat[0] -o Nat[0]"),
    ("S", pcf.Succ(pcf.Const(0)), "Nat[1]"),
])
def test_malformed_leaf_does_not_erase(arith, rule, subject, type_text):
    node = Derivation(rule, EMPTY_CTX, (), Lit(0), B(type_text), Annotations(),
                      (), subject=subject)
    with pytest.raises(StructuralError):
        check(node, arith)


def test_variable_outside_the_context_is_structural(arith):
    node = Derivation("V", EMPTY_CTX, (), Lit(0), B("Nat[0]"), Annotations(),
                      (), subject=pcf.TVar(0))
    with pytest.raises(StructuralError) as err:
        check(node, arith)
    assert str(err.value) == ("root: subject has free variables outside the "
                              "typing context")


def test_paper_claimed_linear_weight_is_refuted(arith, dbl_derivation):
    """The a-weighted root from the worked example fails its own
    application-rule premise; see the decisions ledger."""
    claimed = dataclasses.replace(dbl_derivation, weight=parse_index("a"))
    report = check(claimed, arith, bound=4)
    assert isinstance(report.overall, Refuted)


# ---------------------------------------------------------------------------
# Mutations (single-field corruption must never verify)

def mutations(gold):
    def annots(**changes):
        return dataclasses.replace(gold.annots, **changes)

    yield "weight decremented", dataclasses.replace(
        gold, weight=parse_index("(a + sum(b < a+1, a - b)) - 1"))
    ty2 = B("[b < a] Nat[a] -o Nat[mult(2, a)]")
    yield "argument bound shrunk", dataclasses.replace(
        gold, type=ty2, annots=annots(resulttype=ty2))
    ty3 = B("[b < a + 1] Nat[a] -o Nat[mult(2, a) - 1]")
    yield "result interval shrunk", dataclasses.replace(
        gold, type=ty3, annots=annots(resulttype=ty3))
    yield "weight cap shrunk", dataclasses.replace(
        gold, annots=annots(callcap=parse_index("a")))
    yield "unfolding bound shrunk", dataclasses.replace(
        gold, annots=annots(unfoldbound=parse_index("a")))
    yield "body weight zeroed", dataclasses.replace(
        gold, annots=annots(bodyweight=Lit(0)))


def test_mutated_derivations_never_verify(arith, dbl_derivation):
    count = 0
    for label, mutant in mutations(dbl_derivation):
        count += 1
        try:
            report = check(mutant, arith, bound=4)
        except StructuralError:
            continue
        assert isinstance(report.overall, Refuted), label
        assert report.overall.witness, label
    assert count >= 5


def test_refutation_is_monotone_in_bound(arith, dbl_derivation):
    mutant = dataclasses.replace(
        dbl_derivation, weight=parse_index("(a + sum(b < a+1, a - b)) - 1"))
    for bound in (4, 5, 6):
        report = check(mutant, arith, bound=bound)
        assert isinstance(report.overall, Refuted)


def test_obligations_are_deterministic(arith, dbl_derivation):
    first = check(dbl_derivation, arith, bound=4)
    second = check(dbl_derivation, arith, bound=4)
    assert first.obligations == second.obligations
    assert first == second


def fixture_checks(arith, dbl_derivation):
    """The derivation and the report of four checks: dbl at bound 4 and
    delay5 at bound 6, each with and without `precise`."""
    delay5_derivation, _ = delay5(arith)
    return [(d, check(d, arith, bound=bound, precise=precise))
            for d, bound in ((dbl_derivation, 4), (delay5_derivation, 6))
            for precise in (False, True)]


def test_a_check_builds_no_text(arith, dbl_derivation, monkeypatch):
    """An obligation keeps the index syntax its rule asked about, and only
    a report prints it: neither `check` nor `soundness` prints any."""
    def refuse(t):
        raise AssertionError(f"printed {t!r}")

    for module in (ck, ty, ix):
        monkeypatch.setattr(module, "show_index", refuse)
    for _, report in fixture_checks(arith, dbl_derivation):
        assert isinstance(report.overall, Verified)
    printed = []
    monkeypatch.setattr(cli, "show_index", lambda t: printed.append(t) or "")
    result = CliRunner().invoke(
        main, ["soundness", str(FIXTURES / "dbl.deriv"),
               str(FIXTURES / "dbl.pcf"), "--eqprog",
               str(FIXTURES / "arith.eqs"), "--bound", "4", "-n", "0",
               "-n", "8"])
    assert result.exit_code == 0, result.output
    assert printed == []


def test_an_obligation_holds_what_its_rule_asked(arith, dbl_derivation):
    """Each entailment and well-definedness obligation ends with the goal
    or type it asked about, and asking again about it at its node gives
    its verdict, a refutation's witness included."""
    checks = fixture_checks(arith, dbl_derivation)
    for _, mutant in mutations(dbl_derivation):
        try:
            checks.append((mutant, check(mutant, arith, bound=4)))
        except StructuralError:
            pass
    asked = collections.Counter()
    for d, report in checks:
        for ob in report.obligations:
            assert all(isinstance(part, str) or ix.walk(part)
                       for part in ob.parts), ob
            node = d
            for i in ob.path:
                node = node.premises[i]
            oracle = Oracle(arith, report.bound, report.fuel)
            if ob.kind == "entailment":
                assert isinstance(ob.parts[-1], Constraint)
                again = entails(node.ctx, ob.parts[-1], oracle)
            elif ob.kind == "well-definedness":
                again = ty.well_defined(node.ctx, ob.parts[-1], oracle)
            else:
                continue
            assert again == ob.verdict, ob
            asked[ob.kind, type(again)] += 1
    assert asked.keys() >= {("entailment", Verified), ("entailment", Refuted),
                            ("well-definedness", Verified)}


# ---------------------------------------------------------------------------
# The entailment memo lives on its oracle

def direct_entails_evals(program, bound, monkeypatch):
    """The eval_index calls made by each of two identical direct `entails`
    calls, each on a fresh oracle at `bound` and the default fuel."""
    calls = []
    real = ix.eval_index
    monkeypatch.setattr(ix, "eval_index",
                        lambda *args: calls.append(args) or real(*args))
    counts = []
    for _ in range(2):
        before = len(calls)
        entails(cs("a b", "b < a + 1"), parse_constraint("b <= a"),
                Oracle(program, bound))
        counts.append(len(calls) - before)
    monkeypatch.undo()
    return counts


def test_no_memo_outlives_a_check(arith, dbl_derivation, monkeypatch):
    check(dbl_derivation, arith, bound=3)
    first, second = direct_entails_evals(arith, 3, monkeypatch)
    assert first == second > 0
    # a weight out of scope two nodes down, after the root's obligations
    lam = dbl_derivation.premises[0]
    branch = dataclasses.replace(lam.premises[0], weight=parse_index("q"))
    broken = dataclasses.replace(
        dbl_derivation, premises=(dataclasses.replace(lam, premises=(branch,)),))
    with pytest.raises(StructuralError, match="root.0.0"):
        check(broken, arith, bound=3)
    assert direct_entails_evals(arith, 3, monkeypatch) == [first, first]


def test_entails_memo_serves_only_its_program_and_bound():
    ctx = ConstraintSet(("a",), ())
    goal = Constraint(App("f", (Var("a"),)), "<=", Lit(0))
    zero = parse_equations("f(a) = 0")
    succ = parse_equations("f(a) = a + 1")
    asked = Oracle(zero, 3, 1000)
    assert entails(ctx, goal, asked) == Verified(3)
    assert entails(ctx, goal, Oracle(succ, 3, 1000)) == Refuted((("a", 0),))
    assert entails(ctx, goal, Oracle(zero, 2, 1000)) == Verified(2)
    # an oracle is equal only to itself
    assert asked != Oracle(zero, 3, 1000)


def test_a_check_evaluates_each_term_once_per_assignment_of_its_variables(
        arith, dbl_derivation, monkeypatch):
    evaluated = []
    real = ix.eval_index

    def record(term, rho, *rest):
        evaluated.append((term, tuple(sorted(
            (v, rho[v]) for v in ix.free_vars(term)))))
        return real(term, rho, *rest)

    monkeypatch.setattr(ix, "eval_index", record)
    assert check(dbl_derivation, arith, bound=4).overall == Verified(4)
    # a binder x < I takes no value from I on, where x < I is false
    assert len(evaluated) == len(set(evaluated)) == 301


def test_a_binder_takes_only_the_values_its_bound_leaves(
        arith, dbl_derivation, monkeypatch):
    """`_extend` visits each partial assignment once, and a variable x
    with a constraint x < I takes no value from I on."""
    visits = []
    real = ix._extend
    monkeypatch.setattr(ix, "_extend",
                        lambda *args: visits.append(args[0]) or real(*args))
    assert check(dbl_derivation, arith, bound=8).overall == Verified(8)
    assert len(visits) == 4710


def test_the_checker_calls_the_oracle_through_module_attributes(
        arith, dbl_derivation, monkeypatch):
    """perfbench/tracer.py counts these calls by replacing the module
    attributes; a check that reached the functions another way would make
    its per-layer counts wrong."""
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((ck, "subtype"), (ck, "well_defined"),
                         (ix, "entails")):
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    report = check(dbl_derivation, arith, bound=4)
    assert calls == {"subtype": 12, "well_defined": 8, "entails": 14}
    assert len(report.obligations) == 40


def test_every_name_the_tracer_patches_exists():
    """perfbench/tracer.py replaces these module attributes by name, so a
    rename in dlpcf would stop every traced benchmark run.  The tracer is
    read as text, not imported."""
    source = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "tracer.py").read_text()
    tables = {stmt.targets[0].id: ast.literal_eval(stmt.value)
              for stmt in ast.parse(source).body
              if isinstance(stmt, ast.Assign)
              and isinstance(stmt.targets[0], ast.Name)
              and stmt.targets[0].id in ("SPANNED", "COUNTED")}
    assert set(tables) == {"SPANNED", "COUNTED"}
    names = [entry[:2] for entry in tables["SPANNED"] + tables["COUNTED"]]
    missing = [(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(f"dlpcf.{module}"),
                              attr)]
    assert names and not missing


# ---------------------------------------------------------------------------
# A fixpoint under a nonempty context (vacuous self-use)

def delay5(arith):
    import pathlib
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    term = pcf.parse_term((fixtures / "delay5.pcf").read_text())
    return bind(load_derivation(fixtures / "delay5.deriv"), term), term


def test_vacuous_fix_under_lambda_verifies(arith):
    deriv, _ = delay5(arith)
    report = check(deriv, arith, bound=6)
    assert isinstance(report.overall, Verified)


def test_vacuous_fix_context_sum_is_tight(arith):
    deriv, _ = delay5(arith)
    r_node = deriv.premises[0].premises[0]
    # claim the outer variable budget twice what the unfoldings provide
    fat = dataclasses.replace(
        r_node, context=(M("[c < 2] Nat[5, 5]"),))
    lam = dataclasses.replace(deriv.premises[0], premises=(fat,))
    with pytest.raises(StructuralError):
        # the lambda rule now sees a mismatched passed-through entry
        check(dataclasses.replace(deriv, premises=(lam, deriv.premises[1])),
              arith, bound=4)


def test_vacuous_fix_runs_within_its_weight(arith):
    deriv, term = delay5(arith)
    r = machine.run(term)
    w = ix.eval_index(deriv.weight, {}, arith)
    assert r.value == 5 and r.steps == 4
    assert r.steps <= pcf.size(term) * (w + 1)


# ---------------------------------------------------------------------------
# Binding and files

def test_bind_attaches_subjects(dbl_term):
    import pathlib
    raw = load_derivation(
        pathlib.Path(__file__).resolve().parent.parent / "fixtures/dbl.deriv")
    assert raw.subject is None
    bound = bind(raw, dbl_term)
    assert bound.subject == dbl_term
    lam = bound.premises[0]
    assert isinstance(lam.subject, pcf.Lam)
    assert isinstance(lam.premises[0].subject, pcf.IfZ)


def test_bind_rejects_mismatched_program(omega_term):
    import pathlib
    raw = load_derivation(
        pathlib.Path(__file__).resolve().parent.parent / "fixtures/dbl.deriv")
    with pytest.raises(StructuralError):
        bind(raw, omega_term)


def test_unbound_derivation_is_structural(arith):
    raw = dataclasses.replace(leaf_n(3), subject=None)
    with pytest.raises(StructuralError):
        check(raw, arith)


def test_placeholder_resolution(dbl_derivation):
    # the scrutinee's second slot was written `_` and resolves to width 0
    scrutinee = dbl_derivation.premises[0].premises[0].premises[0]
    entry = scrutinee.context[1]
    assert entry.bound == Lit(0)
    assert alpha_eq_index(
        entry.body, B("[c < a-b] Nat[a-b-1] -o Nat[mult(2, a-b-1)]"))


def test_placeholder_in_root_is_rejected(dbl_term):
    text = '(N (phi) (context _) (weight "0") (type "Nat[0]"))'
    with pytest.raises(StructuralError):
        bind(parse_derivation(text), pcf.Const(0))


def test_parse_rejects_unknown_sections():
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (wrong "x") (weight "0") (type "Nat[0]"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (annots (mystery "x")) (weight "0") (type "Nat[0]"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(Z (weight "0") (type "Nat[0]"))')


def test_parse_rejects_duplicates_and_missing_sections():
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (weight "0") (weight "1") (type "Nat[0]"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (weight "0"))')
    with pytest.raises(ck.DerivationSyntaxError):
        parse_derivation('(N (weight "0" "1") (type "Nat[0]"))')


LEAF = '(weight "0") (type "Nat[0]")'


@pytest.mark.parametrize("text, message", [
    (f"(N x {LEAF})", "bad section 'x' in rule N"),
    (f'(N (wrong "x") {LEAF})', "unknown section 'wrong'"),
    (f'(N {LEAF} (weight "1"))', "duplicate section 'weight'"),
    (f"(N (annots x) {LEAF})", "bad annotation 'x'"),
    (f'(N (annots (mystery "x")) {LEAF})', "unknown annotation key 'mystery'"),
    (f'(N (annots (callcap "1") (callcap "2")) {LEAF})',
     "duplicate annotation 'callcap'"),
    # each annotation is read before the next one's key is checked
    (f'(N (annots (recvar "x") (mystery)) {LEAF})',
     "recvar must be a bare index variable name, got 'x'"),
])
def test_parse_names_each_bad_keyed_form(text, message):
    with pytest.raises(ck.DerivationSyntaxError) as err:
        parse_derivation(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ('(N ("weight" "0") (type "Nat[0]"))',
     "bad section ['weight', '0'] in rule N"),
    ('("N" (weight "0") (type "Nat[0]"))',
     "expected a rule form, got ['N', ['weight', '0'], ['type', 'Nat[0]']]"),
    # not "duplicate section 'weight'": the quoted one is no section
    ('(N ("weight" "0") (weight "0") (type "Nat[0]"))',
     "bad section ['weight', '0'] in rule N"),
    # read as a type, which it is not
    (f'(N (context "_") {LEAF})', "unexpected token '_' in type"),
    (f'(A (annots (ctxjoin ("slot" a "Nat[0]"))) {LEAF})',
     "ctxjoin entries look like (slot param \"mu\"): "
     "['slot', 'a', 'Nat[0]']"),
], ids=["section", "rule", "section-twice", "hole", "slot"])
def test_a_quoted_string_is_no_bare_head(text, message, tmp_path):
    """A rule, a section or annotation key, `slot` and the hole `_` are
    bare words; the same word quoted is rejected, by the reader and by
    `dlpcf check` with exit code 3."""
    with pytest.raises(ValueError) as err:
        parse_derivation(text)
    assert str(err.value) == message
    path = tmp_path / "quoted.deriv"
    path.write_text(text)
    result = CliRunner().invoke(main, [
        "check", str(path), str(FIXTURES / "dbl.pcf"),
        "--eqprog", str(FIXTURES / "arith.eqs")])
    assert result.exit_code == 3
    assert result.output == f"error: {message}\n"


def test_unknown_symbol_is_structural(arith):
    d = leaf_n(3, type_text="Nat[zap(3), 3]")
    with pytest.raises(StructuralError):
        check(d, arith)


def zapped_type(t):
    """`t` with its first application of mult made one of zap."""
    text = show_index(t).replace("mult", "zap", 1)
    return M(text) if isinstance(t, ModalType) else B(text)


def zapped_index(t):
    return App("zap", (t,))


def at_path(d, path, change):
    """`d` with the node at `path` replaced by `change` of it."""
    if not path:
        return change(d)
    i, *rest = path
    premises = list(d.premises)
    premises[i] = at_path(premises[i], rest, change)
    return dataclasses.replace(d, premises=tuple(premises))


def zapped_annots(**changes):
    return lambda d: dataclasses.replace(
        d, annots=dataclasses.replace(d.annots, **{
            key: change(getattr(d.annots, key))
            for key, change in changes.items()}))


def zapped_witness(i, **changes):
    def change(witnesses):
        out = list(witnesses)
        out[i] = out[i]._replace(**{
            key: f(getattr(out[i], key)) for key, f in changes.items()})
        return tuple(out)
    return change


APP_NODE = (0, 0, 2, 0, 0)     # the application f (p x) in dbl.deriv


# Each node is checked before its premises and no rule reads a premise's
# annotations, so a zap at the root, or in the annotations of a premise, is
# found by the symbol check of that node.  The root of dbl.deriv has no
# constraint and no context entry, so those two cases add one.
@pytest.mark.parametrize("path, change", [
    ((), lambda d: dataclasses.replace(d, weight=zapped_index(d.weight))),
    ((), lambda d: dataclasses.replace(d, ctx=cs("a", "zap(a) <= a"))),
    ((), lambda d: dataclasses.replace(d, context=(M("[c < zap(a)] Nat[a]"),))),
    ((), lambda d: dataclasses.replace(d, type=zapped_type(d.type))),
    ((), zapped_annots(selftype=zapped_type)),
    ((), zapped_annots(bodytype=zapped_type)),
    ((), zapped_annots(resulttype=zapped_type)),
    ((), zapped_annots(unfoldbound=zapped_index)),
    ((), zapped_annots(callcap=zapped_index)),
    ((), zapped_annots(bodyweight=zapped_index)),
    (APP_NODE, zapped_annots(ctxsum=zapped_witness(1, body=zapped_type))),
    (APP_NODE, zapped_annots(ctxsum=zapped_witness(0, per=zapped_index))),
    (APP_NODE, zapped_annots(ctxjoin=zapped_witness(1, body=zapped_type))),
    ((0, 0), zapped_annots(ctxjoin=zapped_witness(1, body=zapped_type))),
], ids=["weight", "constraint", "context", "type", "selftype", "bodytype",
        "resulttype", "unfoldbound", "callcap", "bodyweight", "ctxsum-body",
        "ctxsum-width", "ctxjoin-body", "ctxjoin-body-of-ifz"])
def test_the_symbol_check_reaches_every_index_term_of_a_node(
        arith, dbl_derivation, path, change):
    mutant = at_path(dbl_derivation, path, change)
    with pytest.raises(StructuralError) as err:
        check(mutant, arith, bound=3)
    assert err.value.path == path
    assert str(err.value) == (f"{ck.path_str(path)}: "
                              f"unknown function symbol 'zap'")


# ---------------------------------------------------------------------------
# Each premise is checked against the judgement its rule requires

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_derivation(name):
    term = pcf.parse_term((FIXTURES / f"{name}.pcf").read_text())
    return bind(load_derivation(FIXTURES / f"{name}.deriv"), term)


def nodes(d, path=()):
    yield path, d
    for i, premise in enumerate(d.premises):
        yield from nodes(premise, path + (i,))


def width_mutants():
    """(fixture, premise path, its context width, change of width): one
    slot more and, where there is one, one slot less at every premise of
    the fixtures' L, S, P, A, F and R nodes."""
    for name in ("dbl", "delay5"):
        for path, node in nodes(load_derivation(FIXTURES / f"{name}.deriv")):
            for i, premise in enumerate(node.premises):
                width = len(premise.context)
                for by in (1, -1)[:1 + bool(width)]:
                    yield pytest.param(
                        name, path + (i,), width, by,
                        id=f"{name}-{ck.path_str(path + (i,))}{by:+d}")


@pytest.mark.parametrize("name, path, width, by", width_mutants())
def test_a_premise_of_another_context_width_is_structural(
        arith, name, path, width, by):
    def change(d):
        context = (d.context + (M("[z < 1] Nat[0]"),) if by > 0
                   else d.context[:-1])
        return dataclasses.replace(d, context=context)

    wording = f": expected {width} context slots, got {width + by}$"
    with pytest.raises(StructuralError, match=wording) as err:
        check(at_path(fixture_derivation(name), path, change), arith, bound=1)
    assert err.value.path == path


F_NODE = (0, 0)     # the ifz under the lambda of dbl.deriv


@pytest.mark.parametrize("change, message", [
    (lambda d: dataclasses.replace(d, ctx=cs("a b", "b < a")),
     "lambda premise constraint context: expected [vars a, b | b < a + 1], "
     "got [vars a, b | b < a]"),
    (lambda d: dataclasses.replace(
        d, context=d.context + (M("[z < 1] Nat[0]"),)),
     "lambda premise: expected 2 context slots, got 3"),
    (lambda d: dataclasses.replace(
        d, context=(M("[c < a-b] Nat[a-b]"),) + d.context[1:]),
     "lambda premise slot 0: expected [c < a - b + 1] Nat[a - b], "
     "got [c < a - b] Nat[a - b]"),
    (lambda d: dataclasses.replace(d, weight=parse_index("a")),
     "lambda premise weight: expected a - b, got a"),
    (lambda d: dataclasses.replace(d, type=B("Nat[a]")),
     "lambda premise type: expected Nat[mult(2, a - b)], got Nat[a]"),
], ids=["constraint-context", "width", "slot", "weight", "type"])
def test_a_premise_mismatch_names_the_premise_and_both_sides(
        arith, dbl_derivation, change, message):
    with pytest.raises(StructuralError) as err:
        check(at_path(dbl_derivation, F_NODE, change), arith, bound=3)
    assert err.value.path == F_NODE
    assert str(err.value) == f"root.0.0: {message}"


# rule -> the annotations it reads; the other rules read none
TAKES = {"A": {"ctxsum", "ctxjoin"}, "F": {"ctxjoin"},
         "R": {"recvar", "selftype", "bodytype", "resulttype", "unfoldbound",
               "callcap", "bodyweight", "ctxsum"}}


def test_a_rule_rejects_an_annotation_it_does_not_read(arith):
    d = bind(parse_derivation('(N (weight "0") (type "Nat[7]") '
                              '(annots (ctxsum)))'), pcf.Const(7))
    with pytest.raises(StructuralError) as err:
        check(d, arith)
    assert str(err.value) == ("root: rule N does not take the 'ctxsum' "
                              "annotation")


@pytest.mark.parametrize("name", ["dbl", "delay5"])
def test_every_annotation_outside_a_rule_is_rejected(arith, name):
    deriv = fixture_derivation(name)
    # one value of each annotation, from the R and F nodes of dbl.deriv
    dbl = fixture_derivation("dbl")
    values = {**vars(dbl.annots),
              "ctxjoin": dbl.premises[0].premises[0].annots.ctxjoin}
    assert None not in values.values()
    for path, node in nodes(deriv):
        present = {k for k, v in vars(node.annots).items() if v is not None}
        assert present == TAKES.get(node.rule, set())
        for key in sorted(set(values) - TAKES.get(node.rule, set())):
            mutant = at_path(deriv, path, lambda d: dataclasses.replace(
                d, annots=dataclasses.replace(d.annots, **{key: values[key]})))
            with pytest.raises(StructuralError) as err:
                check(mutant, arith, bound=1)
            assert err.value.path == path
            assert str(err.value) == (f"{ck.path_str(path)}: rule {node.rule} "
                                      f"does not take the {key!r} annotation")


def test_scope_violation_is_structural(arith):
    d = leaf_n(3, weight="q", type_text="Nat[3, 3]")
    with pytest.raises(StructuralError):
        check(d, arith)


def test_precise_mode_rejects_slack(arith):
    slack = dataclasses.replace(small_app_derivation(), weight=Lit(5))
    assert isinstance(check(slack, arith, bound=6).overall, Verified)
    assert isinstance(check(slack, arith, bound=6, precise=True).overall,
                      Refuted)


@pytest.mark.parametrize("text", [
    '(N (phi 3) (weight "0") (type "Nat[0]"))',
    '(N (phi a sum) (weight "0") (type "Nat[0]"))',
    '(R (annots (recvar 1b)) (weight "0") (type "Nat[0]"))',
    '(A (annots (ctxjoin (slot 7 "Nat[0]"))) (weight "0") (type "Nat[0]"))',
    '(A (annots (ctxsum (slot - "Nat[0]" "1"))) (weight "0") (type "Nat[0]"))',
])
def test_declared_index_variables_must_be_names(text):
    with pytest.raises(ck.DerivationSyntaxError,
                       match="must be a bare index variable name"):
        parse_derivation(text)


def test_check_frees_its_oracle_without_the_cycle_collector(
        arith, dbl_derivation, monkeypatch):
    made = []

    def recording_oracle(*args):
        oracle = Oracle(*args)
        made.append(weakref.ref(oracle))
        return oracle

    monkeypatch.setattr(ck, "Oracle", recording_oracle)
    gc.disable()
    try:
        check(dbl_derivation, arith, bound=4)
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()
