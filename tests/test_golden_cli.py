"""The CLI's exact output, pinned: exit code, stdout and stderr of each
command on the fixtures and on malformed inputs, compared byte for byte
with the files under tests/golden/.

To regenerate the files after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import os
import pathlib
import sys
import tempfile

import pytest
from click.testing import CliRunner

from dlpcf.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DBL_DERIV = (ROOT / "fixtures" / "dbl.deriv").read_text()

CHECK_DBL = ["check", "fixtures/dbl.deriv", "fixtures/dbl.pcf",
             "--eqprog", "fixtures/arith.eqs", "--bound", "3"]
SOUND_DBL = ["soundness", "fixtures/dbl.deriv", "fixtures/dbl.pcf",
             "--eqprog", "fixtures/arith.eqs", "--bound", "3"]
ALL_N = [arg for n in range(9) for arg in ("-n", str(n))]


def dbl_mutant(old, new, text=DBL_DERIV):
    assert old in text, old
    return text.replace(old, new)


# the type line of dbl.deriv's successor branch, and its premises' opening
SUCC_BRANCH_TYPE = ('              (type "Nat[mult(2, a-b)]")\n'
                    '              (premises')


def check_tmp(deriv_text, program_source=None):
    """`check` of a derivation written to a temporary file, against dbl or
    against a program whose source is written there too."""
    files = {"case.deriv": deriv_text}
    program = "fixtures/dbl.pcf"
    if program_source is not None:
        files["case.pcf"] = program_source
        program = "{tmp}/case.pcf"
    return (["check", "{tmp}/case.deriv", program, "--eqprog",
             "fixtures/arith.eqs", "--bound", "3"], files)


def constraint_case(text):
    return check_tmp(f'(N (phi c) (constraints "{text}") (weight "0") '
                     f'(type "Nat[0]"))', "0\n")


CASES = {
    "check_dbl_human": (CHECK_DBL, {}),
    "check_dbl_tsv": (CHECK_DBL + ["--format", "tsv"], {}),
    "check_dbl_precise": (CHECK_DBL + ["--precise"], {}),
    # subtyping's "==" relation in the tsv layout
    "check_dbl_precise_tsv": (CHECK_DBL + ["--precise", "--format", "tsv"],
                              {}),
    # no --bound: the CLI default, 8
    "check_dbl_default_bound": (CHECK_DBL[:-2], {}),
    "check_negative_bound": (CHECK_DBL[:-1] + ["-1"], {}),
    "check_zero_fuel": (CHECK_DBL + ["--fuel", "0"], {}),
    # too little fuel for the root's goals: an Unknown report with its
    # witness, exit 2
    "check_dbl_fuel_starved": (CHECK_DBL + ["--fuel", "30"], {}),
    "check_delay5": (["check", "fixtures/delay5.deriv", "fixtures/delay5.pcf",
                      "--eqprog", "fixtures/arith.eqs", "--bound", "6"], {}),
    "soundness_dbl": (SOUND_DBL + ALL_N, {}),
    "soundness_dbl_tsv": (SOUND_DBL + ALL_N + ["--format", "tsv"], {}),
    "soundness_dbl_no_n": (SOUND_DBL, {}),
    "eval_dbl_7": (["eval", "fixtures/dbl.pcf", "--arg", "7"], {}),
    "eval_dbl_7_tsv": (["eval", "fixtures/dbl.pcf", "--arg", "7",
                        "--format", "tsv"], {}),
    "eval_omega_fuel": (["eval", "fixtures/omega.pcf", "--arg", "1",
                         "--fuel", "2000"], {}),
    "eval_arrow_program": (["eval", "fixtures/dbl.pcf"], {}),
    "missing_annotation": check_tmp(
        dbl_mutant('    (callcap "a + 1")\n', "")),
    "unknown_symbol": check_tmp(dbl_mutant("gt(a, b)", "zap(a, b)")),
    "weight_out_of_scope": check_tmp(
        dbl_mutant('(weight "a + sum(b < a+1, a - b)")', '(weight "a + q")')),
    "arrow_for_nat": check_tmp(
        '(L (weight "0") (type "[a < 1] ([c < 1] Nat[0] -o Nat[0]) -o Nat[0]")'
        ' (premises (V (context "[a < 1] ([c < 1] Nat[0] -o Nat[0])")'
        ' (weight "0") (type "Nat[0]"))))',
        "\\x: Nat -> Nat. x\n"),
    "bad_witness": check_tmp(
        dbl_mutant('(slot w "Nat[a-b]" "1")',
                   '(slot w "[c < 1] Nat[0] -o Nat[0]" "1")')),
    "type_bad_character": check_tmp(
        dbl_mutant('(type "Nat[mult(2, a-b)]")', '(type "Nat[a $ b]")')),
    "type_trailing_tokens": check_tmp(
        dbl_mutant('(type "Nat[mult(2, a-b)]")',
                   '(type "Nat[mult(2, a-b)] Nat[0]")')),
    "scrutinee_out_of_scope": check_tmp(
        dbl_mutant('(type "Nat[a-b]"))\n            ; zero branch',
                   '(type "Nat[q]"))\n            ; zero branch')),
    "selftype_out_of_scope": check_tmp(
        dbl_mutant('(selftype "[v < gt(a, b)]', '(selftype "[v < gt(a, q)]',
                   dbl_mutant('(context "[v < gt(a, b)]',
                              '(context "[v < gt(a, q)]'))),
    # The recursive call's type substitutes into a bound beside a binder
    # named like a free variable of the replacement.
    "modal_binder_capture": check_tmp(
        dbl_mutant('"[c < a-b+1] Nat[a-b] -o Nat[mult(2, a-b)]"',
                   '"[v < a-b+1] Nat[0] -o Nat[mult(2, a-b)]"',
                   dbl_mutant('"[c < a-b+1] Nat[a-b]"',
                              '"[v < a-b+1] Nat[0]"'))),
    # The successor branch of the ifz weighs other than the zero branch.
    "premise_mismatch": check_tmp(
        dbl_mutant('(weight "a - b")\n' + SUCC_BRANCH_TYPE,
                   '(weight "a")\n' + SUCC_BRANCH_TYPE)),
    # A binder that is not a name: no index term could mention it.
    "binder_not_a_name": check_tmp(
        dbl_mutant('(weight "a + sum(b < a+1, a - b)")',
                   '(weight "a + sum(3 < a+1, a - 3)")')),
    # Usage errors are input errors: exit 3, with click's message.
    "check_missing_file": (["check", "missing.deriv", "fixtures/dbl.pcf",
                            "--eqprog", "fixtures/arith.eqs"], {}),
    "eval_arg_not_integer": (["eval", "fixtures/dbl.pcf", "--arg", "seven"],
                             {}),
    "constraint_no_relation": constraint_case("c"),
    "constraint_greater": constraint_case("c > 1"),
    "constraint_two_relations": constraint_case("c < 1 < 2"),
}


def run_case(name, tmp):
    """The case's command line, exit code, stdout and stderr as one text,
    with the temporary directory written as {tmp}."""
    args, files = CASES[name]
    for fname, text in files.items():
        (tmp / fname).write_text(text)
    argv = [a.replace("{tmp}", str(tmp)) for a in args]
    result = CliRunner().invoke(main, argv)
    record = (f"$ dlpcf {' '.join(args)}\nexit {result.exit_code}\n"
              f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}")
    return record.replace(str(tmp), "{tmp}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name, tmp_path) == want


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            text = run_case(case, pathlib.Path(d))
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {case}")
