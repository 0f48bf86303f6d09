import io
import pathlib

import pytest
from click.testing import CliRunner

from dlpcf.cli import eval_report, main
from dlpcf.fuel import FuelExhausted

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DBL = str(FIXTURES / "dbl.pcf")
OMEGA = str(FIXTURES / "omega.pcf")
DERIV = str(FIXTURES / "dbl.deriv")
EQS = str(FIXTURES / "arith.eqs")


@pytest.fixture()
def runner():
    return CliRunner()


def test_eval_dbl_applied_to_3(runner):
    result = runner.invoke(main, ["eval", DBL, "--arg", "3"])
    assert result.exit_code == 0, result.output
    assert "value 6" in result.output


def test_eval_constant_program(runner, tmp_path):
    path = tmp_path / "five.pcf"
    path.write_text("5\n")
    result = runner.invoke(main, ["eval", str(path), "--format", "tsv"])
    assert result.exit_code == 0
    fields = result.output.strip().split("\t")
    assert fields[1:4] == ["5", "0", "1"]


def test_eval_omega_exhausts_fuel(runner):
    result = runner.invoke(main, ["eval", OMEGA, "--arg", "1",
                                  "--fuel", "20000"])
    assert result.exit_code == 1
    assert "fuel" in result.output


def test_eval_report_does_not_depend_on_earlier_runs():
    # each run of the machine and the reducer makes its own numerals, so
    # a diverging run and a larger one leave nothing behind for the next
    def report():
        trace = io.StringIO()
        return eval_report(DBL, 10**6, (7,), trace=trace), trace.getvalue()

    fresh = report()
    with pytest.raises(FuelExhausted):
        eval_report(OMEGA, 20_000, (1,))
    after_omega = report()
    assert eval_report(DBL, 10**6, (200,)).value == 400
    after_dbl = report()
    assert fresh == after_omega == after_dbl
    first = fresh[0]
    assert (first.value, first.steps, first.max_config_size) == (14, 167, 33)


def test_eval_rejects_open_or_arrow_programs(runner, tmp_path):
    result = runner.invoke(main, ["eval", DBL])
    assert result.exit_code == 3
    open_prog = tmp_path / "open.pcf"
    open_prog.write_text("s x\n")
    result = runner.invoke(main, ["eval", str(open_prog)])
    assert result.exit_code == 3
    assert "unbound identifier" in result.output


@pytest.mark.parametrize("source, fields", [
    ("s(" * 3000 + "0" + ")" * 3000, "3000\t6000\t6001\t6001"),
    ("(" * 1200 + "0" + ")" * 1200, "0\t0\t1\t1"),
], ids=["successors", "parentheses"])
def test_eval_deeply_nested_program(runner, tmp_path, source, fields):
    path = tmp_path / "deep.pcf"
    path.write_text(source + "\n")
    result = runner.invoke(main, ["eval", str(path), "--format", "tsv"])
    assert result.exit_code == 0, result.output
    assert result.output == f"{path}\t{fields}\n"


def test_eval_deeply_nested_annotation_exits_three(runner, tmp_path):
    # type annotations are still parsed by recursive descent
    path = tmp_path / "deep.pcf"
    path.write_text(r"(\x: " + "(" * 1200 + "Nat" + ")" * 1200 + ". x) 0\n")
    result = runner.invoke(main, ["eval", str(path)])
    assert result.exit_code == 3
    assert result.stderr == "error: input nested too deeply\n"


def test_check_deeply_nested_equation_exits_three(runner, tmp_path):
    eqs = tmp_path / "deep.eqs"
    eqs.write_text(pathlib.Path(EQS).read_text()
                   + "deep(a) = " + "(" * 1200 + "a" + ")" * 1200 + "\n")
    result = runner.invoke(main, ["check", DERIV, DBL, "--eqprog", str(eqs)])
    assert result.exit_code == 3
    assert result.stderr == "error: input nested too deeply\n"


def test_check_long_flat_equation(runner, tmp_path):
    # a flat right side 3,000 terms long is no deeper than the evaluator's
    # frame stack allows
    eqs = tmp_path / "long.eqs"
    eqs.write_text(pathlib.Path(EQS).read_text()
                   + "long(a) = a" + " + 1" * 3000 + "\n")
    result = runner.invoke(main, ["check", DERIV, DBL, "--eqprog", str(eqs)])
    assert result.exit_code == 0, result.output


def test_eval_unapplied_lambda_chain_names_its_type(runner, tmp_path):
    path = tmp_path / "lambdas.pcf"
    path.write_text(r"\x: Nat. " * 3000 + "x\n")
    result = runner.invoke(main, ["eval", str(path)])
    assert result.exit_code == 3
    assert result.stderr == ("error: programs must have type Nat, got "
                             + " -> ".join(["Nat"] * 3001) + "\n")


def test_eval_trace_file(runner, tmp_path):
    trace = tmp_path / "trace.txt"
    result = runner.invoke(main, ["eval", DBL, "--arg", "1",
                                  "--trace", str(trace)])
    assert result.exit_code == 0
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == 20
    assert lines[0].split("\t")[1] == "app"


def test_check_golden_exit_zero(runner):
    result = runner.invoke(main, ["check", DERIV, DBL, "--eqprog", EQS,
                                  "--bound", "6"])
    assert result.exit_code == 0, result.output
    assert "verified up to bound 6" in result.output


def test_check_uses_env_var_for_eqprog(runner, monkeypatch):
    monkeypatch.setenv("DLPCF_EQPROG", EQS)
    result = runner.invoke(main, ["check", DERIV, DBL, "--bound", "4"])
    assert result.exit_code == 0, result.output


def test_check_tsv_is_line_oriented(runner):
    result = runner.invoke(main, ["check", DERIV, DBL, "--eqprog", EQS,
                                  "--bound", "4", "--format", "tsv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert all("\t" in line for line in lines)
    assert lines[-1].startswith("overall\t")


def test_check_mutated_weight_exits_one_with_witness(runner, tmp_path):
    mutated = tmp_path / "mutated.deriv"
    text = pathlib.Path(DERIV).read_text()
    mutated.write_text(text.replace("a + sum(b < a+1, a - b)", "a"))
    result = runner.invoke(main, ["check", str(mutated), DBL,
                                  "--eqprog", EQS, "--bound", "4"])
    assert result.exit_code == 1
    assert "refuted at {a=" in result.output


def test_check_unknown_symbol_exits_three(runner, tmp_path):
    mutated = tmp_path / "unknown.deriv"
    text = pathlib.Path(DERIV).read_text()
    mutated.write_text(text.replace("gt(a, b)", "zap(a, b)"))
    result = runner.invoke(main, ["check", str(mutated), DBL,
                                  "--eqprog", EQS, "--bound", "4"])
    assert result.exit_code == 3
    assert "structural error" in result.output


def test_check_unparsable_derivation_exits_three(runner, tmp_path):
    bad = tmp_path / "bad.deriv"
    bad.write_text("(N (weight")
    result = runner.invoke(main, ["check", str(bad), DBL, "--eqprog", EQS])
    assert result.exit_code == 3


def test_check_fuel_starved_oracle_exits_two(runner, tmp_path):
    eqs = tmp_path / "loop.eqs"
    eqs.write_text("loop(a) = loop(a + 1)\n")
    prog = tmp_path / "five.pcf"
    prog.write_text("5\n")
    deriv = tmp_path / "five.deriv"
    deriv.write_text('(N (weight "loop(0)") (type "Nat[5, 5]"))')
    result = runner.invoke(main, ["check", str(deriv), str(prog),
                                  "--eqprog", str(eqs), "--fuel", "2000"])
    assert result.exit_code == 2
    assert "unknown" in result.output


def test_soundness_all_rows_pass(runner):
    args = ["soundness", DERIV, DBL, "--eqprog", EQS, "--bound", "6"]
    for n in range(9):
        args += ["-n", str(n)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    rows = [line for line in result.output.splitlines() if "a:=" in line]
    assert len(rows) == 9
    assert all("pass" in row and "FAIL" not in row for row in rows)


def test_soundness_evaluates_deeply_rewriting_root_bounds(runner):
    # the weight at a=400 rewrites add and mult thousands of calls deep, so
    # it ran out of interpreter stack before the evaluator had a frame stack
    result = runner.invoke(main, ["soundness", DERIV, DBL, "--eqprog", EQS,
                                  "-n", "400", "--format", "tsv"])
    assert result.exit_code == 0, result.output
    row, = [line for line in result.output.splitlines() if "a:=400" in line]
    assert row.split("\t")[1:3] == ["800", "245006"]


def test_soundness_constant_derivation(runner, tmp_path):
    prog = tmp_path / "five.pcf"
    prog.write_text("5\n")
    deriv = tmp_path / "five.deriv"
    deriv.write_text('(N (weight "0") (type "Nat[5, 5]"))')
    result = runner.invoke(main, ["soundness", str(deriv), str(prog),
                                  "--eqprog", EQS])
    assert result.exit_code == 0, result.output
    assert "0 <= 1" in result.output.replace("  ", " ")


def test_soundness_inflated_upper_interval_still_passes(runner, tmp_path):
    # upper bounds are bounds, not exact values
    prog = tmp_path / "five.pcf"
    prog.write_text("5\n")
    deriv = tmp_path / "five.deriv"
    deriv.write_text('(N (weight "3") (type "Nat[2, 9]"))')
    result = runner.invoke(main, ["soundness", str(deriv), str(prog),
                                  "--eqprog", EQS])
    assert result.exit_code == 0, result.output


def test_soundness_arrow_root_needs_instantiations(runner):
    result = runner.invoke(main, ["soundness", DERIV, DBL,
                                  "--eqprog", EQS, "--bound", "4"])
    assert result.exit_code == 3
    assert "instantiation" in result.output


def test_soundness_gates_on_verification(runner, tmp_path):
    deriv = tmp_path / "wrong.deriv"
    deriv.write_text('(N (weight "0") (type "Nat[4, 4]"))')
    prog = tmp_path / "five.pcf"
    prog.write_text("5\n")
    result = runner.invoke(main, ["soundness", str(deriv), str(prog),
                                  "--eqprog", EQS])
    assert result.exit_code == 1
    assert "refuted" in result.output
