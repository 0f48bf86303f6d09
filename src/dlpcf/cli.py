"""Command-line entry points: evaluate programs, check derivations, and run
the soundness harness.

Exit codes for `check` and `soundness`: 0 verified / all rows pass,
1 refuted / a row fails, 2 unknown (bounded oracle ran out of fuel),
3 structural or input error, a usage error included.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

import click

from . import checker as ck
from . import index as ix
from . import machine
from . import pcf
from .fuel import DEFAULT_BOUND, DEFAULT_FUEL, FuelExhausted
from .index import (EquationError, IndexUndefined, LinArrow, NatI, Refuted,
                    Unknown, Verified, eval_index, show_index)

__all__ = ["main", "RunReport", "SoundnessRow", "eval_report",
           "check_program", "soundness_rows", "SoundnessError"]


class RunReport(NamedTuple):
    program: str
    value: int
    steps: int
    size: int
    max_config_size: int


class SoundnessRow(NamedTuple):
    """A machine run of an instance of the root judgement, as a `RunReport`
    has it, with the bounds the derivation promises for it."""
    program: str
    value: int
    steps: int
    size: int
    max_config_size: int
    derivation: str
    weight_value: int
    step_bound: int
    bound_ok: bool
    value_lo: int
    value_hi: int
    interval_ok: bool


class SoundnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Pure command cores (importable without click)

def load_program(path: str) -> pcf.Term:
    with open(path, "r", encoding="utf-8") as fh:
        return pcf.parse_term(fh.read())


def eval_report(path: str, fuel: int, args: tuple[int, ...] = (),
                trace=None, debug: bool = False) -> RunReport:
    """Run both the machine and the reducer on the program (applied to the
    given numerals) and insist they agree."""
    term = load_program(path)
    for n in args:
        term = pcf.App(term, pcf.Const(n))
    ty = pcf.pcf_typecheck((), term)
    if ty != pcf.NAT:
        raise pcf.PcfTypeError(
            f"programs must have type Nat, got {pcf.show_pcf_type(ty)}")
    result = machine.run(term, fuel, trace=trace, debug=debug)
    value, _ = pcf.wh_eval(term, fuel)
    if value != result.value:
        raise AssertionError(
            f"machine produced {result.value}, reducer {value}")
    return RunReport(path, result.value, result.steps, pcf.size(term),
                     result.max_config_size)


def check_program(deriv_path: str, program_path: str, eqprog_path: str,
                  bound: int, fuel: int, precise: bool) -> ck.CheckReport:
    program = ix.load_equations(eqprog_path)
    term = load_program(program_path)
    deriv = ck.bind(ck.load_derivation(deriv_path), term)
    return ck.check(deriv, program, bound, fuel, precise)


def soundness_rows(deriv: ck.Derivation, term: pcf.Term,
                   program: ix.EquationalProgram,
                   instantiations: tuple[int, ...], fuel: int,
                   program_path: str = "<program>",
                   deriv_path: str = "<derivation>") -> list[SoundnessRow]:
    """Instantiate the root judgement and compare its bounds with a real
    machine run: steps <= size * (weight + 1), and the value inside the
    declared interval."""
    weight, ty = deriv.weight, deriv.type
    table: dict = {}    # shared by the rows: it changes no value and no fuel

    def row(term_n, rho, lo, hi, label):
        size_n = pcf.size(term_n)
        try:
            w_v, lo_v, hi_v = [eval_index(t, rho, program, fuel, table)
                               for t in (weight, lo, hi)]
        except (IndexUndefined, FuelExhausted) as e:
            raise SoundnessError(f"{label}: cannot evaluate the root bounds: {e}")
        try:
            result = machine.run(term_n, fuel)
        except FuelExhausted as e:
            raise SoundnessError(f"{label}: cannot run the machine: {e}")
        step_bound = size_n * (w_v + 1)
        return SoundnessRow(
            program=label, value=result.value, steps=result.steps,
            size=size_n, max_config_size=result.max_config_size,
            derivation=deriv_path, weight_value=w_v, step_bound=step_bound,
            bound_ok=result.steps <= step_bound, value_lo=lo_v, value_hi=hi_v,
            interval_ok=lo_v <= result.value <= hi_v)

    if isinstance(ty, NatI):
        return [row(term, {}, ty.lo, ty.hi, program_path)]
    if not isinstance(ty, LinArrow) or not isinstance(ty.cod, NatI):
        raise SoundnessError(
            "the root type must be Nat[I,J] or a first-order arrow into it, "
            f"got {show_index(ty)}")
    dom = ty.dom
    if not isinstance(dom.body, NatI):
        raise SoundnessError("the arrow argument must be a Nat interval")
    lo, hi = dom.body.lo, dom.body.hi
    if not (isinstance(lo, ix.Var) and lo == hi):
        raise SoundnessError(
            "the arrow argument must be Nat[x] for an index variable x")
    var = lo.name
    if deriv.ctx.variables != (var,) or deriv.ctx.constraints:
        raise SoundnessError(
            f"the root judgement must quantify exactly over {var!r}")
    if not instantiations:
        raise SoundnessError("an arrow-typed root needs at least one -n "
                             "instantiation")
    return [row(pcf.App(term, pcf.Const(n)), {var: n}, ty.cod.lo, ty.cod.hi,
                f"{program_path} {var}:={n}") for n in instantiations]


# ---------------------------------------------------------------------------
# Rendering

def _verdict_str(v) -> str:
    match v:
        case Verified(bound):
            return f"verified up to bound {bound}"
        case Refuted(witness):
            inside = ", ".join(f"{k}={n}" for k, n in witness)
            return f"refuted at {{{inside}}}"
        case Unknown(reason, witness):
            at = ""
            if witness:
                at = " at {" + ", ".join(f"{k}={n}" for k, n in witness) + "}"
            return f"unknown ({reason}{at})"
    return str(v)


def _verdict_code(v) -> int:
    match v:
        case Verified():
            return 0
        case Refuted():
            return 1
    return 2


def render_check_report(report: ck.CheckReport, fmt: str) -> str:
    lines = []
    if fmt == "tsv":
        for ob in report.obligations:
            lines.append("\t".join((ck.path_str(ob.path), ob.kind,
                                    _verdict_str(ob.verdict),
                                    " ".join(map(show_index, ob.parts)))))
        lines.append("\t".join(("overall", _verdict_str(report.overall),
                                f"bound={report.bound}", f"fuel={report.fuel}")))
        return "\n".join(lines)
    width = max((len(ck.path_str(ob.path)) for ob in report.obligations),
                default=4)
    for ob in report.obligations:
        mark = {0: "ok", 1: "XX", 2: "??"}[_verdict_code(ob.verdict)]
        lines.append(f"{mark}  {ck.path_str(ob.path):<{width}}  "
                     f"{ob.kind:<16}  {' '.join(map(show_index, ob.parts))}")
        if _verdict_code(ob.verdict) != 0:
            lines.append(f"      -> {_verdict_str(ob.verdict)}")
    lines.append(f"overall: {_verdict_str(report.overall)} "
                 f"(bound {report.bound}, fuel {report.fuel})")
    return "\n".join(lines)


def render_rows(rows: list[SoundnessRow], fmt: str) -> str:
    if fmt == "tsv":
        out = []
        for r in rows:
            out.append("\t".join(str(x) for x in (
                r.program, r.value, r.steps, r.size, r.weight_value,
                r.step_bound, _pf(r.bound_ok), r.value_lo, r.value_hi,
                _pf(r.interval_ok))))
        return "\n".join(out)
    header = (f"{'program':<24} {'value':>5} {'steps':>6} {'size':>4} "
              f"{'weight':>7} {'steps<=size*(w+1)':>18} {'interval':>12}")
    out = [header]
    for r in rows:
        bound_part = f"{r.steps} <= {r.step_bound}: {_pf(r.bound_ok)}"
        iv = f"[{r.value_lo},{r.value_hi}]: {_pf(r.interval_ok)}"
        out.append(f"{r.program:<24} {r.value:>5} {r.steps:>6} {r.size:>4} "
                   f"{r.weight_value!s:>7} {bound_part:>18} {iv:>12}")
    return "\n".join(out)


def _pf(flag: bool) -> str:
    return "pass" if flag else "FAIL"


# ---------------------------------------------------------------------------
# Click wiring

# The syntax errors of every input format are ValueErrors.
_INPUT_ERRORS = (ValueError, OSError, EquationError, pcf.PcfTypeError,
                 SoundnessError, FuelExhausted)


@contextmanager
def _exit_on_input_error():
    """Exit 3 with a one-line message on a structural or input error."""
    try:
        yield
    except ck.StructuralError as e:
        message = f"structural error: {e}"
    except RecursionError:
        message = "error: input nested too deeply"
    except _INPUT_ERRORS as e:
        message = f"error: {e}"
    else:
        return
    click.echo(message, err=True)
    sys.exit(3)


class _Main(click.Group):
    """Click's group, except that a usage error (a missing file, a value of
    the wrong type, an unknown choice, a missing option) exits 3 like every
    other input error, and not 2, which means Unknown here."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as e:
            e.show()
            sys.exit(3)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)


_input_file = click.Path(exists=True, dir_okay=False)
_fuel_option = click.option("--fuel", default=DEFAULT_FUEL, show_default=True)
_format_option = click.option("--format", "fmt",
                              type=click.Choice(["human", "tsv"]),
                              default="human", show_default=True)
_eqprog_option = click.option(
    "--eqprog", envvar="DLPCF_EQPROG", required=True, type=_input_file,
    help="Equational program (.eqs); DLPCF_EQPROG is the default.")


@click.group(cls=_Main)
def main() -> None:
    """Toolchain for cost-annotated PCF: run programs on the counting
    machine, check weighted derivations, confirm the soundness bounds."""


@main.command("eval")
@click.argument("program", type=_input_file)
@_fuel_option
@click.option("--arg", "args", multiple=True, type=int,
              help="Apply the program to this numeral (repeatable).")
@click.option("--trace", type=click.Path(dir_okay=False), default=None,
              help="Write one line per machine step to this path.")
@click.option("--debug", is_flag=True,
              help="Assert the environment-size invariant at every step.")
@_format_option
def eval_cmd(program, fuel, args, trace, debug, fmt) -> None:
    """Run a program on both the machine and the reducer."""
    with _exit_on_input_error():
        try:
            with (open(trace, "w", encoding="utf-8") if trace is not None
                  else nullcontext()) as fh:
                report = eval_report(program, fuel, tuple(args), trace=fh,
                                     debug=debug)
        except FuelExhausted as e:
            click.echo(f"fuel exhausted: {e}", err=True)
            sys.exit(1)
    if fmt == "tsv":
        click.echo("\t".join(str(x) for x in (
            report.program, report.value, report.steps, report.size,
            report.max_config_size)))
    else:
        click.echo(f"value {report.value} in {report.steps} steps "
                   f"(program size {report.size}, peak configuration size "
                   f"{report.max_config_size})")


@main.command("check")
@click.argument("derivation", type=_input_file)
@click.argument("program", type=_input_file)
@_eqprog_option
@click.option("--bound", default=DEFAULT_BOUND, show_default=True)
@_fuel_option
@click.option("--precise", is_flag=True,
              help="Require every inequality premise to hold as an equality.")
@_format_option
def check_cmd(derivation, program, eqprog, bound, fuel, precise, fmt) -> None:
    """Check a derivation file against a program."""
    with _exit_on_input_error():
        report = check_program(derivation, program, eqprog, bound, fuel,
                               precise)
    click.echo(render_check_report(report, fmt))
    sys.exit(_verdict_code(report.overall))


@main.command("soundness")
@click.argument("derivation", type=_input_file)
@click.argument("program", type=_input_file)
@_eqprog_option
@click.option("--bound", default=DEFAULT_BOUND, show_default=True,
              help="Bound for the derivation check that gates the harness.")
@_fuel_option
@click.option("-n", "instantiations", multiple=True, type=int,
              help="Instantiate the root index variable here (repeatable).")
@_format_option
def soundness_cmd(derivation, program, eqprog, bound, fuel, instantiations,
                  fmt) -> None:
    """Check the derivation, then confirm its bounds on machine runs."""
    with _exit_on_input_error():
        eqs = ix.load_equations(eqprog)
        term = load_program(program)
        deriv = ck.bind(ck.load_derivation(derivation), term)
        report = ck.check(deriv, eqs, bound, fuel)
        code = _verdict_code(report.overall)
        click.echo(f"derivation: {_verdict_str(report.overall)} "
                   f"(bound {report.bound}, fuel {report.fuel})")
        if code != 0:
            sys.exit(code)
        rows = soundness_rows(deriv, term, eqs, tuple(instantiations), fuel,
                              program_path=program, deriv_path=derivation)
    click.echo(render_rows(rows, fmt))
    if not all(r.bound_ok and r.interval_ok for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
