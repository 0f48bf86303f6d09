"""The benchmark's workloads: a seeded, fixed op list per workload, and the
known answer each op is checked against.

The known answers come from construction and closed forms, never from the
code under test:

* `dbl` applied to n has value 2n, takes (3n^2 + 25n + 12)/2 machine steps
  and (n^2 + 11n + 6)/2 reducer steps;
* the derivation `dbl.deriv` is verified at every bound.

Ops look every dlpcf function up through its module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

FUEL = 10**6
# Below the CLI default of 8: an op at bound 8 takes 10 to 19 s, at bound 4
# about 1 s, so a run holds about 40 ops with the reference kernel timed
# between them, close enough to follow this machine's changes of speed.
CHECK_BOUND = 4
# eval-dbl: one n per stratum, each within EVAL_SPREAD of its base.  An op
# costs about n^3, so the seed picks among the n-tuples whose summed n^3 is
# within EVAL_COST_TOLERANCE of the bases': the work of a pass is the same
# for every seed while the seed still changes every input.  Small n keep a
# pass near 5 s, so a run holds about ten of them.
EVAL_BASES = (43, 56, 70, 85)
EVAL_SPREAD = 3
EVAL_COST_TOLERANCE = 0.003


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # checks the (value, steps) of each reducer call traced during the op
    check_trace: Callable[[list], Optional[str]] = lambda results: None


def machine_steps(n: int) -> int:
    return (3 * n * n + 25 * n + 12) // 2


def reducer_steps(n: int) -> int:
    return (n * n + 11 * n + 6) // 2


def build(name: str, dl, root: Path, seed: int) -> list[Op]:
    """Parse, bind or generate the workload's inputs; the caller times it."""
    rng = random.Random(f"{name}/{seed}")
    eqs = dl.index.load_equations(root / "fixtures" / "arith.eqs")
    return BUILDERS[name](dl, root, eqs, rng)


def _check_dbl(dl, root: Path, eqs, rng: random.Random) -> list[Op]:
    ix, ck, cli = dl.index, dl.checker, dl.cli
    program_path = str(root / "fixtures" / "dbl.pcf")
    deriv_path = str(root / "fixtures" / "dbl.deriv")
    term = cli.load_program(program_path)
    deriv = ck.bind(ck.load_derivation(deriv_path), term)
    ns = list(range(9))
    rng.shuffle(ns)

    def run():
        # the `soundness` command: check, then one machine run per n
        report = dl.checker.check(deriv, eqs, CHECK_BOUND, FUEL)
        rows = dl.cli.soundness_rows(deriv, term, eqs, tuple(ns), FUEL,
                                     program_path=program_path,
                                     deriv_path=deriv_path)
        dl.cli.render_rows(rows, "human")
        return report, rows

    def check(result):
        report, rows = result
        if report.overall != ix.Verified(CHECK_BOUND):
            return f"overall verdict {report.overall}"
        if len(rows) != len(ns):
            return f"{len(rows)} rows for {len(ns)} instantiations"
        for n, r in zip(ns, rows):
            if not (r.bound_ok and r.interval_ok):
                return f"n={n}: bound_ok={r.bound_ok} interval_ok={r.interval_ok}"
            if (r.value, r.steps) != (2 * n, machine_steps(n)):
                return f"n={n}: value {r.value} in {r.steps} steps"
        return None

    return [Op(f"soundness -n {','.join(map(str, ns))}", run, check)]


def _equal_cost_ns() -> list[tuple[int, ...]]:
    target = sum(base ** 3 for base in EVAL_BASES)
    strata = (range(base - EVAL_SPREAD, base + EVAL_SPREAD + 1)
              for base in EVAL_BASES)
    return [ns for ns in itertools.product(*strata)
            if abs(sum(n ** 3 for n in ns) / target - 1) <= EVAL_COST_TOLERANCE]


def _eval_dbl(dl, root: Path, eqs, rng: random.Random) -> list[Op]:
    path = str(root / "fixtures" / "dbl.pcf")
    ns = list(rng.choice(_equal_cost_ns()))
    rng.shuffle(ns)

    def op(n):
        def run():
            return dl.cli.eval_report(path, FUEL, (n,))

        def check(report):
            if (report.value, report.steps) != (2 * n, machine_steps(n)):
                return f"n={n}: value {report.value} in {report.steps} steps"
            return None

        def check_trace(results):
            if results != [(2 * n, reducer_steps(n))]:
                return f"n={n}: reducer gave {results}"
            return None

        return Op(f"eval dbl {n}", run, check, check_trace)

    return [op(n) for n in ns]


BUILDERS = {
    "check-dbl": _check_dbl,
    "eval-dbl": _eval_dbl,
}
