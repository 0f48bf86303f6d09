"""dlpcf benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload check-dbl --seed 1 --seconds 50 --trace 0

Run from the root of a dlpcf checkout; dlpcf is imported from its `src`.
Every measurement happens in fresh worker processes (`worker.py`), one at
a time, so the numbers of one process never leak into the next.

--trace 0  times the set-up in 16 fresh processes, before and after one that
           runs passes over the workload's op list, untraced, for about
           --seconds; prints the end-to-end metrics.  Times are CPU times
           of the measuring process: an op is one thread that never waits,
           so its CPU time is its wall time less what the host's other
           guests took (steal).  Each time is reported relative to a fixed
           reference kernel (reference.py) timed in the same process right
           after the set-up and before every op: the machine's speed moves
           the kernel as it moves dlpcf.  Raw seconds are printed on note
           lines.
--trace 1  runs one untraced and one traced pass in one process, writes its
           spans to perfbench/out/, repeats the traced pass in a second
           fresh process and requires identical counts; prints the
           per-layer metrics and the tracing overhead.

Every op is checked against its known answer (see workloads.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-dbl", "eval-dbl")
REQUIRED = ("src/dlpcf/__init__.py", "fixtures/arith.eqs", "fixtures/dbl.pcf",
            "fixtures/dbl.deriv")
# Fresh processes that only time the set-up, half before and half after the
# measured run: the machine drifts over tens of seconds, and samples from
# both ends of the run let one slow or fast stretch move the median less.
SETUP_PROBES = 15
DEADLINE_S = 170     # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_rel": "ratio",
    "peak_rss_mb": "MB",
}
# Per-layer times are per traced pass (plus the traced set-up).
PER_LAYER = {
    "index.entails.calls": "count",
    "index.entails.distinct_pairs": "count",
    "index.entails.contexts": "count",
    "index.entails.self_s": "s/pass",
    "index.eval.calls": "count",
    "index.eval.s": "s/pass",
    "index.eval.us_per_call": "us/call",
    "index.eval.goal_share": "ratio",
    "types.subtype.calls": "count",
    "types.subtype.self_s": "s/pass",
    "types.well_defined.calls": "count",
    "types.well_defined.self_s": "s/pass",
    "checker.load_s": "s/pass",
    "checker.bind_s": "s/pass",
    "checker.check.self_s": "s/pass",
    "checker.obligations": "count",
    "pcf.parse_s": "s/pass",
    "pcf.typecheck_s": "s/pass",
    "pcf.reducer.s": "s/pass",
    "pcf.reducer.steps": "count",
    "pcf.reducer.us_per_step": "us/step",
    "machine.run.s": "s/pass",
    "machine.steps": "count",
    "machine.us_per_step": "us/step",
    "machine.max_config_size": "count",
    "cli.self_s": "s/pass",
    "trace.overhead": "ratio",
}
# Counters of the seed commit, reproduced by the traced run of check-dbl.
SEED_COUNTERS = {
    "check-dbl": {"index.entails.calls": 183,
                  "index.entails.distinct_pairs": 96,
                  "index.entails.contexts": 35,
                  "checker.obligations": 40},
}


class WorkerFailed(Exception):
    pass


def worker(deadline: float, *args) -> dict:
    """Run worker.py in a fresh process and return its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    # Cache bytecode whatever the caller's environment says, so set-up is
    # timed as for an installed package, not with dlpcf compiled each time.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{args[0]} {args[1]}: no result in {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{args[0]} {args[1]}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond."""
    n = len(latencies)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"op_tail_ms=n/a ({n} ops)"
    value = sorted(latencies)[math.ceil(best / 100 * n) - 1] * 1e3
    return f"op_tail_ms=p{best:g} {value:.6g} ms of {n}"


def end_to_end(args, deadline: float) -> tuple[dict, int, list, list, list]:
    def probe() -> dict:
        return worker(deadline, "setup", args.workload, args.seed)

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    main = worker(deadline, "run", args.workload, args.seed, args.seconds)
    setups.append(main)
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    latencies = main["latencies"]
    metrics = {
        "setup_s": reference.SCALE_S * statistics.median(
            s["setup_cpu_s"] / s["setup_ref_cpu_s"] for s in setups),
        # each pass over the kernel as timed between that pass's ops
        "run_rel": statistics.median(
            c / r for c, r in zip(main["passes_cpu"], main["passes_ref_cpu"])),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    wrong = main["wrong"]
    notes = [f"{len(setups)} set-ups, {len(main['passes'])} passes, "
             f"{len(latencies)} ops",
             f"run_cpu_s={statistics.median(main['passes_cpu']):.6g} s, "
             f"reference kernel {statistics.median(main['passes_ref_cpu']):.6g}"
             f" s (medians); whole-run ratio "
             f"{sum(main['passes_cpu']) / sum(main['passes_ref_cpu']):.6g}",
             f"set-up CPU time {statistics.median(s['setup_cpu_s'] for s in setups):.6g}"
             f" s (median)",
             f"wall: setup_s={statistics.median(s['setup_s'] for s in setups):.6g}"
             f" s, run_s={statistics.median(main['passes']):.6g} s",
             f"op_p50_ms={statistics.median(latencies) * 1e3:.6g} ms",
             tail(latencies),
             f"wrong_frac={len(wrong) / main['attempted']:.6g} ratio "
             f"({len(wrong)} of {main['attempted']})"]
    return metrics, main["attempted"], wrong, [], notes


def traced(args, deadline: float) -> tuple[dict, int, list, list, list]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    first = worker(deadline, "trace", args.workload, args.seed, spans)
    second = worker(deadline, "counts", args.workload, args.seed)
    metrics = dict(first["layers"])
    metrics["trace.overhead"] = first["traced_s"] / first["untraced_s"] - 1
    differ = sorted(k for k in first["counts"].keys() | second["counts"].keys()
                    if first["counts"].get(k) != second["counts"].get(k))
    problems = [f"{k} is {first['counts'].get(k)} in one fresh process and "
                f"{second['counts'].get(k)} in another" for k in differ]
    notes = [f"spans written to {spans.relative_to(ROOT)}",
             f"untraced pass {first['untraced_s']:.6g} s, traced pass "
             f"{first['traced_s']:.6g} s",
             "counts identical in two fresh processes" if not differ
             else "counts DIFFER between two fresh processes"]
    for name, seed_value in SEED_COUNTERS.get(args.workload, {}).items():
        got = metrics[name]
        notes.append(f"{name}={got} (seed commit {seed_value}"
                     f"{'' if got == seed_value else ', CHANGED'})")
    return (metrics, first["attempted"] + second["attempted"],
            first["wrong"] + second["wrong"], problems, notes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a dlpcf checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure, units = (traced, PER_LAYER) if args.trace else (end_to_end,
                                                             END_TO_END)
    try:
        metrics, attempted, wrong, problems, notes = measure(args, deadline)
    except WorkerFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for w in wrong:
        print(f"WRONG ANSWER {args.workload}: {w}", file=sys.stderr)
    for p in problems:
        print(f"NOT DETERMINISTIC {args.workload}: {p}", file=sys.stderr)
    correct = not wrong and not problems
    row = "  ".join(f"{k}={metrics[k]:.6g} {units[k]}" for k in units)
    print(f"{args.workload} seed={args.seed} trace={args.trace}  {row}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(wrong),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
