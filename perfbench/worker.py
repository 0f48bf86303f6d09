"""One fresh benchmark process; `run.py` starts it and reads the JSON line it
prints last.

    python3 perfbench/worker.py setup  WORKLOAD SEED
    python3 perfbench/worker.py run    WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace  WORKLOAD SEED SPANS_PATH
    python3 perfbench/worker.py counts WORKLOAD SEED

`setup` only times the set-up.  `run` repeats passes over the op list,
untraced, for about SECONDS of wall time, and runs the reference kernel
(reference.py) before every op.  Both time the set-up and each op in wall
time and in this process's CPU time, which leaves out the time the host
gives the CPU to other guests (steal).  `trace` runs one untraced and one
traced pass and writes the spans to SPANS_PATH.  `counts` runs one traced
pass and prints only the machine-independent counts, to check them in a
second fresh process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import types
from pathlib import Path

import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_dlpcf():
    """dlpcf from this checkout's `src`, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    from dlpcf import checker, cli, index, machine, pcf
    from dlpcf import types as dtypes
    if Path(index.__file__).resolve().parent != ROOT / "src" / "dlpcf":
        raise SystemExit(f"dlpcf imported from {index.__file__}, "
                         f"not from {ROOT / 'src'}")
    return types.SimpleNamespace(index=index, types=dtypes, checker=checker,
                                 pcf=pcf, machine=machine, cli=cli)


def time_reference() -> float:
    """CPU time of one call of the reference kernel."""
    start = time.process_time()
    total = reference.kernel()
    elapsed = time.process_time() - start
    if total != reference.EXPECTED:
        raise SystemExit(f"reference kernel gave {total}, "
                         f"not {reference.EXPECTED}")
    return elapsed


def run_pass(ops, tracer=None, with_reference=False) -> dict:
    """One pass over the op list: per-op latencies and CPU times, and the
    wrong answers.  WITH_REFERENCE runs the reference kernel before each op
    and returns its mean CPU time as `ref_cpu_s`."""
    latencies, cpu_times, ref_times, wrong = [], [], [], []
    for op_id, op in enumerate(ops):
        if with_reference:
            ref_times.append(time_reference())
        if tracer is not None:
            tracer.op = op_id
            seen = len(tracer.reducer_results)
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            result = op.run()
            error = None
        except Exception as e:  # a raising op counts as a wrong answer
            error = f"raised {type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - start_cpu)
        if error is None:
            error = op.check(result)
        if error is None and tracer is not None:
            error = op.check_trace(tracer.reducer_results[seen:])
        if error is not None:
            wrong.append(f"{op.label}: {error}")
    return {"s": sum(latencies), "cpu_s": sum(cpu_times),
            "ref_cpu_s": sum(ref_times) / len(ref_times) if ref_times else None,
            "latencies": latencies, "wrong": wrong}


def main(argv: list[str]) -> dict:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    start, start_cpu = time.perf_counter(), time.process_time()
    dl = import_dlpcf()
    tracer = Tracer(vars(dl)) if mode in ("trace", "counts") else None
    if tracer is not None:
        tracer.install()
    ops = workloads.build(workload, dl, ROOT, seed)
    setup = {"setup_s": time.perf_counter() - start,
             "setup_cpu_s": time.process_time() - start_cpu}
    if tracer is not None:
        tracer.uninstall()
    else:
        time_reference()    # warm-up
        setup["setup_ref_cpu_s"] = time_reference()
    if mode == "setup":
        return setup

    passes = []
    if mode == "run":
        seconds = float(argv[3])
        began, last = time.perf_counter(), 0.0
        # Start a pass only if it should end within SECONDS, judging by the
        # last one, so a run lasts about SECONDS or one pass, whichever is
        # longer.
        while not passes or (time.perf_counter() - began + last <= seconds):
            start = time.perf_counter()
            passes.append(run_pass(ops, with_reference=True))
            last = time.perf_counter() - start
        return {**setup, "passes": [p["s"] for p in passes],
                "passes_cpu": [p["cpu_s"] for p in passes],
                "passes_ref_cpu": [p["ref_cpu_s"] for p in passes],
                "latencies": [x for p in passes for x in p["latencies"]],
                "wrong": [w for p in passes for w in p["wrong"]],
                "attempted": len(ops) * len(passes),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024}

    if mode == "trace":
        untraced = run_pass(ops)
        passes.append(untraced)
    tracer.install()
    traced = run_pass(ops, tracer)
    tracer.uninstall()
    passes.append(traced)
    out = {"counts": tracer.counts(),
           "wrong": [w for p in passes for w in p["wrong"]],
           "attempted": len(ops) * len(passes)}
    if mode == "trace":
        tracer.write_spans(argv[3])
        out["layers"] = tracer.layer_metrics()[0]
        out["untraced_s"] = untraced["s"]
        out["traced_s"] = traced["s"]
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
