"""Every metric of every workload, one row per workload.

    python3 perfbench/report.py [--seed 1] [--seconds 50]

Runs run.py on each workload, end to end and then traced, one run at a
time.  Prints each run's notes (on check-dbl they compare the counters with
those of the seed commit), then one row per workload with every metric by
name and unit.  The traced runs write their spans to perfbench/out/.
Exits 1 if any answer was wrong, 2 if a run gave no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    args = parser.parse_args()
    rows, correct = {}, True
    for workload in WORKLOADS:
        rows[workload] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} trace={trace}: no result", file=sys.stderr)
                return 2
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            rows[workload].update(result["metrics"])
    print()
    for workload, metrics in rows.items():
        print(f"{workload:<15} " + "  ".join(
            f"{name}={m['value']:.6g} {m['unit']}"
            for name, m in metrics.items()))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
