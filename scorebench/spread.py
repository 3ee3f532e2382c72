"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 scorebench/spread.py --workload ask-corpus --seeds 1 2 3 4 5

For every metric: the median of its values and the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the metric's bound in BENCHMARK.json. Runs are
sequential; each is a fresh `run.py` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        missing = sorted(set(bounds) - set(result["metrics"]))
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"missing={missing or 'none'}", flush=True)
        if missing:
            print(f"error: the result line lacks end-to-end metrics {missing}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    worst = 0.0
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        if bound:
            worst = max(worst, spread / bound)
        print(f"{name:28s} median={median:<12.6g} spread={spread:.4f} bound={bound} "
              f"spread/bound={spread / bound if bound else float('nan'):.2f}")
    print(f"worst spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
