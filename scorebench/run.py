"""Run one SCORE benchmark workload and print its metrics.

    python3 scorebench/run.py --workload mock-corpus --seed 7 --seconds 10 --trace 0

Workloads: mock-corpus, remote-latency, ask-corpus, replay-cli (see
README.md). The package is imported from `src/` next to this directory.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's metadata. With `--trace 0` the metrics are the workload's
end-to-end metrics, measured without any probe installed. With
`--trace 1` they are the per-layer metrics: set-up runs once with probes,
then untraced and traced runs of the same work alternate, and
`trace.overhead` compares their wall times. The same result goes to
`.bench_out/`, with the traced run's spans beside it.

Exit status: 0 when every gate held, 1 when one failed, 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up repeats: at least 3, and more while they add up to under 5 s. A shared
# CPU changes speed for seconds at a time, so the repeats of a set-up of a few
# milliseconds must span seconds for their median to be steady from run to run
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 2000
SETUP_TARGET_S = 5.0
MAX_MEASURE_S = 120  # stop a loop whose operations keep failing before it has enough samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "score" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the replay-cli workload runs the CLI in a child process
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = ROOT / ".bench_work" / run_id
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            metrics, details, spans = _traced(workload, args.seconds, run_id)
        else:
            metrics, details = _untraced(workload, args.seconds)
            spans = None
        meta = _meta(args, workload, details)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{run_id}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=2), "utf-8")
    if spans is not None:
        with gzip.open(out_dir / f"{run_id}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _untraced(workload, seconds: float):
    setup_each = []
    while len(setup_each) < SETUP_MIN_REPEATS or (
        sum(setup_each) < SETUP_TARGET_S and len(setup_each) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        workload.setup()
        setup_each.append(time.perf_counter() - start)

    start = time.perf_counter()
    iterations = 0
    while True:
        workload.guarded(workload.run_once)
        iterations += 1
        elapsed = time.perf_counter() - start
        if workload.enough(elapsed, seconds, iterations) or elapsed > MAX_MEASURE_S:
            break
    workload.guarded(workload.verify)

    metrics = workload.metrics()
    metrics["setup_s"] = (statistics.median(setup_each), "s")
    metrics["peak_rss_mb"] = (_peak_rss_mb(workload.rss_from_children), "MB")
    metrics["success_rate"] = (1.0 - workload.failed / workload.attempted, "ratio")
    details = {"setup_s_each": setup_each, "iterations": iterations, "measured_s": elapsed}
    return metrics, details


def _traced(workload, seconds: float, run_id: str):
    import probes
    from tracer import Tracer, merged, spans_to_dicts

    setup_tracer = Tracer(run_id)
    start = time.perf_counter()
    with probes.installed(setup_tracer):
        workload.setup(setup_tracer)
    setup_s = time.perf_counter() - start

    samples, plain_walls, traced_walls = [], [], []
    first_spans = None
    start = time.perf_counter()
    while True:
        workload.rewind()
        t0 = time.perf_counter()
        workload.guarded(workload.run_once)
        plain_walls.append(time.perf_counter() - t0)

        tracer = Tracer(run_id)
        workload.rewind()
        t0 = time.perf_counter()
        with probes.installed(tracer):
            workload.guarded(workload.run_once, tracer)
        traced_walls.append(time.perf_counter() - t0)

        combined = merged(run_id, setup_tracer, tracer)
        samples.append(probes.layer_metrics(combined, **workload.trace_extras()))
        if first_spans is None:
            first_spans = spans_to_dicts(combined.spans)
        elapsed = time.perf_counter() - start
        # two pairs at least, so the repeat check below compares two traced runs
        if (len(samples) >= 2 and elapsed >= seconds) or elapsed > MAX_MEASURE_S:
            break

    counts = [{k: v for k, v in s.items() if probes.PER_LAYER[k] == "count"} for s in samples]
    workload.record(all(c == counts[0] for c in counts), "per-layer counts differ between traced runs of the same work")
    workload.guarded(workload.verify)

    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    values = probes.median_metrics(samples)
    values["trace.overhead"] = overhead
    metrics = {name: (values[name], unit) for name, unit in probes.PER_LAYER.items()}
    details = {
        "setup_s_traced": setup_s,
        "traced_pairs": len(samples),
        "untraced_wall_s": plain_walls,
        "traced_wall_s": traced_walls,
        "tracing_overhead": overhead,
        "spans": len(first_spans),
    }
    return metrics, details, first_spans


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _meta(args, workload, details: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(ROOT / "src" / "score"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_control": "none: no CPU pinning or frequency control is applied; shared virtual machines allow neither",
        "corpus": workload.sizes(),
        "info": workload.info(),
        "injected_latency_ms": workload.injected_latency_ms,
        "tracing_overhead": None,  # measured by the --trace 1 run
        **details,
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; source_sha256 still identifies the code
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
