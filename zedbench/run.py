"""Benchmark entry point: one workload, one seed, one process.

    python3 zedbench/run.py --workload zeroshot-train --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, writes them as JSONL,
drives the ``defex`` package in ``src/`` through the whole pipeline and
prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones and the run ends within ``--seconds``
of wall time unless the pipeline's minimum work takes longer; with
``--trace 1`` the pipeline runs its minimum work once untraced and once
traced and the metrics are the per-layer ones, including the tracing
overhead.  A run record (and, when traced, the spans)
is written under ``zedbench/runs/``.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()

# one BLAS thread, set before numpy loads: the timings must not depend on
# how many idle cores the host happens to offer
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
SRC_DIR = REPO_DIR / "src"
RUNS_DIR = BENCH_DIR / "runs"


def read_cpu_times():
    """Aggregate jiffies from /proc/stat as (steal, total), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def environment(steal_before, steal_after) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    steal_share = None
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        steal_share = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "steal_share": steal_share,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "defex" / "__init__.py").is_file():
        print(f"zedbench: package source not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    from pipeline import MIN_ROUNDS, run_pass
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"zedbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    input_dir = RUNS_DIR / f"inputs-{stem}-{os.getpid()}"
    cpu_before = read_cpu_times()
    try:
        t0 = time.perf_counter()
        paths = write_inputs(workload, args.seed, input_dir)
        inputs_s = time.perf_counter() - t0
        if args.trace:
            result = run_pass(workload, args.seed, paths, rounds=MIN_ROUNDS)
        else:
            result = run_pass(workload, args.seed, paths, deadline=STARTED + args.seconds)
        record = {"inputs_seconds": inputs_s, "untraced": result.record,
                  "untraced_wall_s": result.wall_s, "untraced_cpu_s": result.cpu_s}
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(workload, args.seed, paths, tracer=tracer, rounds=MIN_ROUNDS)
            finally:
                tracer.uninstall()
            overhead = traced.cpu_s - result.cpu_s
            metrics = tracer.metrics(overhead)
            record.update(traced=traced.record, traced_wall_s=traced.wall_s,
                          traced_cpu_s=traced.cpu_s, trace_overhead_s=overhead,
                          trace_missing_targets=tracer.missing, spans=len(tracer.names))
            tracer.write(RUNS_DIR / f"{stem}.spans.jsonl.gz")
            correct = result.correct and traced.correct
            checks = {**result.checks, **{f"traced.{k}": v for k, v in traced.checks.items()}}
            attempted = result.attempted + traced.attempted
            failed = result.failed + traced.failed
        else:
            metrics = dict(result.metrics)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (rss_mb, "MB")
            correct, checks = result.correct, result.checks
            attempted, failed = result.attempted, result.failed
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=environment(cpu_before, read_cpu_times()),
        checks={k: {"ok": ok, "detail": detail if not ok else None} for k, (ok, detail) in checks.items()},
        result=payload,
    )
    with open(RUNS_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    for name, (ok, detail) in checks.items():
        if not ok:
            print(f"zedbench: check {name} failed: {str(detail)[:300]}", file=sys.stderr)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
