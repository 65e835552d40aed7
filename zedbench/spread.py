"""Run one workload over several seeds, one process at a time, and report
each metric's median and quartile spread (Q3 - Q1 as a share of the median,
from ``statistics.quantiles(values, n=4)``).

    python3 zedbench/spread.py --workload wide-extract --seeds 1-10 --out runs/wide.jsonl

Each run's JSON result line is appended to ``--out`` together with its
seed and wall time, so two sets can be compared afterwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(rows: list[dict]) -> dict[str, dict]:
    summary = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"median": median, "spread": (q3 - q1) / median if median else float("inf"),
                         "min": min(values), "max": max(values)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    rows = []
    for seed in parse_seeds(args.seeds):
        command = BENCHMARK["command"] + ["--workload", args.workload, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        proc = subprocess.run(command, cwd=BENCH_DIR.parent, capture_output=True, text=True,
                              timeout=600, check=False)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row.update(seed=seed, wall_s=wall, workload=args.workload, trace=args.trace)
        rows.append(row)
        print(f"seed {seed}: wall {wall:.1f}s correct={row['correct']} "
              f"attempted={row['attempted']} failed={row['failed']}", flush=True)
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(row) + "\n")
    for name, s in summarize(rows).items():
        bound = bounds.get(name)
        note = f"  bound {bound:.3f}" if bound is not None else ""
        print(f"{name:<40} median {s['median']:<12.6g} spread {s['spread']:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
