"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1] [--json PATH]

Runs `run.py` once per seed, one run at a time, and prints for every metric
the median of the per-run values, their quartiles (`statistics.quantiles`
with n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  `--json PATH` also merges the summary, the workload's command,
the Python version and the CPU count into the baseline record at PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for metric in declared:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)
    summary = summarise(results, declared)
    for name, s in summary.items():
        bound = bounds[name]
        limit = "" if bound is None else f"  bound {bound}  (spread/bound {s['spread'] / bound:.2f})"
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{limit}")
    if args.json:
        record = json.loads(args.json.read_text()) if args.json.exists() else {"workloads": {}}
        record.update(python=platform.python_version(), nproc=os.cpu_count())
        entry = record["workloads"].setdefault(args.workload, {})
        entry["command"] = ["p4metrics", *run.WORKLOADS[args.workload].cli_args(Path("IN.csv"), Path("OUT.csv"))]
        entry["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
        }
        args.json.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
