"""Steadiness check: run workloads N times each, one process per run, and
print every metric's median, quartiles, min/max and quartile spread.

    python3 perfbench/steady.py --workloads prep vcnn2 --runs 10 --first-seed 1

Run from the root of a source checkout. Runs are sequential, each with its
own seed (first-seed, first-seed + 1, ...). The spread column is
(q3 - q1) / median, the figure the benchmark's bounds are compared with.
With --out the per-run results are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("nan")}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    results: dict[str, list[dict]] = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.monotonic()
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr,
                  flush=True)
        results[workload] = runs
        names = runs[0]["metrics"]
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each; "
              f"failed/attempted {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':34s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>7s}")
        for name in names:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:34s} {names[name]['unit']:10s} {s['median']:12.5g} "
                  f"{s['q1']:12.5g} {s['q3']:12.5g} {s['min']:12.5g} {s['max']:12.5g} "
                  f"{s['spread']:7.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
