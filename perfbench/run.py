"""fusionnet benchmark: one workload per process.

    python3 perfbench/run.py --workload {prep,desk,vcnn2} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src. The inputs are made from --seed. Whole rounds of the workload run
until --seconds have passed (at least one round). With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics (medians over
the rounds); with --trace 1 untraced and traced rounds alternate, starting
and ending untraced, and it holds the per-layer metrics instead. Times are
CPU seconds of this process: setup_s from the process's start to the end of
input generation, the timed work of the rounds; both scaled by the speed
probe in probe.py (plain CPU seconds in traced runs). Any failed output check
prints "correct": false and exits 1. Run files go to perfbench/runs/.
"""

from __future__ import annotations

import os
import sys
import time

# one BLAS thread: the benchmark measures the single-core program
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 10

UNITS = {"setup_s": "s", "run_s": "s", "prep_models_per_s": "models/s",
         "train_samples_per_s": "samples/s", "eval_models_per_s": "models/s",
         "peak_rss_mb": "MB", "written_mb": "MB"}


def process_age() -> float:
    """Wall seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def process_cpu() -> float:
    """CPU seconds (user + system) this process has used since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def layer_unit(name: str) -> str:
    if name.endswith("_models_per_s"):
        return "models/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    return "bytes" if name.endswith(".bytes") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fusionnet", "__init__.py")):
        print(f"error: no fusionnet sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import fusionnet.pipeline  # noqa: F401  (import time is part of setup)

    import tracer as tracing
    from probe import CpuClock, SpeedProbe
    from workloads import WORKLOADS, Bench, expected_sgd_calls

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(HERE, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # the speed probe would land inside traced spans, so traced runs use
    # plain CPU time, in their untraced rounds too
    timer = CpuClock() if args.trace else SpeedProbe()
    bench = Bench(workload, run_dir, args.seed, timer)
    synth_s = bench.setup()
    setup_cpu_s, setup_wall_s = process_cpu(), process_age()
    # the set-up at the speed read by probes right after it
    setup_s = setup_cpu_s * timer.sample(SETUP_PROBES)

    rounds: list[dict] = []
    traced: list[dict] = []
    tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    timer.start()
    try:
        # traced runs go U T U (T U ...): a process's first round runs slower
        # (warm-up), so the overhead compares traced rounds with later untraced ones
        while True:
            if tracer is not None and len(rounds) > len(traced):
                tracer.install()
                try:
                    traced.append(bench.run_round(tracer))
                finally:
                    tracer.restore()
                continue
            rounds.append(bench.run_round())
            if time.perf_counter() - t0 >= args.seconds and (tracer is None or traced):
                break
    finally:
        timer.stop()

    problems = [p for r in rounds + traced for p in r["problems"]]
    # an operation is one model through one prepare_caches call (cold, warm,
    # or inside run_pipeline, which then trains on and scores the same models)
    attempted = sum(r["operations"] for r in rounds + traced)

    if tracer is None:
        metrics = {name: statistics.median(r["figures"][name] for r in rounds)
                   for name in UNITS if name in rounds[0]["figures"]}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out = {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS}
    else:
        extra = {key: sum(r["layer_extra"][key] for r in traced)
                 for key in traced[0]["layer_extra"]}
        extra["weights.write_bytes"] = tracer.weights_bytes
        extra["synth_s"] = synth_s
        extra["traced_run_s"] = statistics.median(r["figures"]["run_s"] for r in traced)
        extra["untraced_run_s"] = statistics.median(r["figures"]["run_s"] for r in rounds[1:])
        extra["reprep_models_per_s"] = statistics.median(
            r["figures"]["reprep_models_per_s"] for r in rounds[1:])
        layers = tracing.layer_metrics(tracer.spans, len(traced), extra)
        problems += _count_checks(layers, expected_sgd_calls(workload.pipeline),
                                  bench.expected_voxelize_calls())
        tracer.write(os.path.join(run_dir, "trace.jsonl"))
        out = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": 0, "metrics": out}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "blas_env": BLAS_ENV, "setup_cpu_s": setup_cpu_s,
                   "setup_wall_s": setup_wall_s,
                   "rounds": len(rounds), "traced_rounds": len(traced),
                   "probes": timer.probes,
                   "round_figures": [r["figures"] for r in rounds + traced],
                   "warm_pass_s": [r["warm_pass_s"] for r in rounds + traced],
                   "test_metrics": [r["test_metrics"] for r in rounds + traced],
                   "problems": problems, "result": result}, fh, indent=1)
    bench.clean()
    print(json.dumps(result))
    return 0 if not problems else 1


def _count_checks(layers: dict, sgd_calls: int, voxelize_calls: int) -> list[str]:
    from checks import check_count
    return (check_count("nn.optim.sgd_calls", layers["nn.optim.sgd_calls"], sgd_calls)
            + check_count("voxel.voxelize_calls", layers["voxel.voxelize_calls"],
                          voxelize_calls))


if __name__ == "__main__":
    sys.exit(main())
