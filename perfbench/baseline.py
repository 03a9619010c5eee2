"""Run every workload over ten seeds, twice, and record the baseline.

    python3 perfbench/baseline.py [--out FILE]

Runs every workload of BENCHMARK.json for its ``run_seconds``, with tracing
off, on seeds 1 to 10, seed by seed; then does the whole pass again; then
makes one traced run per workload.  It prints every run's report (every
metric by name and unit, and fail_ratio), then for each end-to-end metric
and workload the median, quartiles and spread (interquartile range over
median) of each pass, and how much the second pass's median is worse than
the first's, next to the metric's bound.  With --out it writes all of that,
with the Python version, nproc, commit and sample counts, as JSON.
Exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)
PASSES = 2


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    try:
        summary = run.measure(workload, seed, seconds, trace)
    except run.Fatal as exc:
        sys.exit(f"{workload} seed {seed}: {exc}")
    result = run.report(workload, seed, trace, summary)
    samples = {k: summary[k] for k in ("reps", "requests", "setup_samples")}
    return result, samples


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = [{w: {m: [] for m in bounds} for w in names} for _ in range(PASSES)]
    samples = {w: [] for w in names}
    correct = True
    for p in range(PASSES):
        for seed in SEEDS:  # seed-major, so drift of the machine hits every workload alike
            for w in names:
                result, count = measure(w, seed, seconds, False)
                correct &= result["correct"]
                samples[w].append(count)
                for m in bounds:
                    values[p][w][m].append(result["metrics"][m]["value"])
    traced = {}
    for w in names:
        result, count = measure(w, SEEDS[0], seconds, True)
        correct &= result["correct"]
        traced[w] = {"seed": SEEDS[0], **count,
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}}

    summary = {}
    print(f"\n{'workload':10} {'metric':12} {'median':>10} {'spread':>7} "
          f"{'median2':>10} {'spread2':>7} {'worse':>7} {'bound':>6}")
    for w in names:
        summary[w] = {}
        for m in bounds:
            first, second = (stats(values[p][w][m]) for p in range(PASSES))
            worse = (second["median"] - first["median"]) / first["median"]
            summary[w][m] = {"passes": [first, second], "second_worse_by": worse}
            print(f"{w:10} {m:12} {first['median']:10.6g} {first['spread']:7.3f} "
                  f"{second['median']:10.6g} {second['spread']:7.3f} {worse:7.3f} {bounds[m]:6.2f}")
    if args.out:
        doc = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            "passes": PASSES,
            "end_to_end": summary,
            "samples": samples,
            "traced": traced,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print("all checks passed" if correct else "SOME CHECKS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
