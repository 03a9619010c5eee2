"""prelie benchmark runner.

    python3 perfbench/run.py --workload {matrices,oracle,grafting,queries}
                             --seed N --seconds S --trace {0,1}

Runs the workload in fresh worker processes, one at a time, until the next
repetition would pass S seconds (at least MIN_REPS repetitions).  Every
repetition checks its outputs.  Prints every metric as ``name value unit``
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Exits non-zero
without a result when the program cannot be imported or no repetition
completes.
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
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("matrices", "oracle", "grafting", "queries")
MIN_REPS = 3  # per mode; a median needs a few repetitions
HARD_LIMIT_S = 170.0  # whole run, so that it ends within 180 s
NO_PROGRAM = 3  # worker exit code when prelie cannot be imported

class Fatal(Exception):
    pass


def start_worker(workload: str, seed: int, rep: int, mode: str, deadline: float,
                 chrome: str | None = None) -> dict | None:
    """Run one worker to completion; None when it failed or ran out of time."""
    argv = [sys.executable, WORKER, workload, str(seed), str(rep), mode]
    if chrome:
        argv.append(chrome)
    # A fixed hash seed makes repetitions do the same work; cached bytecode
    # makes set-up time what an installed package costs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"worker {workload} rep {rep} {mode}: timed out", file=sys.stderr)
        return None
    if proc.returncode == NO_PROGRAM:
        raise Fatal(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        print(f"worker {workload} rep {rep} {mode}: exit {proc.returncode} {tail}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    modes = ("plain", "traced") if trace else ("plain",)
    results = {m: [] for m in modes}
    setups, durations = [], []
    attempted = failed = 0
    problems: list[str] = []
    chrome = None
    if trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        chrome = os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.json")
    rep = 0
    while True:
        began = time.monotonic()
        for mode in modes:
            res = start_worker(workload, seed, rep, mode, deadline,
                               chrome if mode == "traced" and rep == 0 else None)
            attempted += res["attempted"] if res else 1
            failed += res["failed"] if res else 1
            if res:
                problems += res["problems"]
                setups.append(res["setup_s"])
                results[mode].append(res)
        rep += 1
        durations.append(time.monotonic() - began)
        now, next_rep = time.monotonic(), statistics.median(durations)
        if now + next_rep > deadline:
            break
        if rep >= MIN_REPS and now - start + next_rep > seconds:
            break
    if not all(results[m] for m in modes):
        raise Fatal(f"no repetition of {workload} completed")
    plain = results["plain"]
    latencies = [t for r in plain for t in r["latencies_ms"]]
    walls = [r["wall_s"] for r in plain]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": len(plain),
        "requests": len(latencies),
        "setup_samples": len(setups),
        "calibration_ms": 1000 * statistics.median(r["calibration_s"] for r in plain),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "req_p50_ms": statistics.median(latencies),
            "req_p99_ms": statistics.quantiles(latencies, n=100)[98],
        },
    }
    if trace:
        traced = results["traced"]
        # median_low keeps counts whole: it is always one repetition's value
        layers = {
            key: statistics.median_low(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
        summary["per_layer"] = layers
        summary["chrome_trace"] = os.path.relpath(chrome, ROOT)
    return summary


def units(trace: bool) -> dict[str, str]:
    """Name and unit of every metric the report carries, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def report(workload: str, seed: int, trace: bool, summary: dict) -> dict:
    """Print the run's report; return the result object of its last line."""
    values = summary["per_layer" if trace else "end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units(trace).items()}
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {workload} seed {seed}: {summary['reps']} repetitions, "
          f"{summary['requests']} operations timed, {summary['setup_samples']} set-up samples, "
          f"calibration loop {summary['calibration_ms']:.3f} ms")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for problem in summary["problems"][:10]:
        print(f"  failed: {problem}")
    if trace:
        print(f"chrome trace: {summary['chrome_trace']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)
    try:
        summary = measure(args.workload, args.seed, args.seconds, trace)
    except Fatal as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, trace, summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
