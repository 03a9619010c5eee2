"""One fresh process: import prelie, run one repetition of one workload,
check its outputs and print one JSON object on stdout.

    python3 perfbench/worker.py WORKLOAD SEED REP MODE [CHROME_TRACE_PATH]

MODE is ``plain`` or ``traced`` (per-layer spans, see tracer.py).  Exit
code 3 means the program could not be imported.  run.py starts these one
at a time; run it directly only to debug one repetition.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def peak_rss_mb() -> float:
    """Peak resident set size of this process since it started.  VmHWM,
    unlike getrusage's ru_maxrss, does not include the launcher's memory,
    which a child inherits as its starting high-water mark."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    workload, seed, rep, mode = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    # Set-up time: the import a user pays before the first call.  Nothing
    # else is imported before it, so shared stdlib modules are counted too.
    start = time.perf_counter()
    try:
        import prelie

        if workload == "queries":
            import prelie.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import prelie from {ROOT}/src: {exc}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - start

    import json
    import random
    import statistics

    import workloads as wl

    run, check = wl.WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rec = wl.Recorder()
    out = run(prelie, random.Random(f"{workload}:{seed}:{rep}"), rec)
    rec.finish()
    result = {
        "setup_s": setup_s * rec.setup_scale(),
        "wall_s": rec.wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "calibration_s": statistics.median(rec.calibrations),
    }

    chk = wl.Checks()
    parts = check(out, random.Random(f"check:{seed}:{rep}"), chk)
    attempted = len(rec.latencies)
    failed = len(rec.errors) + len(chk.failures)
    if parts:
        # One more operation: the digest of the canonical outputs must match
        # the one stored from the seed commit.
        with open(wl.GOLDEN_DIR / "digests.json") as fh:
            want = json.load(fh)[workload]
        attempted += 1
        if wl.digest(parts) != want:
            failed += 1
            chk.failures.append(f"{workload} output digest {wl.digest(parts)} != {want}")
    result.update(
        attempted=attempted,
        failed=min(failed, attempted),
        problems=(rec.errors + chk.failures)[:10],
        latencies_ms=[t * 1000 for t in rec.latencies],
    )
    if tracer is not None:
        # Self times are scaled by the repetition's median calibration.
        scale = wl.REFERENCE_CAL_S / result["calibration_s"]
        layers = tracer.metrics()
        result["layers"] = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
        if len(sys.argv) > 5:
            tracer.write_chrome(sys.argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
