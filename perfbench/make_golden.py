"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_golden.py

Writes golden/digests.json (sha256 of the canonical, seed-independent
outputs of matrices, oracle and grafting) and golden/queries.txt (a 64-bit
digest of every request the queries workload can send, with its exit code
and stdout).  Outputs must stay byte-for-byte the same, so these files were
made once at the commit the benchmark was defined on; rerun this only to
check them, never to make a failing run pass.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import prelie  # noqa: E402
import prelie.cli  # noqa: E402

import workloads as wl  # noqa: E402


def workload_digest(name: str) -> str:
    """Digest of one repetition; two seeds must agree and pass every check."""
    run, check = wl.WORKLOADS[name]
    seen = set()
    for seed in (0, 1):
        rec, chk = wl.Recorder(), wl.Checks()
        parts = check(run(prelie, random.Random(f"{name}:{seed}:0"), rec), random.Random(seed), chk)
        if rec.errors or chk.failures:
            sys.exit(f"{name}: {(rec.errors + chk.failures)[:5]}")
        seen.add(wl.digest(parts))
    if len(seen) != 1:
        sys.exit(f"{name}: outputs depend on the seed")
    return seen.pop()


def main():
    out_dir = wl.GOLDEN_DIR
    os.makedirs(out_dir, exist_ok=True)
    digests = {name: workload_digest(name) for name in ("matrices", "oracle", "grafting")}
    with open(out_dir / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    keys = sorted(
        wl.response_key(argv, *wl.request(prelie.cli, argv)) for argv in wl.query_universe()
    )
    with open(out_dir / "queries.txt", "w") as fh:
        fh.write("\n".join(keys) + "\n")
    print(f"{len(digests)} workload digests, {len(keys)} query responses")


if __name__ == "__main__":
    main()
