"""Per-layer wall time and peak memory of prelie at degrees 7 to 10.

    python3 bench/layers.py [--parent REF] [--workdir DIR] [--out BENCH.json]

Each layer runs in a fresh Python process that imports ``prelie`` from a
source tree: this checkout's ``src``, and with ``--parent`` also the tree
of the git revision REF, unpacked with ``git archive`` under ``--workdir``
(a new temporary directory by default).  The two sides alternate run by
run, so that drift of the host's speed hits both alike.  For every layer
the file records the median and each of the RUNS runs of the layer's own
wall time (set-up excluded) and of the process's peak resident set
(``VmHWM``, read at its end; set-up included), plus Python, ``nproc`` and
the commits.  Without ``--out`` the file is ``BENCH.json`` at the root.

A layer's output is checked after it is timed: the entry sum of every psi
and alpha matrix, and the coefficient total of psi over a whole degree,
equal the A088716 term; the inverse composes back to the identity on a
seeded sample; beta is unipotent.  The two coefficient oracles agree on
every degree-7 pair, with column sums N(tau); on seeded degree-10 pairs
they agree with the coefficient in psi(tau).  A failed check fails the
run and the script exits 1.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3  # per layer and side
TIMEOUT_S = 900.0  # per run; the parent's psi over degree 10 takes about 40 s


def a088716(n: int) -> int:
    """a(1) = 1, a(n) = sum_p a(p) a(n-p) (n-p)."""
    a = [0, 1]
    for m in range(2, n + 1):
        a.append(sum(a[p] * a[m - p] * (m - p) for p in range(1, m)))
    return a[n]


# ---------------------------------------------------------------------------
# layers: (set-up, timed work, check) run in the child process


def _psi_layer(n: int):
    def setup(P):
        return P.enumerate_planar(n)

    def work(P, basis):
        return [P.psi(t) for t in basis]

    def check(P, images):
        total = sum(s.coefficient_sum() for s in images)
        return total == a088716(n), f"coefficient total {total}, A088716({n}) = {a088716(n)}"

    return setup, work, check


def _matrix_check(n: int):
    def check(P, m):
        total = m.entry_sum()
        return total == a088716(n), f"entry sum {total}, A088716({n}) = {a088716(n)}"

    return check


def _psi_matrix(n: int):
    return (lambda P: None), (lambda P, _: P.psi_matrix(n)), _matrix_check(n)


def _alpha_after_psi(n: int):
    return (lambda P: P.psi_matrix(n)), (lambda P, _: P.alpha_matrix(n)), _matrix_check(n)


def _psi_inverse(n: int):
    def setup(P):
        return P.enumerate_planar(n)

    def work(P, basis):
        return {t: P.psi_inverse(t) for t in basis}

    def check(P, inverses):
        sample = random.Random(n).sample(sorted(inverses, key=str), 20)
        for sigma in sample:
            image: dict = {}
            for rho, d in inverses[sigma].terms:
                for t, c in P.psi(rho).terms:
                    image[t] = image.get(t, 0) + c * d
            if {t: c for t, c in image.items() if c} != {sigma: 1}:
                return False, f"psi(psi_inverse({sigma})) != {sigma}"
        return True, "psi(psi_inverse(sigma)) = sigma on 20 seeded trees"

    return setup, work, check


def _beta_default(n: int):
    def work(P, _):
        return P.beta_matrix(P.default_section(n), n)

    def check(P, m):
        return m.is_unipotent_upper_triangular(), "unipotent upper triangular"

    return (lambda P: None), work, check


def _oracle_all(n: int):
    """Both coefficient methods on every degree-n pair: (sigma, tau) planar
    for the recursion and the bijection count, (s, tau) for alpha and the
    normalized count."""

    def setup(P):
        return P.enumerate_planar(n), P.enumerate_nonplanar(n)

    def work(P, bases):
        planar, nonplanar = bases
        c = {(sigma, tau): (P.coeff_c_recursive(sigma, tau), P.coeff_c_bijections(sigma, tau))
             for sigma in planar for tau in planar}
        a = {(s, tau): (P.alpha(s, tau), P.count_tilde_b(s, tau))
             for s in nonplanar for tau in planar}
        return c, a

    def check(P, out):
        c, a = out
        for (sigma, tau), (rec, bij) in c.items():
            if rec != bij:
                return False, f"c({sigma}, {tau}): recursion {rec}, bijections {bij}"
        for (s, tau), (alpha, tilde) in a.items():
            if alpha * P.symmetry_factor(s) != tilde:
                return False, f"alpha({s}, {tau}) = {alpha}, tilde_b = {tilde}"
        for name, pairs in (("c", c), ("alpha", a)):
            sums: dict = {}
            for (_, tau), (value, _) in pairs.items():
                sums[tau] = sums.get(tau, 0) + value
            for tau, total in sums.items():
                if total != P.n_statistic(tau):
                    return False, f"sum of {name}(., {tau}) = {total}, N = {P.n_statistic(tau)}"
            if sum(sums.values()) != a088716(n):
                return False, f"{name} entry sum {sum(sums.values())}, A088716({n}) = {a088716(n)}"
        return True, (f"{len(c)} + {len(a)} pairs agree; column sums are N(tau), "
                      f"A088716({n}) in all")

    return setup, work, check


def _oracle_sample(n: int, pairs: int):
    """Both coefficient methods, cold, on seeded degree-n pairs above the
    brute-force cap; half of the sigmas lie in the support of psi(tau)."""

    def setup(P):
        rng = random.Random(n)
        basis = P.enumerate_planar(n)
        sample = []
        for k in range(pairs):
            tau = rng.choice(basis)
            image = P.psi(tau)
            sigma = rng.choice(image.terms)[0] if k % 2 else rng.choice(basis)
            sample.append((sigma, tau, image.coefficient(sigma)))
        return sample

    def work(P, sample):
        return [(sigma, tau, want, P.coeff_c_recursive(sigma, tau),
                 P.coeff_c_bijections(sigma, tau, cap=n))
                for sigma, tau, want in sample]

    def check(P, out):
        for sigma, tau, want, rec, bij in out:
            if not rec == bij == want:
                return False, f"c({sigma}, {tau}): recursion {rec}, bijections {bij}, psi {want}"
        nonzero = sum(1 for *_, rec, _ in out if rec)
        return True, f"{len(out)} pairs ({nonzero} nonzero) agree with psi"

    return setup, work, check


LAYERS = {
    "psi_all_9": _psi_layer(9),
    "psi_all_10": _psi_layer(10),
    "psi_matrix_9": _psi_matrix(9),
    "alpha_matrix_9_after_psi_matrix": _alpha_after_psi(9),
    "psi_inverse_all_9": _psi_inverse(9),
    "beta_matrix_default_section_9": _beta_default(9),
    "oracle_all_7": _oracle_all(7),
    "oracle_sample_10": _oracle_sample(10, 1000),
}


def _vmhwm_mib() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(name: str) -> int:
    import prelie as P

    setup, work, check = LAYERS[name]
    state = setup(P)
    start = time.perf_counter()
    out = work(P, state)
    wall = time.perf_counter() - start
    ok, detail = check(P, out)
    print(json.dumps({"wall_s": wall, "vmhwm_mib": _vmhwm_mib(), "ok": ok, "check": detail}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# runner


def run_once(src: str, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", name],
            env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "check": f"timed out after {TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        tail = proc.stderr.strip().splitlines()[-1:]
        return {"ok": False, "check": f"exit {proc.returncode} {tail}"}
    return json.loads(lines[-1])


def summarize(runs: list[dict]) -> dict:
    ok = all(r["ok"] for r in runs)
    out = {"ok": ok, "check": runs[-1]["check"]}
    if ok:
        for key in ("wall_s", "vmhwm_mib"):
            values = [r[key] for r in runs]
            out[key] = round(statistics.median(values), 4)
            out[f"{key}_runs"] = [round(v, 4) for v in values]
    return out


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def unpack(ref: str, workdir: str) -> tuple[str, str]:
    """The ``src`` directory of ``ref`` unpacked under ``workdir``, and the
    revision's full commit id."""
    commit = git("rev-parse", ref)
    dest = os.path.join(workdir, commit[:12])
    if not os.path.isdir(dest):
        data = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", commit, "src"],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(dest)
    return os.path.join(dest, "src"), commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", choices=sorted(LAYERS), help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="git revision to measure alongside this checkout")
    parser.add_argument("--workdir", help="where the parent's tree is unpacked")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH.json"))
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)

    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src"))
    sides = {"change": (os.path.join(ROOT, "src"), git("rev-parse", "HEAD"), dirty)}
    if args.parent:
        workdir = args.workdir or tempfile.mkdtemp(prefix="prelie-bench-")
        src, commit = unpack(args.parent, workdir)
        sides["parent"] = (src, commit, False)

    results = {side: {} for side in sides}
    for name in LAYERS:
        runs = {side: [] for side in sides}
        for k in range(RUNS):
            for side, (src, _, _) in sides.items():
                r = run_once(src, name)
                runs[side].append(r)
                shown = f"{r['wall_s']:.3f} s, {r['vmhwm_mib']:.1f} MiB" if r["ok"] else "FAILED"
                print(f"{name} {side} run {k + 1}: {shown} ({r['check']})", file=sys.stderr)
        for side in sides:
            results[side][name] = summarize(runs[side])

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "runs": RUNS,
        "wall_s": "layer only, set-up excluded; median of runs",
        "vmhwm_mib": "peak resident set of the whole process (VmHWM); median of runs",
    }
    for side, (_, commit, dirty) in sides.items():
        report[side] = {"commit": commit, "uncommitted_src_changes": dirty,
                        "layers": results[side]}
    if "parent" in sides:
        report["change_over_parent"] = {
            name: {
                key: round(results["change"][name][key] / results["parent"][name][key], 3)
                for key in ("wall_s", "vmhwm_mib")
            }
            for name in LAYERS
            if results["change"][name]["ok"] and results["parent"][name]["ok"]
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    ok = all(r["ok"] for side in results.values() for r in side.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
