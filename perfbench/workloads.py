"""The four benchmark workloads: seeded inputs, timed operations, checks.

Every input the program sees is text made here from the seed: planar tree
text drawn uniformly by the cyclic lemma, or every tree of a degree
enumerated by this module's own code.  Each workload calls the library
through attribute lookups on the ``prelie`` package at call time, so a
traced run sees the wrapped functions.

Why each workload exists (see README.md for the layer table):

* ``matrices`` - a few huge sums: whole planar bases through ``psi_matrix``,
  ``alpha_matrix`` and ``beta_matrix`` plus ``psi_inverse`` of every planar
  tree.  ``TreeSum.make``/``bilinear_extend``, the dense ``CoeffMatrix`` and
  the dense back-substitution do the work; ``orders`` is never called.
* ``oracle`` - brute-force dual-method checks on every pair: the ``orders``
  closure, vertex-bijection backtracking and the coefficient recursion do
  the work and ``TreeSum`` products are bypassed.  It is the "no change
  predicted" workload for a product-kernel change.
* ``grafting`` - many tiny non-planar sums (pre-Lie and NAP identities on
  seeded triples) plus AG-basis expansions: uses ``products`` differently
  from ``matrices`` and exercises ``monomials``.  A change tuned for big
  sums that slows small ones shows here.
* ``queries`` - a closed loop with one client sending seeded requests
  through ``prelie.cli.main``: the only workload that measures ``cli`` and
  per-request parse/serialize, and where a whole-degree precompute shows up
  in the tail latency.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import statistics
from array import array
import io
import random
import re
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path
from time import perf_counter

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Degrees.  The whole run of one workload in one fresh process is kept to a
# few seconds so that a run can repeat it several times and report medians.
MATRIX_MAX_DEGREE = 7  # psi/alpha/beta matrices and psi_inverse, n = 1..7
ORACLE_MAX_DEGREE = 7  # every (sigma, tau) and (s, tau) pair, n = 1..7
AG_MAX_DEGREE = 8  # AG basis expansion, tree-grounded check, beta round trip
TRIPLE_MAX_DEGREE = 9  # total degree of an identity triple
TRIPLE_ROUNDS = 4  # each of the 84 degree compositions, 4 times: 336 triples

# Request mix of the queries workload: (kind, requests per repetition,
# lowest degree, highest degree).  Counts are exact and degrees cycle through
# each range, so only the trees and the order are random.  Cold degree-8 psi
# requests cost 5-500 ms.  With 100 of them the 99th percentile fell in their
# far tail and moved by +-25% between seeds; with 20 it fell among the few
# garbage-collection pauses (10-20 ms), which slow down most when the machine
# is busy.  With 50 it sits inside the degree-8 cluster.  The ranges are
# small enough that make_golden.py can store a digest of the response to
# every possible request.
QUERY_MIX = (
    ("psi", 350, 5, 7),
    ("psi", 50, 8, 8),
    ("coeff", 200, 4, 6),
    ("alpha", 150, 4, 6),
    ("psi-inverse", 100, 3, 7),
    ("product", 150, 1, 5),
)


# ---------------------------------------------------------------------------
# tree text, generated and inspected without the program


def random_planar(rng: random.Random, n: int) -> str:
    """Uniform planar rooted tree with n vertices, by the cyclic lemma.

    A shuffled word of n-1 up steps and n down steps has exactly one
    rotation whose proper prefixes stay non-negative; dropping its final
    down step leaves the Dyck path of the tree's depth-first walk.
    """
    steps = [1] * (n - 1) + [-1] * n
    rng.shuffle(steps)
    height = low = cut = 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    word = steps[cut:] + steps[:cut]
    return "(" + "".join("(" if s > 0 else ")" for s in word[:-1]) + ")"


@lru_cache(maxsize=None)
def planar_texts(n: int) -> tuple[str, ...]:
    """Every planar rooted tree with n vertices, as text."""
    return tuple("(" + forest + ")" for forest in _forests(n - 1))


@lru_cache(maxsize=None)
def _forests(n: int) -> tuple[str, ...]:
    if n == 0:
        return ("",)
    return tuple(
        first + rest
        for k in range(1, n + 1)
        for first in planar_texts(k)
        for rest in _forests(n - k)
    )


def parse(text: str) -> tuple:
    """Planar tree text (unlabeled) to nested tuples of children."""
    stack: list[list] = [[]]
    for ch in text:
        if ch == "(":
            stack.append([])
        elif ch == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
    (root,) = stack[0]
    return root


def shape(node: tuple) -> str:
    """Canonical text of the non-planar tree: children sorted as strings."""
    return "(" + "".join(sorted(shape(c) for c in node)) + ")"


def degree(node: tuple) -> int:
    return 1 + sum(degree(c) for c in node)


def nonplanar_texts(n: int) -> list[str]:
    """One planar representative per non-planar tree with n vertices."""
    seen: dict[str, str] = {}
    for text in planar_texts(n):
        seen.setdefault(shape(parse(text)), text)
    return sorted(seen.values())


def image_size(node: tuple) -> int:
    """Coefficient sum of psi(tau): N(v) = 1, N(b o-> t) = N(b) N(t) |t|."""
    if not node:
        return 1
    branch, trunk = node[0], node[1:]
    return image_size(branch) * image_size(trunk) * degree(trunk)


def a088716(n: int) -> int:
    """a(1) = 1, a(n) = sum_p a(p) a(n-p) (n-p): total of psi over degree n."""
    a = [0, 1]
    for m in range(2, n + 1):
        a.append(sum(a[p] * a[m - p] * (m - p) for p in range(1, m)))
    return a[n]


def sum_terms(text: str) -> list[tuple[int, str]]:
    """A tree sum printed as ``c t + c t - c t`` to (coefficient, tree)."""
    if text.strip() == "0":
        return []
    tokens = text.split()
    out = [(int(tokens[0]), tokens[1])]
    for i in range(2, len(tokens), 3):
        sign = -1 if tokens[i] == "-" else 1
        out.append((sign * int(tokens[i + 1]), tokens[i + 2]))
    return out


def coefficient_sum(text: str) -> int:
    return sum(c for c, _ in sum_terms(text))


def read_csv(text: str, cols=None) -> tuple[list[str], list[str], list[list[int]]]:
    """Rows, columns and entries of ``CoeffMatrix.to_csv`` output.  Column
    names with commas (monomials) must be passed in; the header is then
    checked against them."""
    lines = text.rstrip("\n").split("\n")
    if cols is None:
        cols = lines[0].split(",")[1:]
    elif lines[0] != "," + ",".join(cols):
        cols = []
    rows, entries = [], []
    for line in lines[1:]:
        name, *values = line.split(",")
        rows.append(name)
        entries.append([int(v) for v in values])
    return rows, cols, entries


def is_unipotent(rows, cols, entries) -> bool:
    return rows == cols and all(
        entries[i][j] == (1 if i == j else 0)
        for i in range(len(rows))
        for j in range(i + 1)
    )


def column_sums(entries) -> list[int]:
    return [sum(col) for col in zip(*entries)] if entries else []


def parse_monomial(text: str):
    """``[x,y]`` monomial text to nested pairs, a generator being None."""
    return ast.literal_eval(re.sub(r"[a-z0-9_]+", "None", text))


def monomial_fold(m) -> tuple:
    """Butcher fold of a parsed monomial [x, y]: the tree of y with the tree
    of x added as a child of its root."""
    return () if m is None else (monomial_fold(m[0]),) + monomial_fold(m[1])


def monomial_size(m) -> tuple[int, int]:
    """(degree, coefficient sum of its grafting expansion): a generator
    gives (1, 1) and S([x,y]) = S(x) S(y) deg(y), since grafting onto y
    sums over the deg(y) vertices of each tree of y."""
    if m is None:
        return 1, 1
    (dx, sx), (dy, sy) = monomial_size(m[0]), monomial_size(m[1])
    return dx + dy, sx * sy * dy


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# timing


# The host's speed drifts by up to +-25% within a second and over minutes,
# and moves every timing alike.  Timing calibration_loop, a fixed loop that
# never calls the program, between operations measures that speed; the
# recorder scales every interval by it.  Consecutive runs of the loop agree
# within about 10%, runs half a second apart differ by up to 35%, hence the
# short interval.
REFERENCE_CAL_S = 0.006  # about the loop's median on the 2-core VM of the baseline
CALIBRATE_EVERY_S = 0.25


def calibration_loop() -> float:
    """Time one run of a loop that builds tuples, hashes and sorts, as the
    program does.  The collector is off so that the size of the program's
    heap does not change the result.  Its table stays small (679 keys), so
    that it adds next to nothing to the peak resident set."""
    gc.disable()
    start = perf_counter()
    table: dict = {}
    for i in range(16000):
        key = (i % 97, i % 7)
        table[key] = table.get(key, 0) + i * 3
    sorted(table.items())
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


class Recorder:
    """Times each operation on a clock corrected for the host's speed.

    The loop is timed three times when the recorder is made, then after the
    first operation that ends CALIBRATE_EVERY_S or more after the previous
    run.  The time from the first call to the last result, less the time
    spent in the loop, is cut into stretches between two runs; a stretch
    and the operations in it are scaled by REFERENCE_CAL_S over the mean of
    the two runs.  So every time is in seconds of a host on which the loop
    takes REFERENCE_CAL_S.  An operation that raises is counted as failed
    and the workload goes on.  Call finish() after the last operation."""

    def __init__(self):
        self.latencies = array("d")  # seconds; 8 bytes each, to keep peak RSS low
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.calibrations = sorted(calibration_loop() for _ in range(3))
        self._last_cal = self.calibrations[1]
        self._pending: list[float] = []  # raw latencies of the open stretch
        self._mark = self._end = None  # open stretch: start, last result

    def op(self, fn, *args):
        t0 = perf_counter()
        if self._mark is None:
            self._mark = t0
        try:
            out = fn(*args)
        except (Exception, SystemExit) as exc:  # the program failed; count it
            out = None
            self.errors.append(f"{getattr(fn, '__name__', fn)}{args!r}: {exc!r}")
        t1 = perf_counter()
        self._pending.append(t1 - t0)
        self._end = t1
        if t1 - self._mark >= CALIBRATE_EVERY_S:
            self._close_stretch()
        return out

    def _close_stretch(self):
        cal = calibration_loop()
        self.calibrations.append(cal)
        scale = 2 * REFERENCE_CAL_S / (self._last_cal + cal)
        self.wall_s += (self._end - self._mark) * scale
        self.latencies.extend(t * scale for t in self._pending)
        self._pending.clear()
        self._last_cal = cal
        self._mark = perf_counter()

    def finish(self):
        if self._pending:
            self._close_stretch()

    def setup_scale(self) -> float:
        """Scale for a time taken just before the recorder was made."""
        return REFERENCE_CAL_S / statistics.median(self.calibrations[:3])


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# matrices


def run_matrices(P, rng: random.Random, rec: Recorder) -> dict:
    csvs = []
    for n in range(1, MATRIX_MAX_DEGREE + 1):
        csvs.append(("psi", n, rec.op(lambda: P.psi_matrix(n).to_csv())))
        csvs.append(("alpha", n, rec.op(lambda: P.alpha_matrix(n).to_csv())))
        csvs.append(
            ("beta", n, rec.op(lambda: P.beta_matrix(P.default_section(n), n).to_csv()))
        )
    sigmas = [t for n in range(1, MATRIX_MAX_DEGREE + 1) for t in planar_texts(n)]
    rng.shuffle(sigmas)
    inverses = {
        s: rec.op(lambda: P.psi_inverse(P.parse_planar(s)).to_text()) for s in sigmas
    }
    return {"csvs": csvs, "inverses": inverses}


def check_matrices(out: dict, rng: random.Random, chk: Checks) -> list[str]:
    psi_cols: dict[str, dict[str, int]] = {}
    parsed = {}
    for kind, n, text in out["csvs"]:
        chk.expect(text is not None, f"{kind} matrix n={n} missing")
        if text is not None:
            parsed[kind, n] = read_csv(text)
    for n in range(1, MATRIX_MAX_DEGREE + 1):
        if ("psi", n) not in parsed:
            continue
        rows, cols, entries = parsed["psi", n]
        chk.expect(sorted(rows) == sorted(planar_texts(n)), f"psi n={n} basis")
        chk.expect(is_unipotent(rows, cols, entries), f"psi n={n} not unipotent")
        total = sum(map(sum, entries))
        chk.expect(total == a088716(n), f"psi n={n} entry sum {total}")
        for j, col in enumerate(cols):
            psi_cols[col] = {rows[i]: entries[i][j] for i in range(len(rows)) if entries[i][j]}
        if ("alpha", n) in parsed:
            a_rows, a_cols, a_entries = parsed["alpha", n]
            chk.expect(a_cols == cols, f"alpha n={n} columns")
            chk.expect(
                column_sums(a_entries) == column_sums(entries),
                f"alpha n={n} column sums differ from psi",
            )
            chk.expect(
                len(a_rows) == len(nonplanar_texts(n)), f"alpha n={n} row count"
            )
        if ("beta", n) in parsed:
            chk.expect(is_unipotent(*parsed["beta", n]), f"beta n={n} not unipotent")
    # psi(psi_inverse(sigma)) = sigma on a seeded sample, composed here from
    # the psi matrix columns.
    inverses = out["inverses"]
    for sigma in rng.sample(sorted(inverses), 60):
        text = inverses[sigma]
        if text is None:
            chk.expect(False, f"psi_inverse {sigma} missing")
            continue
        image: dict[str, int] = {}
        for c, tau in sum_terms(text):
            for row, e in psi_cols.get(tau, {}).items():
                image[row] = image.get(row, 0) + c * e
        image = {k: v for k, v in image.items() if v}
        chk.expect(image == {sigma: 1}, f"psi(psi_inverse({sigma})) != {sigma}")
    parts = [f"{kind} {n}\n{text}" for kind, n, text in out["csvs"]]
    parts += [f"{s} {inverses[s]}" for s in sorted(inverses)]
    return parts


# ---------------------------------------------------------------------------
# oracle


def run_oracle(P, rng: random.Random, rec: Recorder) -> list:
    """Per degree: the shuffled work list, the symmetry factors and one
    result per work item.  Results stay aligned with the work list, so the
    harness keeps no per-pair records of its own."""
    out = []
    for n in range(1, ORACLE_MAX_DEGREE + 1):
        planar = list(planar_texts(n))
        taus = dict(zip(planar, rec.op(lambda: [P.parse_planar(t) for t in planar])))
        nonplanar = nonplanar_texts(n)
        ss = dict(zip(nonplanar, rec.op(lambda: [P.parse_tree(t) for t in nonplanar])))
        work = [("c", a, b) for a in planar for b in planar]
        work += [("a", s, b) for s in nonplanar for b in planar]
        rng.shuffle(work)
        syms = {s: rec.op(P.symmetry_factor, ss[s]) for s in nonplanar}
        results = []
        for kind, a, b in work:
            if kind == "c":
                sigma, tau = taus[a], taus[b]
                results.append(rec.op(
                    lambda: (P.coeff_c_recursive(sigma, tau), P.coeff_c_bijections(sigma, tau))
                ))
            else:
                s, tau = ss[a], taus[b]
                results.append(rec.op(lambda: (P.alpha(s, tau), P.count_tilde_b(s, tau))))
        out.append((work, syms, results))
    return out


def check_oracle(out: list, rng: random.Random, chk: Checks) -> list[str]:
    col_c: dict[str, int] = {}
    col_alpha: dict[str, int] = {}
    parts_c, parts_alpha = [], []
    for work, syms, results in out:
        for (kind, a, b), got in zip(work, results):
            if kind == "c":
                parts_c.append(f"c {a} {b} {got}")
                if got is None:
                    chk.expect(False, f"c({a},{b}) missing")
                    continue
                rec_c, bij_c = got
                chk.expect(rec_c == bij_c, f"c({a},{b}): recursion {rec_c} != bijections {bij_c}")
                col_c[b] = col_c.get(b, 0) + rec_c
            else:
                sym = syms[a]
                parts_alpha.append(f"alpha {a} {b} {sym} {got}")
                if got is None or sym is None:
                    chk.expect(False, f"alpha({a},{b}) missing")
                    continue
                alpha, tilde = got
                chk.expect(alpha * sym == tilde, f"alpha({a},{b})*{sym} != tilde_b {tilde}")
                col_alpha[b] = col_alpha.get(b, 0) + alpha
    for n in range(1, ORACLE_MAX_DEGREE + 1):
        for tau in planar_texts(n):
            want = image_size(parse(tau))
            chk.expect(col_c.get(tau) == want, f"sum_sigma c(sigma,{tau}) != {want}")
            chk.expect(col_alpha.get(tau) == want, f"sum_s alpha(s,{tau}) != {want}")
    return sorted(parts_c) + sorted(parts_alpha)


# ---------------------------------------------------------------------------
# grafting


def _degree_triples(max_total: int) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a in range(1, max_total)
        for b in range(1, max_total)
        for c in range(1, max_total)
        if a + b + c <= max_total
    ]


def _identities(P, s_text: str, t_text: str, u_text: str):
    s, t, u = P.parse_tree(s_text), P.parse_tree(t_text), P.parse_tree(u_text)
    one = P.TreeSum.single
    st, ts = P.graft(s, t), P.graft(t, s)
    left = P.bilinear_extend("graft", st, one(u)) - P.bilinear_extend(
        "graft", one(s), P.graft(t, u)
    )
    right = P.bilinear_extend("graft", ts, one(u)) - P.bilinear_extend(
        "graft", one(t), P.graft(s, u)
    )
    nap_left = P.butcher(s, P.butcher(t, u)).serialize()
    nap_right = P.butcher(t, P.butcher(s, u)).serialize()
    return st.to_text(), left.to_text(), right.to_text(), nap_left, nap_right


def _ag_step(P, n: int):
    basis = P.ag_basis(n)
    return basis, basis.serialized(), P.expand_basis(basis).to_csv()


def run_grafting(P, rng: random.Random, rec: Recorder) -> dict:
    shapes = _degree_triples(TRIPLE_MAX_DEGREE) * TRIPLE_ROUNDS
    triples = [tuple(random_planar(rng, d) for d in degs) for degs in shapes]
    rng.shuffle(triples)
    verdicts = [rec.op(_identities, P, *triple) for triple in triples]
    ag = []
    for n in range(1, AG_MAX_DEGREE + 1):
        step = rec.op(_ag_step, P, n)
        if step is None:
            ag.append((n, None, None, None, None))
            continue
        basis, monos, expansion = step
        grounded = rec.op(lambda: P.is_tree_grounded(basis.monomials, n)[0])
        beta = rec.op(
            lambda: P.beta_matrix(P.section_of_basis(basis.monomials, n), n).to_csv()
        )
        ag.append((n, monos, expansion, grounded, beta))
    return {"triples": triples, "verdicts": verdicts, "ag": ag}


def check_grafting(out: dict, rng: random.Random, chk: Checks) -> list[str]:
    parts = []
    for (s, t, u), got in zip(out["triples"], out["verdicts"]):
        if got is None:
            chk.expect(False, f"identities on {s} {t} {u} failed")
            parts.append("error")
            continue
        st, left, right, nap_left, nap_right = got
        chk.expect(coefficient_sum(st) == degree(parse(t)), f"graft({s},{t}) size")
        chk.expect(left == right, f"pre-Lie identity fails on {s} {t} {u}")
        chk.expect(nap_left == nap_right, f"NAP identity fails on {s} {t} {u}")
        parts.append(f"pre-lie {left == right} nap {nap_left == nap_right}")
    for n, monos, expansion, grounded, beta in out["ag"]:
        if None in (monos, expansion, grounded, beta):
            chk.expect(False, f"AG basis n={n} incomplete")
            continue
        rows, cols, entries = read_csv(expansion, list(monos))
        chk.expect(len(rows) == len(nonplanar_texts(n)), f"AG n={n} row count")
        chk.expect(cols == list(monos), f"AG n={n} columns")
        sums = column_sums(entries)
        for j, m in enumerate(monos):
            chk.expect(monomial_size(parse_monomial(m)) == (n, sums[j]), f"expansion of {m}")
        chk.expect(grounded is True, f"AG basis n={n} not tree-grounded")
        b_rows, b_cols, b_entries = read_csv(beta)
        chk.expect(is_unipotent(b_rows, b_cols, b_entries), f"beta(AG) n={n} not unipotent")
        beta_col = {
            shape(parse(name)): {r: b_entries[i][j] for i, r in enumerate(b_rows)}
            for j, name in enumerate(b_cols)
        }
        for j, m in enumerate(monos):
            want = {r: entries[i][j] for i, r in enumerate(rows)}
            got = beta_col.get(shape(monomial_fold(parse_monomial(m))))
            chk.expect(got == want, f"beta column of {m} differs from its expansion")
        parts += [f"ag {n}", " ".join(monos), expansion, str(grounded), beta]
    return parts


# ---------------------------------------------------------------------------
# queries


def query_argv(rng: random.Random, kind: str, n: int, lo: int, hi: int) -> list[str]:
    if kind == "psi-inverse":
        return ["compute", kind, "--tree", random_planar(rng, n)]
    if kind == "coeff":
        a, b = random_planar(rng, n), random_planar(rng, n)
        return ["compute", "coeff", "--sigma", a, "--tau", b, "--method", "both"]
    if kind == "alpha":
        a, b = random_planar(rng, n), random_planar(rng, n)
        return ["compute", "alpha", "--s", a, "--tau", b, "--method", "both"]
    product = rng.choice(("graft", "left-graft"))
    left, right = random_planar(rng, n), random_planar(rng, rng.randint(lo, hi))
    return ["compute", "product", "--product", product, "--left", left, "--right", right]


def stratified_psi_trees(rng: random.Random, n: int, count: int) -> list[str]:
    """count trees of degree n for psi requests: the planar trees ordered by
    N(tau), the coefficient sum of psi(tau), are cut into count equal
    strata and one tree is drawn from each.  Every tree is about as likely
    as in a uniform draw, but each repetition holds the same share of the
    costly trees (psi's cost grows with N(tau)), which set the tail
    latency."""
    trees = sorted(planar_texts(n), key=lambda t: (image_size(parse(t)), t))
    cut = [i * len(trees) // count for i in range(count + 1)]
    return [rng.choice(trees[cut[i] : max(cut[i] + 1, cut[i + 1])]) for i in range(count)]


def query_plan(rng: random.Random) -> list[list[str]]:
    """One repetition's requests, in random order."""
    requests = []
    for kind, count, lo, hi in QUERY_MIX:
        degrees = [lo + i % (hi - lo + 1) for i in range(count)]
        if kind == "psi":
            for n in range(lo, hi + 1):
                trees = stratified_psi_trees(rng, n, degrees.count(n))
                requests += [["compute", "psi", "--tree", t] for t in trees]
        else:
            requests += [query_argv(rng, kind, n, lo, hi) for n in degrees]
    rng.shuffle(requests)
    return requests


def query_universe():
    """Every request query_argv can produce, for make_golden.py."""
    for kind, _, lo, hi in QUERY_MIX:
        for n in range(lo, hi + 1):
            if kind in ("psi", "psi-inverse"):
                for t in planar_texts(n):
                    yield ["compute", kind, "--tree", t]
            elif kind in ("coeff", "alpha"):
                flags = ("--sigma", "--tau") if kind == "coeff" else ("--s", "--tau")
                for a in planar_texts(n):
                    for b in planar_texts(n):
                        yield ["compute", kind, flags[0], a, flags[1], b, "--method", "both"]
            else:
                for product in ("graft", "left-graft"):
                    for m in range(lo, hi + 1):
                        for a in planar_texts(n):
                            for b in planar_texts(m):
                                yield [
                                    "compute", "product", "--product", product,
                                    "--left", a, "--right", b,
                                ]


def request(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def response_key(argv: list[str], code: int, stdout: str) -> str:
    """Short digest of one request and its response, as stored in
    golden/queries.txt."""
    text = "\x1f".join(argv) + f"\x1e{code}\x1e" + stdout
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_queries(P, rng: random.Random, rec: Recorder) -> dict:
    requests = query_plan(rng)
    cli = P.cli
    responses = [rec.op(request, cli, argv) for argv in requests]
    return {"requests": requests, "responses": responses}


@lru_cache(maxsize=None)
def golden_queries() -> frozenset:
    with open(GOLDEN_DIR / "queries.txt") as fh:
        return frozenset(fh.read().split())


def check_queries(out: dict, rng: random.Random, chk: Checks) -> list[str]:
    golden = golden_queries()
    for argv, got in zip(out["requests"], out["responses"]):
        if got is None:
            chk.expect(False, f"request {argv} raised")
            continue
        code, stdout = got
        chk.expect(code == 0, f"request {argv} exit code {code}")
        chk.expect(response_key(argv, code, stdout) in golden, f"request {argv} output digest")
        lines = stdout.splitlines()
        kind = argv[1]
        if kind == "psi":
            want = image_size(parse(argv[3]))
            chk.expect(coefficient_sum(stdout) == want, f"psi({argv[3]}) size")
        elif kind == "product":
            want = degree(parse(argv[7]))
            chk.expect(coefficient_sum(stdout) == want, f"{argv} size")
        elif kind == "coeff":
            values = [line.split(": ")[1] for line in lines[:2]]
            chk.expect(len(set(values)) == 1 and lines[2:] == ["match"], f"{argv} methods")
        elif kind == "alpha":
            values = dict(line.split(": ") for line in lines[:-1])
            ok = int(values["alpha"]) * int(values["sym"]) == int(values["tilde_b"])
            chk.expect(ok and lines[-1] == "match", f"{argv} methods")
    return []


WORKLOADS = {
    "matrices": (run_matrices, check_matrices),
    "oracle": (run_oracle, check_oracle),
    "grafting": (run_grafting, check_grafting),
    "queries": (run_queries, check_queries),
}
