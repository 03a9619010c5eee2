"""Per-layer wall time and peak memory of prelie at degrees 7 to 13.

    python3 bench/layers.py [--parent REF] [--workdir DIR] [--out BENCH.json]
                            [--layers NAME,NAME,...]

Each layer runs in a fresh Python process that imports ``prelie`` from a
source tree: this checkout's ``src``, and with ``--parent`` also the tree
of the git revision REF, unpacked with ``git archive`` under ``--workdir``
(a new temporary directory by default).  The runs go in pairs, one run of
each side, and the side that runs first alternates pair by pair, so that
drift of the host's speed hits both alike.  For every layer the file
records the median, the spread ((max - min) / median) and each run of the
layer's own wall time (set-up excluded) and of the process's peak
resident set (``VmHWM``, read at its end; set-up included), plus Python,
``nproc`` and the commits.  A layer runs RUNS pairs, or FAST_RUNS pairs
when the first run of the parent (of this checkout without ``--parent``)
takes under FAST_S seconds: such short layers read bimodally from run to
run, so they need more pairs to tell a change from noise.  After that it
runs one more pair at a time, up to MAX_RUNS pairs in all, while the
parent's wall times spread more than MAX_SPREAD: a layer whose runs of
one side spread by a third reads a 1% change as 6-10% in three pairs.  With
``--parent`` it also records, per layer, the change's median over the
parent's and how many of the pairs the change won (ties count for neither
side).  Without ``--out`` the file is ``BENCH.json`` at the root;
``--layers`` runs only the named layers, in the order given.

A layer's output is checked after it is timed: the degree-12 planar and
non-planar bases hold 58786 and 4766 trees, none repeated; the entry
sum of every psi and alpha matrix, and the coefficient total of psi over
a whole degree, equal the A088716 term, and each matrix column sums to N(tau), the
coefficient sum of psi(tau), and every psi matrix is unipotent upper
triangular; the inverse satisfies
sum_tau psi^-1(sigma)_tau N(tau) = 1 for every sigma (the coefficient sum
of psi(psi^-1(sigma)) = sigma) and composes back to the identity on a
seeded sample (20 trees, 3 at degree 11); beta of the default section is unipotent, and each of its
columns sums to N of the column's default-section text.  The two coefficient oracles agree on
every pair of degree 7 and of degree 8 (the brute-force cap), with column
sums N(tau); on seeded degree-10 pairs they agree with the coefficient in
psi(tau); on the degree-11 corolla and brooms, with the cap raised to 11,
the bijection count is alpha times the symmetry factor.  The degree-10
AG expansion is 719 x 719 and each column sums to S(m), where S(g) = 1
and S([x,y]) = S(x) S(y) deg(y).  At degree 8 the beta matrix of the AG
section has, for each basis monomial, the monomial's expansion column as
the column of its lower-energy term.  ``verify tree-grounded`` through
degree 12 passes all of its 23 checks.  The pre-Lie and NAP identities hold
on all 1353 triples of total degree 10 and on 336 seeded triples of total
degree at most 9, unlabeled and with every vertex labeled a or b, and
each graft(s, t) has coefficient sum |t|.  The
2000 seeded ``prelie.cli.main`` requests of ``cli_requests_2000`` all exit
0, each psi answer sums to N(tau), each product answer to the size of its
right operand, and every ``--method both`` answer prints ``match``; the
50 fresh-process requests of ``cli_oneshot_50`` exit 0 with the same
psi and product sums.  ``alpha_matrix_11`` (1842 x 16796) and
``beta_matrix_default_section_13`` (12486 x 12486) are above the dense cell
budget: only their columns are built, and a source tree whose builders
refuse such a matrix up front fails both.  A failed check fails the run and the script exits 1.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import contextlib
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
RUNS = 3  # pairs of runs per layer
FAST_RUNS = 9  # pairs for a layer whose first run takes under FAST_S
FAST_S = 0.1
MAX_RUNS = 12  # pairs at most, added while the parent's runs spread widely
MAX_SPREAD = 0.1
TIMEOUT_S = 900.0  # per run; the parent's psi over degree 10 takes about 40 s


def a088716(n: int) -> int:
    """a(1) = 1, a(n) = sum_p a(p) a(n-p) (n-p)."""
    a = [0, 1]
    for m in range(2, n + 1):
        a.append(sum(a[p] * a[m - p] * (m - p) for p in range(1, m)))
    return a[n]


# ---------------------------------------------------------------------------
# layers: (set-up, timed work, check) run in the child process


def _enumerate(n: int, planar: int, nonplanar: int):
    """Both tree bases of degree n, built cold: each has its closed-form
    size, and no text repeats."""

    def work(P, _):
        return P.enumerate_planar(n), P.enumerate_nonplanar(n)

    def check(P, out):
        for name, trees, want in zip(("planar", "non-planar"), out, (planar, nonplanar)):
            distinct = len({t.serialize() for t in trees})
            if len(trees) != want or distinct != want:
                return False, f"{len(trees)} {name} trees, {distinct} distinct; want {want}"
        return True, f"{planar} planar and {nonplanar} non-planar trees, none repeated"

    return (lambda P: None), work, check


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
    """Entry sum A088716(n), and each column, named by a planar tree text,
    sums to N(tau).  The sums are read from the matrix's columns, so the
    check builds no dense view of the matrix."""

    def check(P, m):
        total = m.entry_sum()
        if total != a088716(n):
            return False, f"entry sum {total}, A088716({n}) = {a088716(n)}"
        for tau, total in zip(m.col_basis, m.column_sums()):
            if total != _image_size(tau):
                return False, f"column {tau} sums to {total}, N = {_image_size(tau)}"
        return True, f"entry sum A088716({n}) = {a088716(n)}; column sums N(tau)"

    return check


def _psi_matrix(n: int):
    """psi_matrix(n), cold: unipotent upper triangular, and the entry and
    column sums of :func:`_matrix_check`."""
    sums = _matrix_check(n)

    def check(P, m):
        if not m.is_unipotent_upper_triangular():
            return False, "not unipotent upper triangular"
        ok, detail = sums(P, m)
        return ok, f"unipotent upper triangular; {detail}"

    return (lambda P: None), (lambda P, _: P.psi_matrix(n)), check


def _alpha_after_psi(n: int):
    return (lambda P: P.psi_matrix(n)), (lambda P, _: P.alpha_matrix(n)), _matrix_check(n)


def _alpha_matrix(n: int):
    return (lambda P: None), (lambda P, _: P.alpha_matrix(n)), _matrix_check(n)


def _psi_inverse(n: int, composed: int = 20):
    """psi_inverse of every degree-n planar tree, cold.  The check reads
    texts, building no tree but the preimage terms it composes with psi,
    on ``composed`` seeded trees: the psi images it computes are memoized,
    so a large sample would set the layer's peak memory."""

    def setup(P):
        return P.enumerate_planar(n)

    def work(P, basis):
        return {t: P.psi_inverse(t) for t in basis}

    def check(P, inverses):
        sizes: dict = {}
        for sigma, preimage in inverses.items():
            weighted = 0
            for text, d in preimage.texts:
                if text not in sizes:
                    sizes[text] = _image_size(text)
                weighted += d * sizes[text]
            if weighted != 1:
                return False, f"sum of c N(tau) over psi_inverse({sigma}) is {weighted}"
        sample = random.Random(n).sample(sorted(inverses, key=str), 20)[:composed]
        for sigma in sample:
            image: dict = {}
            for rho, d in inverses[sigma].terms:
                for t, c in P.psi(rho).texts:
                    image[t] = image.get(t, 0) + c * d
            if {t: c for t, c in image.items() if c} != {str(sigma): 1}:
                return False, f"psi(psi_inverse({sigma})) != {sigma}"
        return True, ("sum of c N(tau) over each psi_inverse(sigma) is 1; "
                      f"psi(psi_inverse(sigma)) = sigma on {composed} seeded trees")

    return setup, work, check


def _beta_default(n: int):
    """Beta of the default section, cold, with the degree as the cap.  The
    default section embeds each tree as the planar tree of its text, so a
    column named by a tree text sums to N of that text."""

    def work(P, _):
        return P.beta_matrix(P.default_section(n, n), n, n)

    def check(P, m):
        if not m.is_unipotent_upper_triangular():
            return False, "not unipotent upper triangular"
        for t, total in zip(m.col_basis, m.column_sums()):
            if total != _image_size(t):
                return False, f"column {t} sums to {total}, N = {_image_size(t)}"
        return True, "unipotent upper triangular; column sums N(tau) of the default section"

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


def _oracle_wide(n: int):
    """alpha and the bijection count, cold, with the cap raised to n, on
    every (s, tau) pair of wide degree-n shapes: the corolla and the
    brooms (a chain of 2 or 3 vertices whose last one holds the leaves),
    tau being the planar tree of the text of s.  Runs of identical leaves
    make both the fibers and the symmetric bijections grow factorially."""

    def setup(P):
        def star(k):
            return P.Tree((P.Tree(),) * k)

        shapes = [star(n - 1), P.Tree((star(n - 2),)), P.Tree((P.Tree((star(n - 3),)),))]
        return [(s, P.parse_planar(t.serialize())) for s in shapes for t in shapes]

    def work(P, pairs):
        return [(s, tau, P.alpha(s, tau), P.count_tilde_b(s, tau, cap=n)) for s, tau in pairs]

    def check(P, out):
        for s, tau, alpha, tilde in out:
            if alpha * P.symmetry_factor(s) != tilde:
                return False, f"alpha({s}, {tau}) = {alpha}, tilde_b = {tilde}"
        nonzero = sum(1 for *_, alpha, _ in out if alpha)
        return True, f"{len(out)} pairs ({nonzero} nonzero): tilde_b = alpha * sigma(s)"

    return setup, work, check


def _monomial_size(text: str) -> tuple[int, int]:
    """(degree, S) of a serialized monomial, where S(g) = 1 and
    S([x,y]) = S(x) S(y) deg(y): grafting x onto y has deg(y) terms, so S
    is the coefficient sum of the monomial's grafting expansion."""

    def parse(i: int) -> tuple[int, int, int]:
        if text[i] != "[":
            j = i
            while text[j] not in ",]":
                j += 1
            return 1, 1, j
        dx, sx, i = parse(i + 1)  # text[i] == ","
        dy, sy, i = parse(i + 1)  # text[i] == "]"
        return dx + dy, sx * sy * dy, i + 1

    degree, size, end = parse(0)
    if end != len(text):
        raise ValueError(f"trailing text in monomial {text!r}")
    return degree, size


def _ag_expand(n: int, rows: int):
    """The grafting expansion of the degree-n AG basis, basis included."""

    def work(P, _):
        return P.expand_basis(P.ag_basis(n))

    def check(P, m):
        if len(m.row_basis) != rows or len(m.col_basis) != rows:
            return False, f"shape {m.shape}, want {rows} x {rows}"
        for name, total in zip(m.col_basis, m.column_sums()):
            if _monomial_size(name) != (n, total):
                return False, f"column {name}: sum {total}, (degree, S) {_monomial_size(name)}"
        return True, f"{rows} x {rows}; every column sum is S(m)"

    return (lambda P: None), work, check


def _graft_identities(pick, triples: int):
    """The pre-Lie and NAP identities on the triples of non-planar trees
    that ``pick(P)`` returns, each graft(s, t) with coefficient sum |t|."""

    def work(P, sample):
        one = P.TreeSum.single
        out = []
        for s, t, u in sample:
            st = P.graft(s, t)
            left = P.bilinear_extend("graft", st, one(u)) - P.bilinear_extend(
                "graft", one(s), P.graft(t, u))
            right = P.bilinear_extend("graft", P.graft(t, s), one(u)) - P.bilinear_extend(
                "graft", one(t), P.graft(s, u))
            out.append((str(t), st, left.to_text(), right.to_text(),
                        str(P.butcher(s, P.butcher(t, u))), str(P.butcher(t, P.butcher(s, u)))))
        return out

    def check(P, out):
        if len(out) != triples:
            return False, f"{len(out)} triples, want {triples}"
        for t, st, left, right, nap_left, nap_right in out:
            size = st.coefficient_sum()
            if size != t.count("("):
                return False, f"graft onto {t} has coefficient sum {size}"
            if left != right:
                return False, f"pre-Lie identity fails: {left} != {right}"
            if nap_left != nap_right:
                return False, f"NAP identity fails: {nap_left} != {nap_right}"
        return True, f"{triples} triples; both identities hold, graft sums are |t|"

    return pick, work, check


def _all_triples(n: int):
    """Every triple of non-planar trees with total degree n."""

    def pick(P):
        pool = [t for m in range(1, n - 1) for t in P.enumerate_nonplanar(m)]
        return [(s, t, u) for s in pool for t in pool for u in pool
                if s.degree + t.degree + u.degree == n]

    return pick


def _seeded_triples(max_total: int, rounds: int):
    """``rounds`` uniform planar draws, read as non-planar trees, for each
    degree composition (a, b, c) with a + b + c <= max_total, shuffled: the
    many small sums of the identity checks."""

    def pick(P):
        rng = random.Random(max_total)
        shapes = [(a, b, c) for a in range(1, max_total) for b in range(1, max_total)
                  for c in range(1, max_total) if a + b + c <= max_total] * rounds
        triples = [tuple(P.parse_tree(_random_planar(rng, d)) for d in shape) for shape in shapes]
        rng.shuffle(triples)
        return triples

    return pick


def _labeled_triples(max_total: int, rounds: int):
    """The triples of ``_seeded_triples(max_total, rounds)`` with each
    vertex labeled a or b by a second seeded draw: the sums of labeled
    trees, which are ranked by their sort keys."""
    unlabeled = _seeded_triples(max_total, rounds)

    def pick(P):
        rng = random.Random(f"labels:{max_total}")

        def labeled(tree) -> str:
            return "".join(rng.choice("ab") + ch if ch == "(" else ch for ch in str(tree))

        return [tuple(P.parse_tree(labeled(t)) for t in triple) for triple in unlabeled(P)]

    return pick


def _ag_pipeline(n: int):
    """The degree-n AG basis, its grafting expansion, the section of its
    lower-energy terms and that section's beta matrix.  psi_bar carries
    the left Butcher fold of a monomial to its grafting fold, so the beta
    column of each lower-energy term is the expansion column of its
    monomial."""

    def work(P, _):
        basis = P.ag_basis(n)
        section = P.section_of_basis(basis.monomials, n)
        return basis, P.expand_basis(basis), P.beta_matrix(section, n)

    def check(P, out):
        basis, expansion, beta = out
        if expansion.row_basis != beta.row_basis:
            return False, "expansion and beta rows differ"
        for m in basis.monomials:
            lower = P.lower_energy_term(m).serialize()
            if expansion.column(m.serialize()) != beta.column(lower):
                return False, f"beta column of {lower} is not the expansion of {m.serialize()}"
        return True, f"{len(basis.monomials)} beta columns equal their expansion columns"

    return (lambda P: None), work, check


def _tree_grounded(n: int):
    """The tree-grounded suite through degree n: every AG basis is
    tree-grounded, and the beta columns of each degree's AG section equal
    the planar left-graft images projected termwise."""

    def work(P, _):
        return P.verify.run("tree-grounded", n)

    def check(P, report):
        checks, want = report["checks"], 2 * n - 1
        failed = [c["name"] for c in checks if c["status"] != "pass"]
        if report["status"] != "pass" or failed or len(checks) != want:
            return False, f"{len(checks)} checks (want {want}), failed: {failed}"
        return True, f"all {want} checks pass"

    return (lambda P: None), work, check


def _random_planar(rng: random.Random, n: int) -> str:
    """Uniform planar rooted tree with n vertices, by the cyclic lemma: of
    the rotations of a shuffled word of n - 1 steps up and n steps down,
    the one starting after the first lowest prefix keeps every proper
    prefix sum >= 0, and without its last step it is the Dyck word of the
    root's children."""
    steps = [1] * (n - 1) + [-1] * n
    rng.shuffle(steps)
    low = total = start = 0
    for i, step in enumerate(steps):
        total += step
        if total < low:
            low, start = total, i + 1
    word = steps[start:] + steps[:start]
    return "(" + "".join("(" if step > 0 else ")" for step in word[:-1]) + ")"


def _image_size(text: str) -> int:
    """N(tau), the coefficient sum of psi(tau) for an unlabeled planar
    tree: the product over vertices with children c_1 .. c_k of
    (1 + |c_{i+1}| + ... + |c_k|) for i = 1 .. k."""
    stack: list[list[int]] = [[]]  # sizes of the children read, per open vertex
    size = 1
    for ch in text:
        if ch == "(":
            stack.append([])
        else:
            rest = 1
            for child in reversed(stack.pop()):
                size *= rest
                rest += child
            stack[-1].append(rest)
    return size


def _coefficient_sum(text: str) -> int:
    return sum(int(term.split()[0]) for term in text.split(" + "))


# (kind, requests, lowest degree, highest degree); the degrees cycle
CLI_MIX = (
    ("psi", 800, 5, 8),
    ("coeff", 300, 4, 6),
    ("alpha", 300, 4, 6),
    ("psi-inverse", 300, 3, 7),
    ("product", 300, 1, 5),
)


def _cli_requests():
    """Seeded command lines through ``prelie.cli.main`` in one process,
    stdout captured, sharing the library's caches as a batch of requests
    does.  Every line is an ordinary request, which the grammar table
    parses without building the argparse tree."""

    def setup(P):
        import prelie.cli

        rng = random.Random(11)
        requests = []
        for kind, count, lo, hi in CLI_MIX:
            for i in range(count):
                n = lo + i % (hi - lo + 1)
                a, b = _random_planar(rng, n), _random_planar(rng, n)
                if kind in ("psi", "psi-inverse"):
                    argv = ["compute", kind, "--tree", a]
                elif kind == "coeff":
                    argv = ["compute", kind, "--sigma", a, "--tau", b, "--method", "both"]
                elif kind == "alpha":
                    argv = ["compute", kind, "--s", a, "--tau", b, "--method", "both"]
                else:
                    right = _random_planar(rng, rng.randint(lo, hi))
                    product = rng.choice(("graft", "left-graft"))
                    argv = ["compute", kind, "--product", product, "--left", a, "--right", right]
                requests.append(argv)
        rng.shuffle(requests)
        return prelie.cli, requests

    def work(P, state):
        cli, requests = state
        out = []
        for argv in requests:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out.append((argv, code, buf.getvalue()))
        return out

    def check(P, out):
        if len(out) != sum(count for _, count, _, _ in CLI_MIX):
            return False, f"{len(out)} requests"
        for argv, code, stdout in out:
            kind = argv[1]
            if code != 0:
                return False, f"{argv}: exit {code}"
            if kind == "psi" and _coefficient_sum(stdout) != _image_size(argv[3]):
                return False, f"psi({argv[3]}) coefficient sum is not N(tau)"
            if kind == "product" and _coefficient_sum(stdout) != argv[7].count("("):
                return False, f"{argv}: coefficient sum is not |right|"
            if kind in ("coeff", "alpha") and stdout.splitlines()[-1] != "match":
                return False, f"{argv}: methods disagree"
        return True, f"{len(out)} requests exit 0; psi sums N(tau), products |right|, both methods match"

    return setup, work, check


def _cli_oneshot(requests: int):
    """Seeded single requests, each in a fresh ``python -m prelie.cli``
    process: interpreter start-up, ``import prelie.cli``, one parse, one
    answer, what a shell user pays per command.  Half are psi requests
    (degree 4 to 7), half graft or left-graft products (degree 1 to 5).
    One untimed request first writes the bytecode cache."""

    def setup(P):
        rng = random.Random(50)
        argvs = []
        for i in range(requests):
            if i % 2 == 0:
                argvs.append(["compute", "psi", "--tree", _random_planar(rng, 4 + i // 2 % 4)])
            else:
                product = rng.choice(("graft", "left-graft"))
                left = _random_planar(rng, 1 + i // 2 % 5)
                right = _random_planar(rng, rng.randint(1, 5))
                argvs.append(["compute", "product", "--product", product,
                              "--left", left, "--right", right])
        _run_cli(argvs[0])
        return argvs

    def work(P, argvs):
        return [(argv, *_run_cli(argv)) for argv in argvs]

    def check(P, out):
        if len(out) != requests:
            return False, f"{len(out)} requests"
        for argv, code, stdout in out:
            if code != 0:
                return False, f"{argv}: exit {code}"
            if argv[1] == "psi" and _coefficient_sum(stdout) != _image_size(argv[3]):
                return False, f"psi({argv[3]}) coefficient sum is not N(tau)"
            if argv[1] == "product" and _coefficient_sum(stdout) != argv[7].count("("):
                return False, f"{argv}: coefficient sum is not |right|"
        return True, f"{len(out)} fresh processes exit 0; psi sums N(tau), products |right|"

    return setup, work, check


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one request in a fresh interpreter that
    imports prelie from this process's PYTHONPATH.  The interpreter may
    write bytecode caches, as for an installed package, so a first request
    writes them on either side and the timed ones compare code, not
    compilation."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, "-m", "prelie.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout


LAYERS = {
    "enumerate_12": _enumerate(12, 58786, 4766),
    # degree 8 is the degree of perfbench's costliest psi queries
    "psi_all_8": _psi_layer(8),
    "psi_all_9": _psi_layer(9),
    "psi_all_10": _psi_layer(10),
    "psi_matrix_9": _psi_matrix(9),
    "psi_matrix_10": _psi_matrix(10),
    "psi_matrix_11": _psi_matrix(11),
    # alpha no longer reads psi's images, so the warm psi_matrix(9) of the
    # set-up no longer feeds it; the name is kept for comparison with older
    # BENCH files
    "alpha_matrix_9_after_psi_matrix": _alpha_after_psi(9),
    "alpha_matrix_10": _alpha_matrix(10),
    "alpha_matrix_11": _alpha_matrix(11),
    "psi_inverse_all_9": _psi_inverse(9),
    "psi_inverse_all_10": _psi_inverse(10),
    # three compositions: twenty would add 80 MiB of psi images to the peak
    "psi_inverse_all_11": _psi_inverse(11, 3),
    "beta_matrix_default_section_9": _beta_default(9),
    "beta_matrix_default_section_11": _beta_default(11),
    "beta_matrix_default_section_13": _beta_default(13),
    "oracle_all_7": _oracle_all(7),
    "oracle_all_8": _oracle_all(8),
    "oracle_sample_10": _oracle_sample(10, 1000),
    "oracle_wide_11": _oracle_wide(11),
    "ag_expand_10": _ag_expand(10, 719),
    "graft_identities_10": _graft_identities(_all_triples(10), 1353),
    "identities_9": _graft_identities(_seeded_triples(9, 4), 336),
    "identities_9_labeled": _graft_identities(_labeled_triples(9, 4), 336),
    "ag_pipeline_8": _ag_pipeline(8),
    "tree_grounded_12": _tree_grounded(12),
    "cli_requests_2000": _cli_requests(),
    "cli_oneshot_50": _cli_oneshot(50),
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


def spread(values: list[float]) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / statistics.median(values)


def summarize(runs: list[dict]) -> dict:
    ok = all(r["ok"] for r in runs)
    out = {"ok": ok, "check": runs[-1]["check"]}
    if ok:
        for key in ("wall_s", "vmhwm_mib"):
            values = [r[key] for r in runs]
            out[key] = round(statistics.median(values), 4)
            out[f"{key}_spread"] = round(spread(values), 3)
            out[f"{key}_runs"] = [round(v, 4) for v in values]
    return out


def _spreads(runs: dict[str, list[dict]], base: str) -> bool:
    """Whether every run of every side passed so far and the wall times of
    the runs of side ``base`` spread more than MAX_SPREAD."""
    if not all(r["ok"] for side in runs.values() for r in side):
        return False
    return spread([r["wall_s"] for r in runs[base]]) > MAX_SPREAD


def over_parent(change: dict, parent: dict) -> dict:
    """The change's medians over the parent's, and the pairs (run k of each
    side) in which the change read lower."""
    out = {"pairs": len(change["wall_s_runs"])}
    for key in ("wall_s", "vmhwm_mib"):
        out[key] = round(change[key] / parent[key], 3)
        out[f"{key}_pairs_won"] = sum(
            c < p for c, p in zip(change[f"{key}_runs"], parent[f"{key}_runs"]))
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
    parser.add_argument("--layers", help="comma-separated layer names to run (default: all)")
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)
    names = list(LAYERS)
    if args.layers:
        names = args.layers.split(",")
        unknown = [name for name in names if name not in LAYERS]
        if unknown:
            parser.error(f"unknown layers {', '.join(unknown)}; choose from {', '.join(LAYERS)}")

    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src"))
    sides = {"change": (os.path.join(ROOT, "src"), git("rev-parse", "HEAD"), dirty)}
    if args.parent:
        workdir = args.workdir or tempfile.mkdtemp(prefix="prelie-bench-")
        src, commit = unpack(args.parent, workdir)
        sides["parent"] = (src, commit, False)

    base = "parent" if "parent" in sides else "change"
    results = {side: {} for side in sides}
    for name in names:
        runs = {side: [] for side in sides}
        pairs, k = RUNS, 0
        while k < pairs or k < MAX_RUNS and _spreads(runs, base):
            order = list(sides) if k % 2 == 0 else list(reversed(sides))
            for side in order:
                r = run_once(sides[side][0], name)
                runs[side].append(r)
                shown = f"{r['wall_s']:.3f} s, {r['vmhwm_mib']:.1f} MiB" if r["ok"] else "FAILED"
                print(f"{name} {side} run {k + 1}: {shown} ({r['check']})", file=sys.stderr)
            if k == 0:
                first = runs[base][0]
                if first["ok"] and first["wall_s"] < FAST_S:
                    pairs = FAST_RUNS
            k += 1
        for side in sides:
            results[side][name] = summarize(runs[side])

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "runs": RUNS,
        "fast_runs": f"{FAST_RUNS} a side for a layer whose first parent run took under {FAST_S} s",
        "max_runs": f"then up to {MAX_RUNS} a side while the parent's wall times spread more than {MAX_SPREAD}",
        "wall_s": "layer only, set-up excluded; median of runs",
        "vmhwm_mib": "peak resident set of the whole process (VmHWM); median of runs",
        "spread": "(max - min) / median of a layer's runs on one side",
        "pairs_won": "pairs (run k of each side, first side alternating) the change read lower",
    }
    for side, (_, commit, dirty) in sides.items():
        report[side] = {"commit": commit, "uncommitted_src_changes": dirty,
                        "layers": results[side]}
    if "parent" in sides:
        report["change_over_parent"] = {
            name: over_parent(results["change"][name], results["parent"][name])
            for name in names
            if results["change"][name]["ok"] and results["parent"][name]["ok"]
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    ok = all(r["ok"] for side in results.values() for r in side.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
