"""Verification suites: the paper's claims checked by independent means.

Each suite takes a maximum degree and a seed and returns a list of checks;
``run`` wraps them into a report.  Both shapes are built here and nowhere
else:

    check  = {"name": str, "status": "pass" | "fail", "detail": str}
    report = {"suite": str, "status": "pass" | "fail", "checks": [check, ...]}

A report passes when every one of its checks passes.  The suites are
``sequences`` (A088716 totals and their differential equation),
``identities`` (pre-Lie and NAP identities on random triples),
``matrices`` (unipotence, entry sums, column sums, the alpha and beta
columns against the termwise projection of the planar images of psi,
psi o psi^-1 = id),
``oracle`` (recursion against bijection counts, brute force) and
``tree-grounded`` (AG bases are tree-grounded, and the beta columns of the
section they induce, built by the pre-Lie grafting kernel, against the
termwise projection of the planar left-grafting images).
"""

from __future__ import annotations

import random

from . import monomials, projection, trees
from .matrix import _check_dense
from .products import TreeSum, bilinear_extend, butcher, graft
from .psi import (
    _psi,
    _psi_inv,
    coeff_c_bijections,
    coeff_c_recursive,
    n_statistic_total,
    psi_matrix,
)
from .trees import ENUMERATION_CAP, DegreeCapError, DomainError, Tree, _tree_of_text


def check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def report(suite: str, checks: list[dict]) -> dict:
    ok = all(c["status"] == "pass" for c in checks)
    return {"suite": suite, "status": "pass" if ok else "fail", "checks": checks}


def _poly_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def verify_a088716(max_n: int, max_degree: int = ENUMERATION_CAP) -> dict:
    """Check the per-degree totals against their convolution recursion and
    the generating-series differential equation A = 1 + x A^2 + x^2 A A'.

    Returns a machine-readable report; every check carries its own status.
    """
    if max_n > max_degree:
        raise DegreeCapError(f"max_n {max_n} exceeds cap {max_degree}")
    totals = [n_statistic_total(n) for n in range(1, max_n + 1)]

    recursed = [1]
    for n in range(2, max_n + 1):
        recursed.append(
            sum(recursed[p - 1] * recursed[n - p - 1] * (n - p) for p in range(1, n))
        )
    checks = [
        check(
            "totals-match-recursion",
            totals == recursed,
            f"direct={totals} recursion={recursed}",
        )
    ]

    # a_k is the total at degree k+1; residual of the ODE must vanish.
    order = max_n - 2
    if order >= 0:
        a = totals  # a[k] = total for degree k+1
        da = [(k + 1) * a[k + 1] for k in range(len(a) - 1)]
        rhs = [0] * (order + 1)
        rhs[0] = 1
        xa2 = _poly_mul(a, a, order)
        for k in range(order):
            rhs[k + 1] += xa2[k]
        x2ada = _poly_mul(a, da, order)
        for k in range(order - 1):
            rhs[k + 2] += x2ada[k]
        residual = [a[k] - rhs[k] for k in range(order + 1)]
        checks.append(
            check(
                f"ode-residual-through-order-{order}",
                all(r == 0 for r in residual),
                f"residual={residual}",
            )
        )
    return report("a088716", checks)


def verify_sequences(max_degree: int, seed: int) -> list[dict]:
    checks = verify_a088716(max_degree)["checks"]
    totals = [n_statistic_total(n) for n in range(1, min(max_degree, 5) + 1)]
    expected = [1, 1, 3, 14, 85][: len(totals)]
    checks.append(check("per-degree-totals-prefix", totals == expected, f"{totals}"))
    return checks


def verify_identities(max_degree: int, seed: int, limit: int = 4000) -> list[dict]:
    if max_degree < 3:
        raise DomainError(f"identities need a max degree of at least 3, got {max_degree}")
    triples = _triples(max_degree)
    if len(triples) > limit:
        rng = random.Random(seed)
        triples = rng.sample(triples, limit)
    bad_prelie = 0
    bad_nap = 0
    one = TreeSum.single
    for s, t, u in triples:
        left = bilinear_extend("graft", graft(s, t), one(u)) - bilinear_extend(
            "graft", one(s), graft(t, u)
        )
        right = bilinear_extend("graft", graft(t, s), one(u)) - bilinear_extend(
            "graft", one(t), graft(s, u)
        )
        if left != right:
            bad_prelie += 1
        if butcher(s, butcher(t, u)) != butcher(t, butcher(s, u)):
            bad_nap += 1
    checks = [
        check("pre-lie-identity", bad_prelie == 0, f"{len(triples)} triples, {bad_prelie} failures"),
        check("nap-identity", bad_nap == 0, f"{len(triples)} triples, {bad_nap} failures"),
    ]
    return checks


def _triples(max_degree: int) -> list[tuple]:
    """Every triple of total degree at most ``max_degree`` from the pool of
    trees in ascending degree, in lexicographic order."""
    pool, fits = [], [0]  # fits[d]: how many trees of the pool have degree <= d
    for n in range(1, max_degree - 1):
        pool.extend(trees.enumerate_nonplanar(n))
        fits.append(len(pool))
    return [
        (s, t, u)
        for s in pool
        for t in pool[: fits[max_degree - 1 - s.degree]]
        for u in pool[: fits[max_degree - s.degree - t.degree]]
    ]


def verify_matrices(max_degree: int, seed: int) -> list[dict]:
    # psi o psi^-1 is composed in full, a dense amount of work: a degree
    # above the cell budget is refused before any is done
    size = trees._planar_count(max_degree)
    _check_dense(max_degree, size, size)
    checks = []
    for n in range(1, max_degree + 1):
        m = psi_matrix(n)
        checks.append(
            check(f"psi-matrix-unipotent-n{n}", m.is_unipotent_upper_triangular())
        )
        checks.append(
            check(
                f"psi-matrix-entry-sum-n{n}",
                m.entry_sum() == n_statistic_total(n),
                f"sum={m.entry_sum()}",
            )
        )
        am = projection.alpha_matrix(n)
        checks.append(
            check(
                f"alpha-column-sums-n{n}",
                am.column_sums() == m.column_sums(),
            )
        )
        planar = trees.enumerate_planar(n)
        # This check and beta-default-columns-are-psi-tilde keep their names,
        # which are output bytes, though neither reads psi_bar or psi_tilde:
        # both compare the matrix columns, built by the grafting kernel, with
        # _projected, the termwise projection of psi's planar images.
        checks.append(
            check(
                f"alpha-columns-are-psi-bar-n{n}",
                am.columns == tuple([_projected(tau._text) for tau in planar]),
            )
        )
        section = projection.default_section(n)
        bm = projection.beta_matrix(section, n)
        checks.append(
            check(f"beta-default-unipotent-n{n}", bm.is_unipotent_upper_triangular())
        )
        images = tuple([_projected(section(t)._text) for t in trees.enumerate_nonplanar(n)])
        # named for psi_tilde, checked against _projected (see alpha above)
        checks.append(check(f"beta-default-columns-are-psi-tilde-n{n}", bm.columns == images))
        identity = all(_compose_is_identity(sigma) for sigma in planar)
        checks.append(check(f"psi-inverse-n{n}", identity))
    return checks


def _projected(text: str) -> dict[str, int]:
    """The termwise projection of the planar image of a tree text: the
    terms of psi's image summed under their canonical texts, zeros
    dropped.  It is the reference for alpha and beta, whose projected
    images graft the projections of branch and trunk and never read the
    planar image.  Every text read as a non-planar tree, canonical or not,
    is a key of ``Tree._by_text``, so a known text costs one lookup."""
    acc: dict[str, int] = {}
    get = acc.get
    known = Tree._by_text.get
    for t, c in _psi(text).items():
        s = (known(t) or _tree_of_text(t))._text
        acc[s] = get(s, 0) + c
    return {s: c for s, c in acc.items() if c}


def _compose_is_identity(sigma) -> bool:
    """Whether psi(psi^-1(sigma)) = sigma, composed on the kernels' texts."""
    acc: dict[str, int] = {}
    get = acc.get
    for tau, c in _psi_inv(sigma._text):
        for rho, d in _psi(tau).items():
            acc[rho] = get(rho, 0) + c * d
    return {t: c for t, c in acc.items() if c} == {sigma._text: 1}


def verify_oracle(max_degree: int, seed: int) -> list[dict]:
    if max_degree > trees.BRUTE_FORCE_CAP:
        raise DegreeCapError(
            f"max degree {max_degree} exceeds brute-force cap {trees.BRUTE_FORCE_CAP}"
        )
    checks = []
    for n in range(1, max_degree + 1):
        planar = trees.enumerate_planar(n)
        mismatches = sum(
            1
            for sigma in planar
            for tau in planar
            if coeff_c_recursive(sigma, tau)
            != coeff_c_bijections(sigma, tau)
        )
        checks.append(
            check(f"c-dual-method-n{n}", mismatches == 0, f"{len(planar)**2} pairs")
        )
        nonplanar = trees.enumerate_nonplanar(n)
        bad = 0
        for s in nonplanar:
            sym = trees.symmetry_factor(s)
            for tau in planar:
                tilde = projection.count_tilde_b(s, tau)
                if tilde % sym != 0 or projection.alpha(s, tau) != tilde // sym:
                    bad += 1
        checks.append(
            check(
                f"alpha-sym-normalization-n{n}",
                bad == 0,
                f"{len(nonplanar) * len(planar)} pairs",
            )
        )
    return checks


def verify_tree_grounded(max_degree: int, seed: int) -> list[dict]:
    import json  # for the witnesses

    checks = []
    bases = [monomials.ag_basis(n) for n in range(1, max_degree + 1)]
    for n, basis in enumerate(bases, start=1):
        ok, witness = monomials.is_tree_grounded(basis.monomials, n)
        checks.append(check(f"ag-basis-tree-grounded-n{n}", ok, json.dumps(witness)))
    for n, basis in enumerate(bases[1:], start=2):
        section = monomials.section_of_basis(basis.monomials, n)
        bm = projection.beta_matrix(section, n)
        images = tuple([_projected(section(t)._text) for t in trees.enumerate_nonplanar(n)])
        checks.append(check(f"section-round-trip-n{n}", bm.columns == images))
    return checks


# suite name -> (suite function, maximum degree when none is given)
SUITES = {
    "sequences": (verify_sequences, 5),
    "identities": (verify_identities, 7),
    "matrices": (verify_matrices, 5),
    "oracle": (verify_oracle, 5),
    "tree-grounded": (verify_tree_grounded, 5),
}


def run(suite: str, max_degree: int | None = None, seed: int = 0) -> dict:
    """Report of one suite, at its default maximum degree unless one is given."""
    fn, default_degree = SUITES[suite]
    if max_degree is None:
        max_degree = default_degree
    elif max_degree < 1:
        raise DomainError(f"max degree must be positive, got {max_degree}")
    elif max_degree > ENUMERATION_CAP:
        raise DegreeCapError(f"max degree {max_degree} exceeds cap {ENUMERATION_CAP}")
    return report(suite, fn(max_degree, seed))
