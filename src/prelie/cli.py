"""Batch command line over the library.

Subcommands: enumerate, compute, verify, section.  Output formats are
text (default), json and csv where a matrix is involved.  Exit codes:
0 success, 1 verification failure, 2 bad arguments, 3 degree cap
exceeded, 4 dual-method disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache
from itertools import product as iproduct

from . import monomials, projection, trees
from .products import (
    PLANAR,
    PRODUCTS,
    TreeSum,
    apply_product,
    bilinear_extend,
    butcher,
    graft,
    rotation,
)
from .psi import (
    coeff_c_bijections,
    coeff_c_recursive,
    n_statistic_total,
    psi_inverse,
    psi_matrix,
    verify_a088716,
)
from .psi import psi as psi_map
from .trees import DegreeCapError, DomainError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_ARGS = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4

# Every public library operation with one CLI path that reaches it.
OP_REGISTRY = {
    "enumerate_planar": "enumerate planar",
    "enumerate_nonplanar": "enumerate nonplanar",
    "enumerate_binary": "enumerate binary",
    "potential_energy": "enumerate planar (text format)",
    "symmetry_factor": "verify oracle",
    "vertex_order": "verify oracle (bijection counting)",
    "binary_join": "enumerate binary",
    "rotation": "enumerate binary (text format)",
    "left_butcher": "compute product --product left-butcher",
    "butcher": "compute product --product butcher",
    "left_graft": "compute product --product left-graft",
    "graft": "compute product --product graft",
    "bilinear_extend": "compute product",
    "decompose": "compute psi",
    "psi": "compute psi",
    "psi_inverse": "compute psi-inverse",
    "coeff_c_recursive": "compute coeff --method recursive",
    "coeff_c_bijections": "compute coeff --method bijections",
    "psi_matrix": "compute matrix",
    "n_statistic": "verify sequences",
    "verify_a088716": "verify sequences",
    "forget_planarity": "compute alpha",
    "psi_bar": "compute alpha",
    "count_tilde_b": "compute alpha --method bijections",
    "alpha": "compute alpha",
    "default_section": "section show",
    "psi_tilde": "compute beta",
    "beta_matrix": "compute beta",
    "evaluate": "compute expand",
    "ag_basis": "compute expand --ag",
    "expand_basis": "compute expand --ag",
    "lower_energy_term": "verify tree-grounded",
    "is_tree_grounded": "verify tree-grounded",
    "section_of_basis": "verify tree-grounded",
    "ag_basis_multigen": "compute ag-multigen",
}


def _max_degree(args) -> int:
    env = os.environ.get("PRELIE_MAX_DEGREE")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"PRELIE_MAX_DEGREE must be an integer, got {env!r}") from None
    return getattr(args, "cap", None) or trees.ENUMERATION_CAP


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_matrix(m, fmt: str):
    _emit(m.to_json_str() if fmt == "json" else m.to_csv())


def _emit_sum(s, fmt: str):
    if fmt == "json":
        _emit(s.to_json_str())
    else:
        _emit(s.to_text())


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    cap = _max_degree(args)
    kind = args.kind
    if kind == "planar":
        items = trees.enumerate_planar(args.degree, cap)
    elif kind == "nonplanar":
        items = trees.enumerate_nonplanar(args.degree, cap)
    else:
        items = trees.enumerate_binary(args.degree, cap)
    if args.format == "json":
        if kind == "binary":
            payload = [t.serialize() for t in items]
        else:
            payload = [t.to_json() for t in items]
        _emit(json.dumps({"kind": kind, "degree": args.degree, "count": len(items), "trees": payload}))
    else:
        for t in items:
            if kind == "binary":
                _emit(f"{t.serialize()}  ->  {rotation(t).serialize()}")
            else:
                _emit(f"{t.serialize()}  energy={trees.potential_energy(t)}")
        _emit(f"count {len(items)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compute


def cmd_compute_product(args) -> int:
    name = args.product
    if name not in PRODUCTS:
        raise DomainError(f"unknown product {name!r}")
    planar = name in ("left-butcher", "left-graft")
    parse = trees.parse_planar if planar else trees.parse_tree
    left, right = parse(args.left), parse(args.right)
    result = apply_product(name, left, right)
    _emit_sum(result, args.format)
    return EXIT_OK


def cmd_compute_psi(args) -> int:
    _emit_sum(psi_map(trees.parse_planar(args.tree)), args.format)
    return EXIT_OK


def cmd_compute_psi_inverse(args) -> int:
    _emit_sum(psi_inverse(trees.parse_planar(args.tree)), args.format)
    return EXIT_OK


def cmd_compute_coeff(args) -> int:
    sigma = trees.parse_planar(args.sigma)
    tau = trees.parse_planar(args.tau)
    values = {}
    if args.method in ("recursive", "both"):
        values["recursive"] = coeff_c_recursive(sigma, tau)
    if args.method in ("bijections", "both"):
        values["bijections"] = coeff_c_bijections(sigma, tau, cap=args.brute_cap)
    match = len(set(values.values())) == 1
    if args.format == "json":
        _emit(json.dumps({**values, "match": match}))
    else:
        for k, v in values.items():
            _emit(f"{k}: {v}")
        if args.method == "both":
            _emit("match" if match else "MISMATCH")
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_compute_alpha(args) -> int:
    s = trees.parse_tree(args.s)
    tau = trees.parse_planar(args.tau)
    values = {"alpha": projection.alpha(s, tau)}
    if args.method in ("bijections", "both"):
        tilde = projection.count_tilde_b(s, tau, cap=args.brute_cap)
        sym = trees.symmetry_factor(s)
        values.update({"tilde_b": tilde, "sym": sym, "tilde_b_over_sym": tilde // sym})
        match = tilde % sym == 0 and values["tilde_b_over_sym"] == values["alpha"]
    else:
        match = True
    if args.format == "json":
        _emit(json.dumps({**values, "match": match}))
    else:
        for k, v in values.items():
            _emit(f"{k}: {v}")
        if args.method == "both":
            _emit("match" if match else "MISMATCH")
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_compute_matrix(args) -> int:
    _emit_matrix(psi_matrix(args.degree, _max_degree(args)), args.format)
    return EXIT_OK


def cmd_compute_beta(args) -> int:
    if args.section:
        with open(args.section) as fh:
            section = projection.Section.from_text(fh.read())
    else:
        section = projection.default_section(args.degree, _max_degree(args))
    _emit_matrix(projection.beta_matrix(section, args.degree, _max_degree(args)), args.format)
    return EXIT_OK


def cmd_compute_expand(args) -> int:
    if not args.ag:
        raise DomainError("only --ag bases are supported for expansion")
    basis = monomials.ag_basis(args.degree)
    _emit_matrix(monomials.expand_basis(basis, _max_degree(args)), args.format)
    return EXIT_OK


def cmd_compute_ag_multigen(args) -> int:
    order = monomials.GeneratorOrder(tuple(args.alphabet.split(",")))
    basis = monomials.ag_basis_multigen(args.degree, order, cap=args.cap or 5)
    if args.format == "json":
        _emit(json.dumps({"degree": args.degree, "count": len(basis), "monomials": [m.serialize() for m in basis]}))
    else:
        for m in basis:
            _emit(m.serialize())
        _emit(f"count {len(basis)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def verify_sequences(max_degree: int, seed: int) -> list[dict]:
    report = verify_a088716(max_degree)
    checks = list(report["checks"])
    totals = [n_statistic_total(n) for n in range(1, min(max_degree, 5) + 1)]
    expected = [1, 1, 3, 14, 85][: len(totals)]
    checks.append(_check("per-degree-totals-prefix", totals == expected, f"{totals}"))
    return checks


def verify_identities(max_degree: int, seed: int, limit: int = 4000) -> list[dict]:
    pool = []
    for n in range(1, max_degree - 1):
        pool.extend(trees.enumerate_nonplanar(n))
    triples = [
        (s, t, u)
        for s, t, u in iproduct(pool, pool, pool)
        if s.degree + t.degree + u.degree <= max_degree
    ]
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
        _check("pre-lie-identity", bad_prelie == 0, f"{len(triples)} triples, {bad_prelie} failures"),
        _check("nap-identity", bad_nap == 0, f"{len(triples)} triples, {bad_nap} failures"),
    ]
    return checks


def verify_matrices(max_degree: int, seed: int) -> list[dict]:
    checks = []
    for n in range(1, max_degree + 1):
        m = psi_matrix(n)
        checks.append(
            _check(f"psi-matrix-unipotent-n{n}", m.is_unipotent_upper_triangular())
        )
        checks.append(
            _check(
                f"psi-matrix-entry-sum-n{n}",
                m.entry_sum() == n_statistic_total(n),
                f"sum={m.entry_sum()}",
            )
        )
        am = projection.alpha_matrix(n)
        checks.append(
            _check(
                f"alpha-column-sums-n{n}",
                am.column_sums() == m.column_sums(),
            )
        )
        bm = projection.beta_matrix(projection.default_section(n), n)
        checks.append(
            _check(f"beta-default-unipotent-n{n}", bm.is_unipotent_upper_triangular())
        )
        identity = all(
            _compose_is_identity(sigma) for sigma in trees.enumerate_planar(n)
        )
        checks.append(_check(f"psi-inverse-n{n}", identity))
    return checks


def _compose_is_identity(sigma) -> bool:
    composed = TreeSum.make(
        PLANAR,
        (
            (rho, c * d)
            for tau, c in psi_inverse(sigma).terms
            for rho, d in psi_map(tau).terms
        ),
    )
    return composed == TreeSum.single(sigma)


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
            _check(f"c-dual-method-n{n}", mismatches == 0, f"{len(planar)**2} pairs")
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
            _check(
                f"alpha-sym-normalization-n{n}",
                bad == 0,
                f"{len(nonplanar) * len(planar)} pairs",
            )
        )
    return checks


def verify_tree_grounded(max_degree: int, seed: int) -> list[dict]:
    checks = []
    for n in range(1, max_degree + 1):
        basis = monomials.ag_basis(n)
        ok, witness = monomials.is_tree_grounded(basis.monomials, n)
        checks.append(_check(f"ag-basis-tree-grounded-n{n}", ok, json.dumps(witness)))
    if max_degree >= 4:
        basis = monomials.ag_basis(4)
        section = monomials.section_of_basis(basis.monomials, 4)
        bm = projection.beta_matrix(section, 4)
        em = monomials.expand_basis(basis)
        same = _same_columns(bm, em, basis)
        checks.append(_check("section-round-trip-n4", same))
    return checks


def _same_columns(beta_m, expand_m, basis) -> bool:
    """Beta columns (indexed by trees) must equal expansion columns
    (indexed by monomials) under the lower-energy-term correspondence."""
    for m in basis.monomials:
        t = monomials.lower_energy_term(m)
        if beta_m.column(t.serialize()) != expand_m.column(m.serialize()):
            return False
    return True


VERIFY_SUITES = {
    "sequences": verify_sequences,
    "identities": verify_identities,
    "matrices": verify_matrices,
    "oracle": verify_oracle,
    "tree-grounded": verify_tree_grounded,
}

VERIFY_DEFAULT_DEGREE = {
    "sequences": 5,
    "identities": 7,
    "matrices": 5,
    "oracle": 5,
    "tree-grounded": 5,
}


def cmd_verify(args) -> int:
    suite = args.suite
    max_degree = args.max_degree or VERIFY_DEFAULT_DEGREE[suite]
    checks = VERIFY_SUITES[suite](max_degree, args.seed)
    ok = all(c["status"] == "pass" for c in checks)
    report = {"suite": suite, "status": "pass" if ok else "fail", "checks": checks}
    if args.format == "json":
        _emit(json.dumps(report))
    else:
        for c in checks:
            detail = f"  ({c['detail']})" if c["detail"] else ""
            _emit(f"[{c['status'].upper():4}] {c['name']}{detail}")
        _emit(f"suite {suite}: {report['status']}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# section


def cmd_section(args) -> int:
    if args.action == "validate":
        with open(args.file) as fh:
            section = projection.Section.from_text(fh.read())
        _emit(f"valid section with {len(list(section.items()))} entries")
        return EXIT_OK
    # show
    section = projection.default_section(args.degree, _max_degree(args))
    _emit(section.to_text())
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prelie", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, csv=False):
        choices = ["text", "json"] + (["csv"] if csv else [])
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("enumerate", help="list trees of one degree")
    p.add_argument("kind", choices=["planar", "nonplanar", "binary"])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    comp = sub.add_parser("compute", help="run one library operation")
    csub = comp.add_subparsers(dest="operation", required=True)

    p = csub.add_parser("product")
    p.add_argument("--product", choices=sorted(PRODUCTS), required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_format(p)
    p.set_defaults(func=cmd_compute_product)

    p = csub.add_parser("psi")
    p.add_argument("--tree", required=True)
    add_format(p)
    p.set_defaults(func=cmd_compute_psi)

    p = csub.add_parser("psi-inverse")
    p.add_argument("--tree", required=True)
    add_format(p)
    p.set_defaults(func=cmd_compute_psi_inverse)

    p = csub.add_parser("coeff")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--method", choices=["recursive", "bijections", "both"], default="recursive")
    p.add_argument("--brute-cap", type=int, default=trees.BRUTE_FORCE_CAP)
    add_format(p)
    p.set_defaults(func=cmd_compute_coeff)

    p = csub.add_parser("alpha")
    p.add_argument("--s", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--method", choices=["fiber", "bijections", "both"], default="fiber")
    p.add_argument("--brute-cap", type=int, default=trees.BRUTE_FORCE_CAP)
    add_format(p)
    p.set_defaults(func=cmd_compute_alpha)

    p = csub.add_parser("matrix")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_format(p, csv=True)
    p.set_defaults(func=cmd_compute_matrix)

    p = csub.add_parser("beta")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--section", default=None, help="section file; default section if omitted")
    p.add_argument("--cap", type=int, default=None)
    add_format(p, csv=True)
    p.set_defaults(func=cmd_compute_beta)

    p = csub.add_parser("expand")
    p.add_argument("--ag", action="store_true")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_format(p, csv=True)
    p.set_defaults(func=cmd_compute_expand)

    p = csub.add_parser("ag-multigen")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--alphabet", default="a,b")
    p.add_argument("--cap", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_compute_ag_multigen)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(VERIFY_SUITES))
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("section", help="validate or show a section file")
    p.add_argument("action", choices=["validate", "show"])
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--cap", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_section)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on its first call, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DegreeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
