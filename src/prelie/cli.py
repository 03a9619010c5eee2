"""Batch command line over the library.

Subcommands: enumerate, compute, verify, section.  This module only parses
arguments, calls the library and prints; the verification suites live in
:mod:`prelie.verify`.  Output formats are text (default), json and csv
where a matrix is involved.  Exit codes: 0 success, 1 verification
failure, 2 bad arguments, 3 degree cap exceeded, a tree nested too
deeply to process or a dense matrix above its cell budget, 4 dual-method
disagreement, 141 output pipe closed by its reader (silent, as for
``prelie ... | head``).

Each command line goes straight to the parser of its leaf subcommand
(``enumerate``, ``verify``, ``section``, ``compute <op>``); help and usage
errors still come from the full parser tree, byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from . import monomials, projection, trees, verify
from .products import (
    PLANAR,
    PRODUCTS,
    apply_product,
    product_flavor,
    rotation,
)
from .psi import (
    coeff_c_bijections,
    coeff_c_recursive,
    psi_inverse,
    psi_matrix,
)
from .psi import psi as psi_map
from .trees import DegreeCapError, DomainError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_ARGS = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer cut off by head

# Each public library operation the CLI reaches, with one complete command
# line that reaches it.  Operations no command reaches are not listed.
OP_REGISTRY = {
    "enumerate_planar": "enumerate planar --degree 3",
    "enumerate_nonplanar": "enumerate nonplanar --degree 3",
    "enumerate_binary": "enumerate binary --degree 3",
    "potential_energy": "enumerate planar --degree 3",
    "symmetry_factor": "compute alpha --s (()()) --tau (()()) --method bijections",
    "rotation": "enumerate binary --degree 3",
    "left_butcher": "compute product --product left-butcher --left () --right (())",
    "butcher": "compute product --product butcher --left () --right (())",
    "left_graft": "compute product --product left-graft --left () --right (())",
    "graft": "compute product --product graft --left () --right (())",
    "bilinear_extend": "compute expand --ag --degree 3",
    "decompose": "verify sequences --max-degree 3",
    "psi": "compute psi --tree (()())",
    "psi_inverse": "compute psi-inverse --tree (()())",
    "coeff_c_recursive": "compute coeff --sigma (()(())) --tau (()()()) --method recursive",
    "coeff_c_bijections": "compute coeff --sigma (()(())) --tau (()()()) --method bijections",
    "psi_matrix": "compute matrix --degree 3",
    "n_statistic": "verify sequences --max-degree 3",
    "verify_a088716": "verify sequences --max-degree 3",
    "forget_planarity": "compute beta --degree 3",
    "psi_bar": "verify matrices --max-degree 3",
    "count_tilde_b": "compute alpha --s (()()) --tau (()()) --method bijections",
    "alpha": "compute alpha --s (()()) --tau (()())",
    "default_section": "section show --degree 3",
    "psi_tilde": "verify matrices --max-degree 3",
    "beta_matrix": "compute beta --degree 3",
    "evaluate": "compute expand --ag --degree 3",
    "ag_basis": "compute expand --ag --degree 3",
    "expand_basis": "compute expand --ag --degree 3",
    "lower_energy_term": "verify tree-grounded --max-degree 4",
    "is_tree_grounded": "verify tree-grounded --max-degree 3",
    "section_of_basis": "verify tree-grounded --max-degree 4",
    "ag_basis_multigen": "compute ag-multigen --degree 3",
}


def _max_degree(args) -> int:
    env = os.environ.get("PRELIE_MAX_DEGREE")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"PRELIE_MAX_DEGREE must be an integer, got {env!r}") from None
    return trees.ENUMERATION_CAP if getattr(args, "cap", None) is None else args.cap


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj):
    import json  # only json output needs it

    _emit(json.dumps(obj))


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
        _emit_json({"kind": kind, "degree": args.degree, "count": len(items), "trees": payload})
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
    parse = trees.parse_planar if product_flavor(name) == PLANAR else trees.parse_tree
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


def _emit_methods(args, values: dict, match: bool) -> int:
    """Print the values one or both methods gave, and whether they agree."""
    if args.format == "json":
        _emit_json({**values, "match": match})
    else:
        for k, v in values.items():
            _emit(f"{k}: {v}")
        if args.method == "both":
            _emit("match" if match else "MISMATCH")
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_compute_coeff(args) -> int:
    sigma = trees.parse_planar(args.sigma)
    tau = trees.parse_planar(args.tau)
    values = {}
    if args.method in ("recursive", "both"):
        values["recursive"] = coeff_c_recursive(sigma, tau)
    if args.method in ("bijections", "both"):
        values["bijections"] = coeff_c_bijections(sigma, tau, cap=args.brute_cap)
    return _emit_methods(args, values, len(set(values.values())) == 1)


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
    return _emit_methods(args, values, match)


def cmd_compute_matrix(args) -> int:
    _emit_matrix(psi_matrix(args.degree, _max_degree(args)), args.format)
    return EXIT_OK


def _read_section(path: str) -> projection.Section:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return projection.Section.from_text(text)


def cmd_compute_beta(args) -> int:
    if args.section:
        section = _read_section(args.section)
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
    basis = monomials.ag_basis_multigen(args.degree, order, cap=5 if args.cap is None else args.cap)
    if args.format == "json":
        _emit_json({"degree": args.degree, "count": len(basis), "monomials": [m.serialize() for m in basis]})
    else:
        for m in basis:
            _emit(m.serialize())
        _emit(f"count {len(basis)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    report = verify.run(args.suite, args.max_degree, args.seed)
    if args.format == "json":
        _emit_json(report)
    else:
        for c in report["checks"]:
            detail = f"  ({c['detail']})" if c["detail"] else ""
            _emit(f"[{c['status'].upper():4}] {c['name']}{detail}")
        _emit(f"suite {args.suite}: {report['status']}")
    return EXIT_OK if report["status"] == "pass" else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# section


def cmd_section(args) -> int:
    if args.action == "validate":
        if args.file is None:
            raise DomainError("section validate needs a file")
        section = _read_section(args.file)
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
    # The parser of each leaf subcommand, keyed by the words that select it.
    parser.leaves = {}

    def leaf(subparsers, *words, **kwargs):
        parser.leaves[words] = p = subparsers.add_parser(words[-1], **kwargs)
        return p

    def add_format(p, csv=False):
        choices = ["text", "json"] + (["csv"] if csv else [])
        p.add_argument("--format", choices=choices, default="text")

    p = leaf(sub, "enumerate", help="list trees of one degree")
    p.add_argument("kind", choices=["planar", "nonplanar", "binary"])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    comp = sub.add_parser("compute", help="run one library operation")
    csub = comp.add_subparsers(dest="operation", required=True)

    p = leaf(csub, "compute", "product")
    p.add_argument("--product", choices=sorted(PRODUCTS), required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_format(p)
    p.set_defaults(func=cmd_compute_product)

    p = leaf(csub, "compute", "psi")
    p.add_argument("--tree", required=True)
    add_format(p)
    p.set_defaults(func=cmd_compute_psi)

    p = leaf(csub, "compute", "psi-inverse")
    p.add_argument("--tree", required=True)
    add_format(p)
    p.set_defaults(func=cmd_compute_psi_inverse)

    p = leaf(csub, "compute", "coeff")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--method", choices=["recursive", "bijections", "both"], default="recursive")
    p.add_argument("--brute-cap", type=int, default=trees.BRUTE_FORCE_CAP)
    add_format(p)
    p.set_defaults(func=cmd_compute_coeff)

    p = leaf(csub, "compute", "alpha")
    p.add_argument("--s", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--method", choices=["fiber", "bijections", "both"], default="fiber")
    p.add_argument("--brute-cap", type=int, default=trees.BRUTE_FORCE_CAP)
    add_format(p)
    p.set_defaults(func=cmd_compute_alpha)

    p = leaf(csub, "compute", "matrix")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_format(p, csv=True)
    p.set_defaults(func=cmd_compute_matrix)

    p = leaf(csub, "compute", "beta")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--section", default=None, help="section file; default section if omitted")
    p.add_argument("--cap", type=int, default=None)
    add_format(p, csv=True)
    p.set_defaults(func=cmd_compute_beta)

    p = leaf(csub, "compute", "expand")
    p.add_argument("--ag", action="store_true")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_format(p, csv=True)
    p.set_defaults(func=cmd_compute_expand)

    p = leaf(csub, "compute", "ag-multigen")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--alphabet", default="a,b")
    p.add_argument("--cap", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_compute_ag_multigen)

    p = leaf(sub, "verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = leaf(sub, "section", help="validate or show a section file")
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


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse one command line with the parser of its leaf subcommand, the
    same object the full tree would hand it to.  Anything the leaf alone
    cannot take (no leaf named, or arguments left over) goes through the
    full tree, so help, usage errors and exit codes are the tree's own."""
    parser = _parser()
    words = sys.argv[1:] if argv is None else list(argv)
    for n in (1, 2):
        leaf = parser.leaves.get(tuple(words[:n]))
        if leaf is not None:
            args, rest = leaf.parse_known_args(words[n:])
            if not rest:
                return args
            break
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone (``prelie ... | head``): what is still
        # buffered goes to the null device, so the flush at exit is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DegreeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:
        print("error: tree nested too deeply to process", file=sys.stderr)
        return EXIT_CAP
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
