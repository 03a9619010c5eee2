"""Batch command line over the library.

Subcommands: enumerate, compute, verify, section.  This module only parses
arguments, calls the library and prints; the verification suites live in
:mod:`prelie.verify`.  Output formats are text (default), json and csv
where a matrix is involved.  Exit codes: 0 success, 1 verification
failure, 2 bad arguments, 3 degree cap exceeded, a tree nested too
deeply to process or a dense matrix above its cell budget, 4 dual-method
disagreement, 141 output pipe closed by its reader (silent, as for
``prelie ... | head``).

The grammar is declared once, in ``GRAMMAR``: each leaf subcommand
(``enumerate``, ``verify``, ``section``, ``compute <op>``) with its
positionals and options.  A command line is parsed straight from that
table when its positionals come right after the leaf words, then options
by their exact strings, none repeated, each value a separate word that
does not start with ``-``, ints that ``int()`` reads, values in their
choices and every required option given.  Any other line goes to the
argparse tree ``build_parser`` renders from the same table, which answers
help (``-h``), usage errors, ``--opt=value``, abbreviated options, ``--``,
values starting with ``-`` and repeated options exactly as argparse does.
So ``argparse`` is imported only for those lines, never by an ordinary
request.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import argparse

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


class _Arg:
    """One argument of a leaf.  A name starting with ``--`` is an option,
    any other name a positional (``optional`` ones may be absent); a
    ``flag`` option takes no value and stores True."""

    __slots__ = ("name", "dest", "type", "choices", "default", "required", "flag", "optional", "help")

    def __init__(self, name, *, type=None, choices=None, default=None, required=False,
                 flag=False, optional=False, help=None):
        self.name = name
        self.dest = name.lstrip("-").replace("-", "_")
        self.type, self.choices, self.default = type, choices, default
        self.required, self.flag, self.optional, self.help = required, flag, optional, help

    def argparse_kwargs(self) -> dict:
        if self.flag:
            return {"action": "store_true"}
        given = {"type": self.type, "choices": self.choices, "default": self.default,
                 "required": self.required or None, "nargs": "?" if self.optional else None,
                 "help": self.help}
        return {k: v for k, v in given.items() if v is not None}


class _Leaf:
    """A leaf subcommand: its ``func``, its arguments in order and its help
    line, with the lookups the table parser uses."""

    __slots__ = ("func", "args", "help", "positionals", "options", "required", "defaults")

    def __init__(self, func, *args: _Arg, help=None):
        self.func, self.args, self.help = func, args, help
        self.positionals = tuple(a for a in args if not a.name.startswith("-"))
        self.options = {a.name: a for a in args if a.name.startswith("-")}
        self.required = frozenset(a.dest for a in args if a.required)
        self.defaults = {a.dest: False if a.flag else a.default for a in args}
        self.defaults["func"] = func


def _format(*extra):
    return _Arg("--format", choices=("text", "json", *extra), default="text")


_DEGREE = _Arg("--degree", type=int, required=True)
_CAP = _Arg("--cap", type=int)
_BRUTE_CAP = _Arg("--brute-cap", type=int, default=trees.BRUTE_FORCE_CAP)
_TREE = _Arg("--tree", required=True)
_TAU = _Arg("--tau", required=True)

# The whole command line grammar: each leaf subcommand keyed by the words
# that select it.  The table parser reads it directly, and ``build_parser``
# renders it into argparse in this order.
GRAMMAR = {
    ("enumerate",): _Leaf(
        cmd_enumerate,
        _Arg("kind", choices=("planar", "nonplanar", "binary")), _DEGREE, _CAP, _format(),
        help="list trees of one degree",
    ),
    ("compute", "product"): _Leaf(
        cmd_compute_product,
        _Arg("--product", choices=tuple(sorted(PRODUCTS)), required=True),
        _Arg("--left", required=True), _Arg("--right", required=True), _format(),
    ),
    ("compute", "psi"): _Leaf(cmd_compute_psi, _TREE, _format()),
    ("compute", "psi-inverse"): _Leaf(cmd_compute_psi_inverse, _TREE, _format()),
    ("compute", "coeff"): _Leaf(
        cmd_compute_coeff,
        _Arg("--sigma", required=True), _TAU,
        _Arg("--method", choices=("recursive", "bijections", "both"), default="recursive"),
        _BRUTE_CAP, _format(),
    ),
    ("compute", "alpha"): _Leaf(
        cmd_compute_alpha,
        _Arg("--s", required=True), _TAU,
        _Arg("--method", choices=("fiber", "bijections", "both"), default="fiber"),
        _BRUTE_CAP, _format(),
    ),
    ("compute", "matrix"): _Leaf(cmd_compute_matrix, _DEGREE, _CAP, _format("csv")),
    ("compute", "beta"): _Leaf(
        cmd_compute_beta,
        _DEGREE, _Arg("--section", help="section file; default section if omitted"), _CAP,
        _format("csv"),
    ),
    ("compute", "expand"): _Leaf(
        cmd_compute_expand, _Arg("--ag", flag=True), _DEGREE, _CAP, _format("csv")
    ),
    ("compute", "ag-multigen"): _Leaf(
        cmd_compute_ag_multigen, _DEGREE, _Arg("--alphabet", default="a,b"), _CAP, _format()
    ),
    ("verify",): _Leaf(
        cmd_verify,
        _Arg("suite", choices=tuple(sorted(verify.SUITES))),
        _Arg("--max-degree", type=int), _Arg("--seed", type=int, default=0), _format(),
        help="run a verification suite",
    ),
    ("section",): _Leaf(
        cmd_section,
        _Arg("action", choices=("validate", "show")), _Arg("file", optional=True),
        _Arg("--degree", type=int, default=4), _CAP, _format(),
        help="validate or show a section file",
    ),
}
# The help line of each word that only groups leaves.
_GROUPS = {"compute": "run one library operation"}


def _parse_line(words: list[str]) -> SimpleNamespace | None:
    """The namespace of a command line the grammar table takes whole, equal
    to the one the argparse tree gives it; None for any other line.

    The table takes a line when, after the leaf words, the leaf's
    positionals come first (each in its choices), then options given by
    their exact strings, none twice, each but a flag followed by one value
    that does not start with ``-``, every typed value converting with its
    type (``int()``), every value in its choices, and every required
    option present.  It never reports an error: every other line, help
    and usage errors included, is left to argparse."""
    for n in (1, 2):
        leaf = GRAMMAR.get(tuple(words[:n]))
        if leaf is not None:
            break
    else:
        return None
    values = dict(leaf.defaults, command=words[0])
    if n == 2:
        values["operation"] = words[1]
    tokens = words[n:]
    end = len(tokens)
    i = 0
    for arg in leaf.positionals:
        if i < end and not tokens[i].startswith("-"):
            if arg.choices is not None and tokens[i] not in arg.choices:
                return None
            values[arg.dest] = tokens[i]
            i += 1
        elif not arg.optional:
            return None
    seen = set()
    options = leaf.options
    while i < end:
        arg = options.get(tokens[i])
        if arg is None or arg.dest in seen:
            return None
        seen.add(arg.dest)
        if arg.flag:
            values[arg.dest] = True
            i += 1
            continue
        if i + 1 == end or tokens[i + 1].startswith("-"):
            return None
        value = tokens[i + 1]
        if arg.type is not None:
            try:
                value = arg.type(value)
            except ValueError:
                return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = value
        i += 2
    if not leaf.required <= seen:
        return None
    return SimpleNamespace(**values)


_DESCRIPTION = (
    "Exact integer computations in the free pre-Lie and free magmatic algebras "
    "on rooted trees: enumerate tree bases, apply products, compute the base "
    "change psi, its inverse and its projections, expand Agrachev-Gamkrelidze "
    "bases and verify their properties. Exit codes: 0 success, 1 verification "
    "failure, 2 bad arguments, 3 degree cap exceeded, a tree nested too deeply "
    "or a dense matrix above its cell budget, 4 dual-method disagreement, 141 "
    "output pipe closed by its reader."
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``GRAMMAR``: the reference parser, and the one
    that answers help, usage errors and every line the table does not take."""
    import argparse  # only help, usage errors and unusual forms load it

    parser = argparse.ArgumentParser(prog="prelie", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, leaf in GRAMMAR.items():
        subparsers = sub
        if len(words) == 2:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUPS[words[0]])
                groups[words[0]] = group.add_subparsers(dest="operation", required=True)
            subparsers = groups[words[0]]
        p = subparsers.add_parser(words[-1], **({"help": leaf.help} if leaf.help else {}))
        for arg in leaf.args:
            p.add_argument(arg.name, **arg.argparse_kwargs())
        p.set_defaults(func=leaf.func)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argparse tree ``main`` reuses: built on the first line the table
    does not take, not at import."""
    return build_parser()


def _parse_args(argv: list[str] | None):
    """Parse one command line from the grammar table, or, when the table
    does not take it, with the argparse tree, whose help, usage errors and
    exit codes are then the answer."""
    words = sys.argv[1:] if argv is None else list(argv)
    args = _parse_line(words)
    return args if args is not None else _parser().parse_args(words)


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
