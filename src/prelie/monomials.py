"""Monomial expressions over generators and Agrachev-Gamkrelidze bases.

A monomial is a full binary expression tree over generators with an
abstract product slot; the product (pre-Lie grafting, Butcher, left
Butcher, left grafting) is only bound at evaluation.  Serialization is
``g`` for a generator and ``[M,M]`` for the product.

Evaluating a monomial over a single generator uses unlabeled vertices, so
results are directly comparable with the plain tree bases; multi-generator
monomials evaluate to vertex-labeled trees.

The two single-tree folds are computed here together, one planar tree
and its projection per sub-monomial: the left-Butcher fold, and the
Butcher fold built from the projections of the operands' folds, with no
text parsed.  The grafting folds are images of the left-Butcher one: psi
fixes the generators and carries the left Butcher product to left
grafting, and forgetting planarity carries left grafting to pre-Lie
grafting.  So the grafting folds of a monomial are psi and psi_bar of its
left-Butcher fold, which evaluation and the expansion matrices read; no
sum is kept per sub-monomial.
"""

from __future__ import annotations

import re

from .matrix import CoeffMatrix, _from_images
from .products import PLANAR, TreeSum, _butcher, _labeled, _sum_of_texts, product_flavor
from .projection import Section, _psi_bar
from .psi import _psi
from .trees import (
    ENUMERATION_CAP,
    DegreeCapError,
    DomainError,
    PlanarTree,
    Tree,
    _LABEL_RE,
    _cached,
    _fill,
    _Value,
    canonical_key,
    enumerate_nonplanar,
)


@_cached
def _singleton(name: str) -> frozenset[str]:
    """One shared generator set per name, so that the product nodes of a
    one-generator monomial all hold the same set."""
    return frozenset((name,))


class Generator(_Value):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str = "g"):
        _set_name(self, name)

    def serialize(self) -> str:
        return self.name

    @property
    def degree(self) -> int:
        return 1

    def generator_names(self) -> frozenset[str]:
        return _singleton(self.name)


class Product(_Value):
    """The product node of a monomial.  Its serialization, degree and
    generator set are computed once, from its operands' stored values, and
    it compares and hashes by its serialization, so a memo keyed by
    monomials reads no subexpression."""

    __slots__ = ("left", "right", "_text", "degree", "_names")
    _fields = ("left", "right")

    def __init__(self, left: MonomialExpr, right: MonomialExpr):
        _set_left(self, left)
        _set_right(self, right)
        _set_text(self, f"[{left.serialize()},{right.serialize()}]")
        _set_degree(self, left.degree + right.degree)
        names, more = left.generator_names(), right.generator_names()
        _set_names(self, names if more <= names else names | more)

    def serialize(self) -> str:
        return self._text

    def generator_names(self) -> frozenset[str]:
        return self._names

    def __eq__(self, other) -> bool:
        if type(other) is not Product:
            return NotImplemented
        return self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)


# Both classes are frozen, so construction writes the slots through their
# descriptors.
_set_name = Generator.name.__set__
_set_left = Product.left.__set__
_set_right = Product.right.__set__
_set_text = Product._text.__set__
_set_degree = Product.degree.__set__
_set_names = Product._names.__set__

MonomialExpr = Generator | Product

_MONO_TOKEN = re.compile(r"[a-z0-9_]+|[\[\],]")


def parse_monomial(text: str) -> MonomialExpr:
    tokens = _MONO_TOKEN.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise DomainError(f"cannot tokenize monomial {text!r}")

    def parse(pos: int):
        if pos >= len(tokens):
            raise DomainError("unexpected end of monomial")
        tok = tokens[pos]
        if tok == "[":
            left, pos = parse(pos + 1)
            if pos >= len(tokens) or tokens[pos] != ",":
                raise DomainError("expected ',' in monomial")
            right, pos = parse(pos + 1)
            if pos >= len(tokens) or tokens[pos] != "]":
                raise DomainError("expected ']' in monomial")
            return Product(left, right), pos + 1
        if tok in ",]":
            raise DomainError(f"unexpected {tok!r} in monomial")
        return Generator(tok), pos + 1

    expr, pos = parse(0)
    if pos != len(tokens):
        raise DomainError(f"trailing input in monomial {text!r}")
    return expr


def evaluate(m: MonomialExpr, product: str, labeled: bool | None = None) -> TreeSum:
    """Fold a monomial under one of the four products.

    The magmatic products give single-tree sums; the grafting products
    give genuine sums.  With ``labeled=None`` vertices stay unlabeled when
    the expression uses a single generator symbol.  The Butcher product
    gives the projection of the left-Butcher fold, and the grafting
    products read psi and psi_bar of it.
    """
    flavor = product_flavor(product)
    if labeled is None:
        labeled = len(m.generator_names()) > 1
    planar, tree = _magmatic_fold(m, bool(labeled))
    if product == "left-butcher":
        return TreeSum.single(planar)
    if product == "butcher":
        return TreeSum.single(tree)
    image = (_psi if flavor == PLANAR else _psi_bar)(planar._text)
    return _sum_of_texts(flavor, image, _labeled(planar))


def lower_energy_term(m: MonomialExpr) -> Tree:
    """The single tree obtained by binding the product to the Butcher
    product: the one term of ``evaluate(m, "butcher")``, the projection of
    the left-Butcher fold."""
    return _magmatic_fold(m, len(m.generator_names()) > 1)[1]


def planar_lower_term(m: MonomialExpr) -> PlanarTree:
    """The one term of ``evaluate(m, "left-butcher")``."""
    return _magmatic_fold(m, len(m.generator_names()) > 1)[0]


@_cached
def _magmatic_fold(expr: MonomialExpr, labeled: bool) -> tuple[PlanarTree, Tree]:
    """The planar tree of ``expr`` with the product bound to the left
    Butcher product (the left operand becomes the leftmost branch at the
    right one's root), and its projection, the tree of ``expr`` with the
    product bound to the Butcher product, the Butcher product of the
    projections of the operands' folds; no text is parsed.  Memoized: the
    basis monomials of a degree share their sub-monomials, and the same
    monomial is folded again for other products."""
    if type(expr) is Generator:
        label = expr.name if labeled else None
        return PlanarTree((), label), Tree((), label)
    left, left_tree = _magmatic_fold(expr.left, labeled)
    right, right_tree = _magmatic_fold(expr.right, labeled)
    planar = PlanarTree((left,) + right.children, right.label)
    # a planar text once read as a Tree is a key of the Tree table
    return planar, Tree._by_text.get(planar._text) or _butcher(left_tree, right_tree)


# ---------------------------------------------------------------------------
# Agrachev-Gamkrelidze bases


class GeneratorOrder(_Value):
    """Totally ordered generator alphabet, ascending."""

    __slots__ = _fields = ("alphabet",)

    def __init__(self, alphabet: tuple[str, ...] = ("g",)):
        if len(set(alphabet)) != len(alphabet) or not alphabet:
            raise DomainError("alphabet must be non-empty without repeats")
        for name in alphabet:
            if not _LABEL_RE.fullmatch(name):
                raise DomainError(f"generator name {name!r} is not a label [a-z0-9_]+")
        _fill(self, alphabet)


@_cached
def _ag_raw(n: int, alphabet: tuple[str, ...]) -> tuple[MonomialExpr, ...]:
    """Degree-n basis monomials: weakly decreasing words of lower-degree
    basis elements applied to a generator.

    Basis elements are ordered degree-major (higher degree first), then by
    construction index; words are emitted in descending lexicographic
    order of that total order.  A word u1 u2 ... uk applied to a generator
    is the product of u1 with the rest of the word applied to it, a basis
    monomial of lower degree, so each monomial is one new ``Product`` whose
    right operand was already built.
    """
    if n == 1:
        return tuple(Generator(a) for a in alphabet)
    pool: list[MonomialExpr] = []
    for j in range(n - 1, 0, -1):
        pool.extend(reversed(_ag_raw(j, alphabet)))
    rank = {u: i for i, u in enumerate(pool)}
    out = []
    for i, u in enumerate(pool):
        for m in _ag_raw(n - u.degree, alphabet):
            if type(m) is Generator or rank[m.left] >= i:
                out.append(Product(u, m))
    return tuple(out)


class MonomialBasis(_Value):
    __slots__ = _fields = ("degree", "monomials")

    def __init__(self, degree: int, monomials: tuple[MonomialExpr, ...]):
        _fill(self, degree, monomials)

    def serialized(self) -> tuple[str, ...]:
        return tuple(m.serialize() for m in self.monomials)


def ag_basis(n: int, order: GeneratorOrder | None = None) -> MonomialBasis:
    """One-generator basis of the degree-n homogeneous component, sorted so
    that lower-energy terms follow the canonical tree order."""
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")
    order = order or GeneratorOrder()
    if len(order.alphabet) != 1:
        raise DomainError("ag_basis is single-generator; use ag_basis_multigen")
    monos = sorted(
        _ag_raw(n, order.alphabet),
        key=lambda m: canonical_key(lower_energy_term(m)),
        reverse=True,
    )
    return MonomialBasis(n, tuple(monos))


def ag_basis_multigen(
    n: int, order: GeneratorOrder, cap: int = 5
) -> list[MonomialExpr]:
    """Multi-generator basis monomials of degree n, in enumeration order."""
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")
    if n > cap:
        raise DegreeCapError(f"degree {n} exceeds multi-generator cap {cap}")
    return list(_ag_raw(n, order.alphabet))


def expand_basis(basis: MonomialBasis, max_degree: int = ENUMERATION_CAP) -> CoeffMatrix:
    """Tree expansions of a one-generator basis: one column per monomial,
    rows over the canonical non-planar basis."""
    n = basis.degree
    rows = tuple([t._text for t in enumerate_nonplanar(n, max_degree)])
    for m in basis.monomials:
        if len(m.generator_names()) != 1:
            raise DomainError("expansion matrices are single-generator only")
    cols = tuple([m.serialize() for m in basis.monomials])
    images = (_psi_bar(planar_lower_term(m)._text).items() for m in basis.monomials)
    return _from_images(n, rows, cols, images)


def is_tree_grounded(
    monomials: list[MonomialExpr] | tuple[MonomialExpr, ...], n: int
) -> tuple[bool, dict]:
    """Whether the lower-energy terms are exactly the degree-n tree basis.

    The witness lists missing and duplicated trees on failure.
    """
    for m in monomials:
        if m.degree != n:
            raise DomainError(
                f"monomial {m.serialize()} has degree {m.degree}, expected {n}"
            )
    lower = [lower_energy_term(m) for m in monomials]
    counts: dict[Tree, int] = {}
    for t in lower:
        counts[t] = counts.get(t, 0) + 1
    expected = set(enumerate_nonplanar(n))
    missing = sorted(
        (t.serialize() for t in expected if counts.get(t, 0) == 0)
    )
    duplicated = sorted(
        t.serialize() for t, c in counts.items() if c > 1
    )
    extraneous = sorted(
        t.serialize() for t in counts if t not in expected
    )
    ok = not missing and not duplicated and not extraneous and len(lower) == len(expected)
    witness = {"missing": missing, "duplicated": duplicated, "extraneous": extraneous}
    return ok, witness


def section_of_basis(
    monomials: list[MonomialExpr] | tuple[MonomialExpr, ...], n: int
) -> Section:
    """Section defined by a tree-grounded family: each lower-energy term is
    sent to the left-Butcher reading of its monomial."""
    ok, witness = is_tree_grounded(monomials, n)
    if not ok:
        raise DomainError(f"monomials are not tree-grounded: {witness}")
    return Section({lower_energy_term(m): planar_lower_term(m) for m in monomials})


def load_monomials(text: str) -> list[MonomialExpr]:
    """One serialized monomial per line; '#' comments allowed."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(parse_monomial(line))
    return out
