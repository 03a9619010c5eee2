"""Forgetting planarity: the projection, its sections, and the induced
non-planar base-change matrices.

The composite of the planar base change with the projection expands a
planar tree over non-planar trees with coefficients alpha(s, tau); those
equal a bijection count divided by the symmetry factor of s, the count
of :mod:`prelie.psi` run from the tree order of s.  Precomposing
with a section (a choice of planar representative per tree) gives a square
unipotent matrix per degree.

Forgetting planarity carries left grafting to pre-Lie grafting,
pi(x left-grafted onto y) = pi(x) -> pi(y), so the projected image obeys
its own recursion on non-planar trees: with tau = b o-> t,

    psi_bar(b o-> t) = psi_bar(b) -> psi_bar(t).

The projected image is computed that way, on canonical texts, and never
reads the planar image of psi: its work is at non-planar size.
"""

from __future__ import annotations

from itertools import product
from types import MappingProxyType

from .matrix import CoeffMatrix, _from_images
from .psi import (
    _coeff_calls,
    _coeffs,
    _count_bijections,
    _split,
    _tree_domains,
    _wrong_class,
    coeff_c_recursive,
)
from .products import NONPLANAR, TreeSum, _graft_sum_texts, _labeled, _sum_of_texts
from .trees import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    DomainError,
    PlanarTree,
    Tree,
    _cached,
    _planar_of_text,
    _tree_of_text,
    enumerate_nonplanar,
    enumerate_planar,
    serial_key,
)


def forget_planarity(sigma: PlanarTree) -> Tree:
    """Project a planar tree onto its canonical non-planar form: the tree
    its text reads as."""
    return _tree_of_text(sigma._text)


@_cached
def planar_embeddings(s: Tree) -> tuple[PlanarTree, ...]:
    """All distinct planar trees projecting onto s (the fiber of s), in
    descending serialization order.  The distinct child orders are built
    one child at a time: each embedding of the next child goes in at each
    position of each order so far.  The set keeps every order once, so a
    run of k identical children costs k insertion steps, not k!
    permutations, and the fiber's size is the multinomial over classes of
    identical children times the product of the children's fiber sizes.
    Refuses a ``PlanarTree``, tested on a cache miss only."""
    if type(s) is not Tree:
        raise _wrong_class(Tree, s)
    orders = {()}
    for child in s.children:
        fiber = planar_embeddings(child)
        orders = {o[:k] + (e,) + o[k:] for o in orders for e in fiber for k in range(len(o) + 1)}
    out = [PlanarTree(o, s.label) for o in orders]
    return tuple(sorted(out, key=lambda t: serial_key(t.serialize()), reverse=True))


@_cached
def _psi_bar(text: str) -> MappingProxyType:
    """The projected image of a planar tree text, as a read-only map from
    canonical texts to coefficients, by the recursion of the module
    docstring: a single vertex maps to itself, and b o-> t to the pre-Lie
    graft of the projected image of b onto that of t.  Both are canonical,
    so the grafts read the shared memo of :mod:`prelie.products`."""
    parts = _split(text)
    if parts is None:
        return MappingProxyType({text: 1})
    branch, trunk = parts
    return MappingProxyType(
        _graft_sum_texts({}, _psi_bar(branch).items(), _psi_bar(trunk).items())
    )


def psi_bar(tau: PlanarTree) -> TreeSum:
    """Planar base change followed by termwise projection, computed as the
    pre-Lie grafting of the projected images of branch and trunk."""
    return _sum_of_texts(NONPLANAR, _psi_bar(tau.serialize()), _labeled(tau))


_NO_CELLS = MappingProxyType({})  # the cells of a tau with no memo yet


def alpha(s: Tree, tau: PlanarTree) -> int:
    """Coefficient of s in the projected image of tau: the fiber sum of the
    planar coefficients.  The fiber's cells are read from the memo of tau
    (counted as hits of :func:`coeff_c_recursive`), which is called only
    on a miss."""
    if s.degree != tau.degree:
        raise DomainError("alpha needs equal degrees")
    try:
        get = _coeffs[tau].get
    except KeyError:  # left to coeff_c_recursive, which tests tau's class
        get = _NO_CELLS.get
    total = hits = 0
    for sigma in planar_embeddings(s):
        c = get(sigma)
        if c is None:
            c = coeff_c_recursive(sigma, tau)
        else:
            hits += 1
        total += c
    _coeff_calls[0] += hits
    return total


def count_tilde_b(s: Tree, tau: PlanarTree, cap: int = BRUTE_FORCE_CAP) -> int:
    """Label-preserving bijections from V(s) to V(tau) increasing from the
    tree order into the total order, with tree-order increasing inverse.
    They are counted up to the automorphisms of s, one per orbit, and the
    orbit count is multiplied by σ(s) (see :func:`prelie.psi._count_bijections`)."""
    return _count_bijections(s, tau, cap, _tree_domains, Tree)


def alpha_matrix(n: int, max_degree: int = ENUMERATION_CAP) -> CoeffMatrix:
    """Rectangular matrix of the projected base change: non-planar rows,
    planar columns, both in canonical order."""
    rows = tuple([t._text for t in enumerate_nonplanar(n, max_degree)])
    cols = tuple([tau._text for tau in enumerate_planar(n, max_degree)])
    return _from_images(n, rows, cols, map(_psi_bar, cols))


# ---------------------------------------------------------------------------
# sections


class Section:
    """A choice of planar representative for each non-planar tree, with
    the projection returning the original tree (validated eagerly)."""

    def __init__(self, mapping: dict[Tree, PlanarTree]):
        for t, sigma in mapping.items():
            if forget_planarity(sigma) != t:
                raise DomainError(
                    f"not a section: {sigma.serialize()} does not project to "
                    f"{t.serialize()}"
                )
        self._map = dict(mapping)

    def __call__(self, t: Tree) -> PlanarTree:
        if t not in self._map:
            raise DomainError(f"section does not cover {t.serialize()}")
        return self._map[t]

    def covers(self, t: Tree) -> bool:
        return t in self._map

    def items(self):
        return self._map.items()

    def to_text(self) -> str:
        lines = [
            f"{t.serialize()} => {sigma.serialize()}"
            for t, sigma in sorted(
                self._map.items(), key=lambda kv: (kv[0].degree, kv[0].serialize())
            )
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Section":
        from .trees import parse_planar, parse_tree

        mapping = {}
        first_line = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=>" not in line:
                raise DomainError(f"line {lineno}: expected '<tree> => <planar>'")
            left, right = (part.strip() for part in line.split("=>", 1))
            t = parse_tree(left)
            if t in first_line:
                raise DomainError(
                    f"line {lineno}: {t.serialize()} already has an entry on "
                    f"line {first_line[t]}"
                )
            first_line[t] = lineno
            mapping[t] = parse_planar(right)
        return cls(mapping)


def default_embedding(t: Tree) -> PlanarTree:
    """Canonical planar representative: embedded children in descending
    serialization order.  The children of ``t`` are already in that order,
    so it is the planar tree of ``t``'s text."""
    return _planar_of_text(t._text)


def default_section(n: int, max_degree: int = ENUMERATION_CAP) -> Section:
    return Section({t: default_embedding(t) for t in enumerate_nonplanar(n, max_degree)})


def all_sections(n: int, max_degree: int = ENUMERATION_CAP):
    """Every section of the projection on the degree-n trees.  Fiber sizes
    grow quickly; meant for small degrees."""
    basis = enumerate_nonplanar(n, max_degree)
    fibers = [planar_embeddings(t) for t in basis]
    for picks in product(*fibers):
        yield Section(dict(zip(basis, picks)))


def psi_tilde(section: Section, t: Tree) -> TreeSum:
    """Non-planar expansion of t through its chosen planar representative."""
    return psi_bar(section(t))


def beta_matrix(section: Section, n: int, max_degree: int = ENUMERATION_CAP) -> CoeffMatrix:
    """Square matrix of the non-planar expansions through ``section``, over
    the canonical non-planar basis."""
    basis = enumerate_nonplanar(n, max_degree)
    for t in basis:
        if not section.covers(t):
            raise DomainError(f"section does not cover degree {n}")
    texts = tuple([t._text for t in basis])
    return _from_images(n, texts, texts, (_psi_bar(section(t)._text) for t in basis))
