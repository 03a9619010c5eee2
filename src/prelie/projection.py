"""Forgetting planarity: the projection, its sections, and the induced
non-planar base-change matrices.

The composite of the planar base change with the projection expands a
planar tree over non-planar trees with coefficients alpha(s, tau); those
equal a bijection count divided by the symmetry factor of s.  Precomposing
with a section (a choice of planar representative per tree) gives a square
unipotent matrix per degree.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product, repeat

from .matrix import CoeffMatrix, _check_dense, _from_images
from .psi import _count_bijections, _domain_table, _psi, coeff_c_recursive
from .products import NONPLANAR, TreeSum, _sum_of_texts
from .trees import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    DegreeCapError,
    DomainError,
    PlanarTree,
    Tree,
    _check_degree,
    _nonplanar_count,
    _planar_count,
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


@lru_cache(maxsize=None)
def planar_embeddings(s: Tree) -> tuple[PlanarTree, ...]:
    """All distinct planar trees projecting onto s (the fiber of s)."""
    child_options = [planar_embeddings(c) for c in s.children]
    out = set()
    for picks in product(*child_options):
        for perm in set(permutations(picks)):
            out.add(PlanarTree(perm, s.label))
    return tuple(sorted(out, key=lambda t: serial_key(t.serialize()), reverse=True))


def _psi_bar(text: str) -> dict[str, int]:
    """The projected image of a planar tree text: the terms of its planar
    image summed under their canonical texts.  Every text read as a
    non-planar tree, canonical or not, is a key of ``Tree._by_text``, so a
    known text costs one lookup and no call."""
    acc: dict[str, int] = {}
    get = acc.get
    known = Tree._by_text.get
    for t, c in _psi(text).items():
        s = (known(t) or _tree_of_text(t))._text
        acc[s] = get(s, 0) + c
    return acc


def psi_bar(tau: PlanarTree) -> TreeSum:
    """Planar base change followed by termwise projection."""
    return _sum_of_texts(NONPLANAR, _psi_bar(tau.serialize()))


def alpha(s: Tree, tau: PlanarTree) -> int:
    """Coefficient of s in the projected image of tau: the fiber sum of the
    planar coefficients."""
    if s.degree != tau.degree:
        raise DomainError("alpha needs equal degrees")
    return sum(map(coeff_c_recursive, planar_embeddings(s), repeat(tau)))


def count_tilde_b(s: Tree, tau: PlanarTree, cap: int = BRUTE_FORCE_CAP) -> int:
    """Label-preserving bijections from V(s) to V(tau) increasing from the
    tree order into the total order, with tree-order increasing inverse."""
    if s.degree != tau.degree:
        raise DomainError("bijection count needs equal degrees")
    if s.degree > cap:
        raise DegreeCapError(f"degree {s.degree} exceeds brute-force cap {cap}")
    return _count_bijections(_ancestor_table(s), tau)


@lru_cache(maxsize=None)
def _ancestor_table(s: Tree) -> tuple:
    """The domain table of s under the tree order (see
    :func:`prelie.psi._domain_table`)."""
    return _domain_table(s, False)


def alpha_matrix(n: int, max_degree: int = ENUMERATION_CAP) -> CoeffMatrix:
    """Rectangular matrix of the projected base change: non-planar rows,
    planar columns, both in canonical order."""
    _check_degree(n, max_degree)
    _check_dense(n, _nonplanar_count(n), _planar_count(n))
    rows = tuple([t._text for t in enumerate_nonplanar(n, max_degree)])
    cols = tuple([tau._text for tau in enumerate_planar(n, max_degree)])
    return _from_images(n, rows, cols, (_psi_bar(text).items() for text in cols))


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
    _check_degree(n, max_degree)
    _check_dense(n, _nonplanar_count(n), _nonplanar_count(n))
    basis = enumerate_nonplanar(n, max_degree)
    for t in basis:
        if not section.covers(t):
            raise DomainError(f"section does not cover degree {n}")
    texts = tuple([t._text for t in basis])
    return _from_images(n, texts, texts, (_psi_bar(section(t)._text).items() for t in basis))
