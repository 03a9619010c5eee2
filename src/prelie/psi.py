"""The base change between the two free magmatic structures on planar trees.

The left Butcher product and the left grafting product each make the span
of planar rooted trees a free magmatic algebra; the unique isomorphism
fixing the single vertex and intertwining the two products is unipotent
upper triangular per degree in the canonical basis order.  Its
coefficients c(sigma, tau) are computed two independent ways: by the
decomposition recursion, and by brute-force counting of order-compatible
vertex bijections.  Unipotence alone gives the inverse: each preimage is
the tree minus the preimages of the higher-energy terms of its image.

The isomorphism is computed on serializations: psi(b o-> t) is the left
graft of psi(b) onto psi(t), and a left graft inserts one text right
after a ``(`` of another (see :mod:`prelie.products`).  Images are
memoized per text as read-only maps from texts to coefficients; trees are
built only for the public sums, once per distinct text.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .matrix import CoeffMatrix, _from_images
from .orders import left_refined_pairs, total_order_list
from .products import PLANAR, TreeSum, _left_graft_texts, _sum_of_texts
from .trees import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    DegreeCapError,
    DomainError,
    PlanarTree,
    _drop_first_child,
    _planar_of_text,
    _subtree_end,
    enumerate_planar,
)


def decompose(sigma: PlanarTree) -> tuple[PlanarTree, PlanarTree]:
    """Unique splitting sigma = branch o-> trunk off the leftmost root branch."""
    if not sigma.children:
        raise DomainError("cannot decompose a single vertex")
    branch = sigma.children[0]
    trunk = PlanarTree(sigma.children[1:], sigma.label)
    return branch, trunk


def _split(text: str) -> tuple[str, str] | None:
    """The branch (the root's leftmost child) and the trunk (the rest) of a
    tree text; None for a single vertex."""
    p = text.index("(")
    if text[p + 1] == ")":
        return None
    end = _subtree_end(text, p + 1)
    return text[p + 1 : end], text[: p + 1] + text[end:]


@lru_cache(maxsize=None)
def _psi(text: str) -> MappingProxyType:
    """The image of a tree text, as a read-only map from texts to
    coefficients (every caller shares the memoized map)."""
    parts = _split(text)
    if parts is None:
        return MappingProxyType({text: 1})
    branch, trunk = parts
    return MappingProxyType(_left_graft_texts({}, _psi(branch).items(), _psi(trunk).items()))


@lru_cache(maxsize=None)
def psi(tau: PlanarTree) -> TreeSum:
    """Image of a planar tree under the magmatic isomorphism."""
    return _sum_of_texts(PLANAR, _psi(tau.serialize()))


@lru_cache(maxsize=None)
def coeff_c_recursive(sigma: PlanarTree, tau: PlanarTree) -> int:
    """Coefficient of sigma in the image of tau, by the branch/trunk recursion."""
    if sigma.degree != tau.degree:
        raise DomainError("coefficient needs equal degrees")
    if not tau.children:
        return 1
    tau1, tau2 = decompose(tau)
    total = 0
    for v in sigma.vertices():
        children = sigma.subtree(v).children
        if children and children[0].degree == tau1.degree:
            trunk = _drop_first_child(sigma, v)
            total += coeff_c_recursive(children[0], tau1) * coeff_c_recursive(trunk, tau2)
    return total


def _tree_order_masks(verts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex of ``verts`` (a preorder listing), as int bitmasks over
    the preorder indices: its strict ancestors and its strict descendants."""
    index = {v: i for i, v in enumerate(verts)}
    ancestors = [0] * len(verts)
    descendants = [0] * len(verts)
    for v, i in index.items():
        for k in range(len(v)):
            j = index[v[:k]]
            ancestors[i] |= 1 << j
            descendants[j] |= 1 << i
    return tuple(ancestors), tuple(descendants)


@lru_cache(maxsize=None)
def _refined_table(sigma: PlanarTree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex of sigma in preorder, as bitmasks: its ``<<``-predecessors
    and its strict descendants."""
    verts = sigma.vertices()
    index = {v: i for i, v in enumerate(verts)}
    pred = [0] * len(verts)
    for u, v in left_refined_pairs(sigma):
        pred[index[v]] |= 1 << index[u]
    return tuple(pred), _tree_order_masks(verts)[1]


@lru_cache(maxsize=None)
def _total_order_parents(tau: PlanarTree) -> tuple[int, ...]:
    """For each vertex in the total-order listing of tau, the position of
    its parent in that listing; -1 for the root, which comes first."""
    listing = total_order_list(tau)
    rank = {w: k for k, w in enumerate(listing)}
    return tuple(rank[w[:-1]] if w else -1 for w in listing)


def _count_bijections(pred, descendants, tau: PlanarTree) -> int:
    """Backtracking count of bijections onto V(tau), processed in the
    total-order listing of tau.

    Domain vertices are preorder indices, the root being 0.  ``pred[i]`` is
    the bitmask of domain vertices that must already be assigned before i
    may be used; the inverse must carry the tree order of tau to the tree
    order of the domain (checked on parent covers through
    ``descendants``).  The root of tau comes first in its listing and is
    forced onto the domain root, which no vertex has to precede.
    """
    parents = _total_order_parents(tau)
    n = len(parents)
    image = [0] * n  # position in tau's listing -> domain vertex

    def place(k: int, used: int) -> int:
        if k == n:
            return 1
        count = 0
        free = descendants[image[parents[k]]] & ~used
        while free:
            bit = free & -free
            free ^= bit
            i = bit.bit_length() - 1
            if pred[i] & ~used:
                continue
            image[k] = i
            count += place(k + 1, used | bit)
        return count

    return place(1, 1)


def coeff_c_bijections(
    sigma: PlanarTree, tau: PlanarTree, cap: int = BRUTE_FORCE_CAP
) -> int:
    """Same coefficient, counted as bijections increasing from the planar
    refinement order on sigma to the total order on tau, with tree-order
    increasing inverse."""
    if sigma.degree != tau.degree:
        raise DomainError("bijection count needs equal degrees")
    if sigma.degree > cap:
        raise DegreeCapError(f"degree {sigma.degree} exceeds brute-force cap {cap}")
    return _count_bijections(*_refined_table(sigma), tau)


def psi_matrix(n: int, max_degree: int = ENUMERATION_CAP) -> CoeffMatrix:
    """Per-degree matrix of the isomorphism over the canonical planar basis."""
    basis = enumerate_planar(n, max_degree)
    return _from_images(n, basis, basis, [psi(tau) for tau in basis])


@lru_cache(maxsize=None)
def psi_inverse(sigma: PlanarTree) -> TreeSum:
    """Preimage of a planar tree, by the unipotent recursion

        psi^-1(sigma) = sigma - sum over tau != sigma of c(tau, sigma) psi^-1(tau).

    Every tau in the image of sigma other than sigma itself has strictly
    higher potential energy, so the recursion ends.  The image is read from
    the text kernel; the recursion goes through this memoized function.
    """
    text = sigma.serialize()
    acc = {text: 1}
    get = acc.get
    for tau, c in _psi(text).items():
        if tau != text:
            for rho, d in psi_inverse(_planar_of_text(tau)).terms:
                r = rho.serialize()
                acc[r] = get(r, 0) - c * d
    return _sum_of_texts(PLANAR, acc)


@lru_cache(maxsize=None)
def n_statistic(sigma: PlanarTree) -> int:
    """Number of trees, with multiplicity, in the image of sigma."""
    if not sigma.children:
        return 1
    branch, trunk = decompose(sigma)
    return n_statistic(branch) * n_statistic(trunk) * trunk.degree


def n_statistic_total(n: int) -> int:
    return sum(n_statistic(sigma) for sigma in enumerate_planar(n))
