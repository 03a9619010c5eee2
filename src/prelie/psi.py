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
from .products import PLANAR, TreeSum, _left_graft_texts, _sum_of_texts
from .trees import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    DegreeCapError,
    DomainError,
    PlanarTree,
    _planar_of_text,
    _subtree_end,
    enumerate_planar,
)


@lru_cache(maxsize=None)
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
def _splits(sigma: PlanarTree, d: int) -> tuple[tuple[PlanarTree, PlanarTree], ...]:
    """Every way to write sigma as a degree-d branch left-grafted onto a
    trunk: one (first child, rest) pair per vertex of sigma whose first
    child has degree d, the rest being sigma without that child.  Built per
    tree and branch degree, from the children's own tables."""
    kids, label = sigma.children, sigma.label
    out = []
    if kids and kids[0].degree == d:
        out.append((kids[0], PlanarTree(kids[1:], label)))
    for i, child in enumerate(kids):
        if child.degree > d:
            for branch, rest in _splits(child, d):
                out.append((branch, PlanarTree(kids[:i] + (rest,) + kids[i + 1 :], label)))
    return tuple(out)


@lru_cache(maxsize=None)
def coeff_c_recursive(sigma: PlanarTree, tau: PlanarTree) -> int:
    """Coefficient of sigma in the image of tau, by the branch/trunk recursion:
    with tau = tau1 o-> tau2, sum c(branch, tau1) c(trunk, tau2) over the
    splittings of sigma into a branch of tau1's degree grafted leftmost onto
    a trunk.  A single vertex maps to itself, label included."""
    if sigma.degree != tau.degree:
        raise DomainError("coefficient needs equal degrees")
    if not tau.children:
        return int(sigma.label == tau.label)
    tau1, tau2 = decompose(tau)
    total = 0
    for branch, trunk in _splits(sigma, tau1.degree):
        c = coeff_c_recursive(branch, tau1)
        if c:
            total += c * coeff_c_recursive(trunk, tau2)
    return total


def _domain_table(tree, refined: bool) -> tuple:
    """The per-tree masks a bijection count reads, as int bitmasks over the
    preorder indices of ``tree``, the root being 0:

    * per vertex, its predecessors: its strict ancestors, and with
      ``refined`` also the strict right siblings of the vertex and of its
      ancestors, which together make its ``<<``-predecessors (see
      :mod:`prelie.orders`);
    * per vertex, its strict descendants, the indices right after it;
    * per (label, m), when not empty, the vertices carrying that label
      with at least m strict descendants.
    """
    n = tree.degree
    pred = [0] * n
    descendants = [0] * n
    exact = {}  # (label, strict descendants) -> vertices

    def walk(node, i: int, above: int) -> None:
        pred[i] = above
        descendants[i] = ((1 << (node.degree - 1)) - 1) << (i + 1)
        key = (node.label, node.degree - 1)
        exact[key] = exact.get(key, 0) | 1 << i
        above |= 1 << i
        j = i + node.degree
        for child in reversed(node.children):
            j -= child.degree
            walk(child, j, above)
            if refined:
                above |= 1 << j

    walk(tree, 0, 0)
    masks = {}
    for label in {label for label, _ in exact}:
        acc = 0
        for m in range(n - 1, -1, -1):
            acc |= exact.get((label, m), 0)
            if acc:
                masks[label, m] = acc
    return tuple(pred), tuple(descendants), masks


@lru_cache(maxsize=None)
def _refined_table(sigma: PlanarTree) -> tuple:
    """The domain table of sigma, its ``pred`` the ``<<``-predecessors."""
    return _domain_table(sigma, True)


@lru_cache(maxsize=None)
def _total_order_table(tau: PlanarTree) -> tuple[tuple[int, ...], tuple]:
    """For each vertex in the total-order listing of tau: the position of
    its parent in that listing (-1 for the root, which comes first), and
    its key (label, number of strict descendants) into the label masks of
    a domain table.  With tau = branch o-> trunk the trunk's listing comes
    before the branch's, so the listing is the root followed by the
    listings of its children, last child first."""
    parents, keys = [], []

    def walk(node, parent: int) -> None:
        k = len(parents)
        parents.append(parent)
        keys.append((node.label, node.degree - 1))
        for child in reversed(node.children):
            walk(child, k)

    walk(tau, -1)
    return tuple(parents), tuple(keys)


def _count_bijections(table, tau: PlanarTree) -> int:
    """Count the bijections from a domain tree onto V(tau) that respect
    ``table``, by an exhaustive depth-first enumeration.

    ``table`` is a domain table (:func:`_domain_table`); domain vertices are
    preorder indices, the root being 0.  The positions of tau's total-order
    listing are filled in turn, each with one unused domain vertex, so a
    filling is the inverse of a bijection.  A vertex i may fill a position
    only when

    * every vertex of ``pred[i]`` already fills an earlier one (the
      bijection is increasing into the total order);
    * it is a strict descendant of the vertex filling the position's
      parent (the inverse is tree-order increasing; checking parent covers
      is enough, the order being their transitive closure);
    * it carries the position's label (the bijection preserves labels);
    * it has at least as many strict descendants as the position's vertex
      w.  This filter prunes without losing a bijection: the inverse maps
      each strict descendant of w to a strict descendant of its image, and
      is injective.

    The last two conditions are one lookup in the label masks.  The root
    of tau comes first in its listing, and its mask holds the domain root
    alone (the one vertex with degree - 1 strict descendants), which no
    vertex has to precede.  The enumeration runs on an explicit
    stack of candidate bitmasks, one per position.  At the last position a
    single domain vertex is left unused, and every other vertex fills an
    earlier position, so its predecessors are placed: each candidate there
    counts as one bijection.
    """
    pred, descendants, masks = table
    parents, keys = _total_order_table(tau)
    try:
        allowed = list(map(masks.__getitem__, keys))
    except KeyError:  # a position no domain vertex may fill
        return 0
    last = len(keys) - 1
    if not last:
        return 1
    image = [0] * len(keys)  # position in tau's listing -> domain vertex
    free = [0] * len(keys)  # per position: the candidates not yet tried
    free[1] = descendants[0] & allowed[1]
    used = 1
    count = 0
    k = 1
    while k:
        f = free[k]
        if not f:
            k -= 1
            used ^= 1 << image[k]
            continue
        if k == last:
            count += 1
            free[k] = 0
            continue
        bit = f & -f
        free[k] = f ^ bit
        i = bit.bit_length() - 1
        if pred[i] & ~used:
            continue
        image[k] = i
        used |= bit
        k += 1
        free[k] = descendants[image[parents[k]]] & allowed[k] & ~used
    return count


def coeff_c_bijections(
    sigma: PlanarTree, tau: PlanarTree, cap: int = BRUTE_FORCE_CAP
) -> int:
    """Same coefficient, counted as label-preserving bijections increasing
    from the planar refinement order on sigma to the total order on tau,
    with tree-order increasing inverse."""
    if sigma.degree != tau.degree:
        raise DomainError("bijection count needs equal degrees")
    if sigma.degree > cap:
        raise DegreeCapError(f"degree {sigma.degree} exceeds brute-force cap {cap}")
    return _count_bijections(_refined_table(sigma), tau)


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
