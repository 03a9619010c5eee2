"""The base change between the two free magmatic structures on planar trees.

The left Butcher product and the left grafting product each make the span
of planar rooted trees a free magmatic algebra; the unique isomorphism
fixing the single vertex and intertwining the two products is unipotent
upper triangular per degree in the canonical basis order.  Its
coefficients c(sigma, tau) are computed two independent ways: by the
decomposition recursion, and by brute-force counting of order-compatible
vertex bijections.  The count is shared with the projected coefficients
of :mod:`prelie.projection`: its domain order is fixed by the domain
tree's class, ``<<`` on a planar tree and ``<`` on a non-planar one.

The isomorphism is computed on serializations: psi(b o-> t) is the left
graft of psi(b) onto psi(t), and a left graft inserts one text right
after a ``(`` of another, at a memoized cut point (see
:mod:`prelie.products`).  Images are memoized per text as read-only maps
from texts to coefficients.  The public sums hold those texts and build a
tree only when their ``terms`` are read, and the matrices read the texts
directly.

The inverse is its own text kernel, by the left-Butcher recursion: psi^-1
carries left grafting back to the left Butcher product, and b grafted
leftmost at the root of t is b o-> t, so

    psi^-1(b o-> t) = psi^-1(b) o-> psi^-1(t) - sum over v != root of psi^-1(b at v),

where "b at v" is b grafted leftmost at the vertex v of t.  On texts,
``x o-> y`` is the left-Butcher kernel of :mod:`prelie.products`, which
inserts x right after the root's ``(`` in y, and "b at v" puts b in at
the cut point of v in t, one string per vertex v.  Every "b at v" has
strictly higher potential energy than b o-> t, so the recursion ends.
"""

from __future__ import annotations

from functools import _CacheInfo, lru_cache
from types import MappingProxyType

from .matrix import CoeffMatrix, _check_dense, _from_images
from .products import (
    PLANAR,
    TreeSum,
    _left_butcher_texts,
    _left_graft_texts,
    _cuts,
    _has_label,
    _labeled,
    _ranked,
    _sum_of_texts,
)
from .trees import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    DegreeCapError,
    DomainError,
    PlanarTree,
    _check_degree,
    _planar_count,
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


def _count_memo(fn, memo: dict, calls: list, size=len) -> None:
    """Give ``fn``, memoized in the plain dict ``memo`` with its hits and
    misses counted in ``calls``, the ``cache_info`` and ``cache_clear`` of
    an ``lru_cache`` (the perfbench tracer reads ``cache_info``), with
    ``size(memo)`` entries held.  ``cache_info`` returns the type an
    ``lru_cache`` does, which costs no class built at import."""

    def cache_clear() -> None:
        memo.clear()
        calls[:] = [0, 0]

    fn.cache_info = lambda: _CacheInfo(calls[0], calls[1], None, size(memo))
    fn.cache_clear = cache_clear


_images: dict[str, MappingProxyType] = {}
_image_calls = [0, 0]  # hits, misses


def _psi(text: str) -> MappingProxyType:
    """The image of a tree text, as a read-only map from texts to
    coefficients (every caller shares the memoized map).  Memoized in a
    plain dict, at one interpreter level per recursive call."""
    out = _images.get(text)
    if out is not None:
        _image_calls[0] += 1
        return out
    _image_calls[1] += 1
    parts = _split(text)
    if parts is None:
        out = MappingProxyType({text: 1})
    else:
        branch, trunk = parts
        out = MappingProxyType(_left_graft_texts({}, _psi(branch).items(), _psi(trunk).items()))
    _images[text] = out
    return out


_count_memo(_psi, _images, _image_calls)


def psi(tau: PlanarTree) -> TreeSum:
    """Image of a planar tree under the magmatic isomorphism: a new sum of
    the memoized kernel image, which is the one copy kept."""
    return _sum_of_texts(PLANAR, _psi(tau.serialize()), _labeled(tau))


# psi memoizes through its kernel, so the kernel's counts are its counts.
psi.cache_info, psi.cache_clear = _psi.cache_info, _psi.cache_clear


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


_coeffs: dict[PlanarTree, dict[PlanarTree, int]] = {}  # tau -> sigma -> c(sigma, tau)
_coeff_calls = [0, 0]  # hits, misses


def coeff_c_recursive(sigma: PlanarTree, tau: PlanarTree) -> int:
    """Coefficient of sigma in the image of tau, by the branch/trunk recursion:
    with tau = tau1 o-> tau2, sum c(branch, tau1) c(trunk, tau2) over the
    splittings of sigma into a branch of tau1's degree grafted leftmost onto
    a trunk.  A single vertex maps to itself, label included.  Memoized in
    one plain dict per tau, keyed by sigma: trees hash by identity, so a
    cell costs one dict slot and a hit allocates nothing."""
    memo = _coeffs.get(tau)
    if memo is None:
        memo = _coeffs[tau] = {}
    else:
        total = memo.get(sigma)
        if total is not None:
            _coeff_calls[0] += 1
            return total
    _coeff_calls[1] += 1
    if sigma.degree != tau.degree:
        raise DomainError("coefficient needs equal degrees")
    if not tau.children:
        total = int(sigma.label == tau.label)
    else:
        tau1, tau2 = decompose(tau)
        total = 0
        for branch, trunk in _splits(sigma, tau1.degree):
            c = coeff_c_recursive(branch, tau1)
            if c:
                total += c * coeff_c_recursive(trunk, tau2)
    memo[sigma] = total
    return total


_count_memo(coeff_c_recursive, _coeffs, _coeff_calls, lambda memo: sum(map(len, memo.values())))


@lru_cache(maxsize=None)
def _count_fields(n: int) -> tuple[tuple[int, ...], int]:
    """The packing of the descendant counts of a degree-n tree into one
    integer: field m, ``n.bit_length() + 1`` bits wide, holds the number of
    vertices with at least m strict descendants, so the top bit of every
    field stays clear, as a guard for the dominance test of
    :func:`_count_bijections`.  Returns, per number d of strict
    descendants, the packed count of one such vertex (a 1 in fields 0 to
    d), and the mask of the guard bits."""
    width = n.bit_length() + 1
    units, acc = [], 0
    for m in range(n):
        acc |= 1 << (m * width)
        units.append(acc)
    return tuple(units), acc << (width - 1)


@lru_cache(maxsize=None)
def _domain_table(tree) -> tuple:
    """The per-tree masks a bijection count reads, as int bitmasks over the
    preorder indices of ``tree``, the root being 0.  The domain order is
    fixed by the tree's class: the planar refinement ``<<`` on a
    ``PlanarTree`` (see :mod:`prelie.orders`), the tree order ``<`` on a
    ``Tree``.

    * per vertex, the vertices it unlocks: those whose cover predecessor it
      is.  Under the tree order every non-root vertex has its parent as its
      one cover predecessor, so a vertex unlocks its children.  Under
      ``<<`` the cover predecessor is the right-adjacent sibling, or the
      parent when there is none, so a vertex unlocks its rightmost child
      and its left-adjacent sibling;
    * per vertex, its strict descendants, the indices right after it;
    * per (label, m), when not empty, the vertices carrying that label
      with at least m strict descendants;
    * the numbers of strict descendants, packed (:func:`_count_fields`).
    """
    n = tree.degree
    refined = isinstance(tree, PlanarTree)
    unlock = [0] * n
    descendants = [0] * n
    exact = {}  # (label, strict descendants) -> vertices

    def walk(node, i: int) -> None:
        descendants[i] = ((1 << (node.degree - 1)) - 1) << (i + 1)
        key = (node.label, node.degree - 1)
        exact[key] = exact.get(key, 0) | 1 << i
        cover = i  # the cover predecessor of the next child to the left
        j = i + node.degree
        for child in reversed(node.children):
            j -= child.degree
            walk(child, j)
            unlock[cover] |= 1 << j
            if refined:
                cover = j

    walk(tree, 0)
    masks = {}
    for label in {label for label, _ in exact}:
        acc = 0
        for m in range(n - 1, -1, -1):
            acc |= exact.get((label, m), 0)
            if acc:
                masks[label, m] = acc
    counts = sum(map(_count_fields(n)[0].__getitem__, map(int.bit_count, descendants)))
    return tuple(unlock), tuple(descendants), masks, counts


@lru_cache(maxsize=None)
def _total_order_table(tau: PlanarTree) -> tuple[tuple[int, ...], tuple, int, int]:
    """For each vertex in the total-order listing of tau: the position of
    its parent in that listing (-1 for the root, which comes first), and
    its key (label, number of strict descendants) into the label masks of
    a domain table; then the numbers of strict descendants, packed
    (:func:`_count_fields`), and the mask of the guard bits of their
    fields.  With tau = branch o-> trunk the trunk's listing comes before
    the branch's, so the listing is the root followed by the listings of
    its children, last child first."""
    parents, keys = [], []

    def walk(node, parent: int) -> None:
        k = len(parents)
        parents.append(parent)
        keys.append((node.label, node.degree - 1))
        for child in reversed(node.children):
            walk(child, k)

    walk(tau, -1)
    units, guards = _count_fields(len(keys))
    counts = sum([units[m] for _, m in keys])
    return tuple(parents), tuple(keys), counts, guards


def _count_bijections(domain, tau: PlanarTree, cap: int) -> int:
    """Count the bijections from the tree ``domain`` onto V(tau) that
    respect its domain table (:func:`_domain_table`), by an exhaustive
    depth-first enumeration of the linear extensions of the domain order.
    Both public counts enter here, which refuses trees of unequal degrees
    and a degree above ``cap``.

    Domain vertices are preorder indices, the root being 0.  The
    positions of tau's total-order listing are filled in turn, each with
    one domain vertex, so a filling is the inverse of a bijection.  A
    vertex i may fill a position only when

    * it is ready: its cover predecessor fills an earlier position, and it
      does not (the bijection is increasing into the total order; every
      predecessor lies below the cover predecessor, so it is placed too).
      The ready set of the next position is this one's, without the vertex
      placed and with the vertices it unlocks;
    * it is a strict descendant of the vertex filling the position's
      parent (the inverse is tree-order increasing; checking parent covers
      is enough, the order being their transitive closure);
    * it carries the position's label (the bijection preserves labels);
    * it has at least as many strict descendants as the position's vertex
      w.  This filter prunes without losing a bijection: the inverse maps
      each strict descendant of w to a strict descendant of its image, and
      is injective.

    The last two conditions are one lookup in the label masks.  The last
    one also gives a test before the search: the filling maps the vertices
    of tau with at least m strict descendants injectively to domain
    vertices with at least m, so when for some m the domain has fewer of
    them than tau, there is no bijection.  Both numbers sit in field m of
    the packed counts; with every field's guard bit set in the domain's,
    subtracting tau's clears the guard bit of exactly the fields where the
    domain has fewer, and borrows from no other field.  The root of tau
    comes first in its listing, and its mask holds the domain root alone
    (the one vertex with degree - 1 strict descendants), which no vertex
    has to precede.  The enumeration runs on an explicit stack of
    candidate bitmasks and ready sets, one per position.  At the last
    position a single domain vertex is left, and it is ready, so each
    candidate there counts as one bijection.
    """
    if domain.degree != tau.degree:
        raise DomainError("bijection count needs equal degrees")
    if domain.degree > cap:
        raise DegreeCapError(f"degree {domain.degree} exceeds brute-force cap {cap}")
    unlock, descendants, masks, counts = _domain_table(domain)
    parents, keys, tau_counts, guards = _total_order_table(tau)
    if (counts | guards) - tau_counts & guards != guards:
        return 0
    try:
        allowed = list(map(masks.__getitem__, keys))
    except KeyError:  # a position no domain vertex may fill
        return 0
    last = len(keys) - 1
    if not last:
        return 1
    image = [0] * len(keys)  # position in tau's listing -> domain vertex
    free = [0] * len(keys)  # per position: the candidates not yet tried
    ready = [0] * len(keys)  # per position: the vertices that may fill it
    ready[1] = unlock[0]
    free[1] = ready[1] & allowed[1]
    count = 0
    k = 1
    while k:
        f = free[k]
        if not f:
            k -= 1
            continue
        if k == last:
            count += 1
            free[k] = 0
            continue
        bit = f & -f
        free[k] = f ^ bit
        i = bit.bit_length() - 1
        image[k] = i
        r = ready[k] ^ bit | unlock[i]
        k += 1
        ready[k] = r
        free[k] = descendants[image[parents[k]]] & allowed[k] & r
    return count


def coeff_c_bijections(
    sigma: PlanarTree, tau: PlanarTree, cap: int = BRUTE_FORCE_CAP
) -> int:
    """Same coefficient, counted as label-preserving bijections increasing
    from the planar refinement order on sigma to the total order on tau,
    with tree-order increasing inverse."""
    return _count_bijections(sigma, tau, cap)


def psi_matrix(n: int, max_degree: int = ENUMERATION_CAP) -> CoeffMatrix:
    """Per-degree matrix of the isomorphism over the canonical planar basis,
    each column read from the text kernel."""
    _check_degree(n, max_degree)
    _check_dense(n, _planar_count(n), _planar_count(n))
    basis = tuple([tau._text for tau in enumerate_planar(n, max_degree)])
    return _from_images(n, basis, basis, (_psi(text).items() for text in basis))


_inverses: dict[str, tuple[tuple[str, int], ...]] = {}


def _psi_inv(text: str) -> tuple[tuple[str, int], ...]:
    """The preimage of a tree text, as (text, coefficient) pairs without
    zeros, by the left-Butcher recursion of the module docstring.  Every
    term has the labels of ``text``.  An unlabeled text's pairs are in
    :func:`_ranked` order, a plain text sort.  A labeled text's pairs are
    left unranked: the recursion only adds them up, and their keyed sort
    would cost more than it does, so :func:`psi_inverse` ranks only the sum
    it returns.  Memoized in a plain dict, at one interpreter level per
    recursive call."""
    out = _inverses.get(text)
    if out is not None:
        return out
    parts = _split(text)
    if parts is None:
        out = ((text, 1),)
    else:
        branch, trunk = parts
        acc = _left_butcher_texts({}, _psi_inv(branch), _psi_inv(trunk))
        get = acc.get
        known = _inverses.get  # most "b at v" are memoized: skip the call
        for head, tail in _cuts(trunk)[1:]:  # b at v, for each vertex v but the root
            s = f"{head}{branch}{tail}"
            for t, c in known(s) or _psi_inv(s):
                acc[t] = get(t, 0) - c
        if _has_label([text]):
            out = tuple([(t, c) for t, c in acc.items() if c])
        else:
            out = tuple(_ranked(acc, False))
    _inverses[text] = out
    return out


_psi_inv.cache_clear = _inverses.clear


def psi_inverse(sigma: PlanarTree) -> TreeSum:
    """Preimage of a planar tree: the sum holding its kernel preimage,
    ranked here when the tree has a label."""
    text = sigma.serialize()
    if len(text) == 2 * sigma.degree:  # no label: the kernel's pairs are ranked
        return TreeSum(PLANAR, _psi_inv(text))
    return _sum_of_texts(PLANAR, dict(_psi_inv(text)), True)


@lru_cache(maxsize=None)
def n_statistic(sigma: PlanarTree) -> int:
    """Number of trees, with multiplicity, in the image of sigma."""
    if not sigma.children:
        return 1
    branch, trunk = decompose(sigma)
    return n_statistic(branch) * n_statistic(trunk) * trunk.degree


def n_statistic_total(n: int) -> int:
    return sum(n_statistic(sigma) for sigma in enumerate_planar(n))
