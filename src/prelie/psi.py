"""The base change between the two free magmatic structures on planar trees.

The left Butcher product and the left grafting product each make the span
of planar rooted trees a free magmatic algebra; the unique isomorphism
fixing the single vertex and intertwining the two products is unipotent
upper triangular per degree in the canonical basis order.  Its
coefficients c(sigma, tau) are computed two independent ways: by the
decomposition recursion, and by brute-force counting of order-compatible
vertex bijections.  The count is shared with the projected coefficients
of :mod:`prelie.projection`: its domain order is fixed by the domain
tree's class, ``<<`` on a planar tree and ``<`` on a non-planar one,
where the bijections are counted one per orbit of the tree's
automorphisms.  Both methods keep their per-tree tables in plain dicts
keyed by the tree, read with one lookup and built on the tree's first
use in its role: a sigma's splits per branch degree (``_split_tables``)
and a tau's parts (``_parts``) for the recursion, a domain's masks
(``_planar_domains``, ``_tree_domains``) and a tau's total-order listing
(``_total_orders``) for the count.  The builders ``_splits``,
``_domain_table`` and ``_total_order_table`` memoize nothing themselves;
the dicts they fill are memos of the package, emptied by ``clear_caches``.

The isomorphism is computed on serializations: psi(b o-> t) is the left
graft of psi(b) onto psi(t), and a left graft inserts one text right
after a ``(`` of another, at a memoized cut point (see
:mod:`prelie.products`).  Images are memoized per text as read-only maps
from texts to coefficients, whose keys are the strings of the package's
text table: one string per distinct tree, however many images hold it.
The public sums hold those texts and build a tree only when their
``terms`` are read, and the matrices read the texts directly.

The inverse is its own text kernel, by the left-Butcher recursion: psi^-1
carries left grafting back to the left Butcher product, and b grafted
leftmost at the root of t is b o-> t, so

    psi^-1(b o-> t) = psi^-1(b) o-> psi^-1(t) - sum over v != root of psi^-1(b at v),

where "b at v" is b grafted leftmost at the vertex v of t.  On texts,
``x o-> y`` is the left-Butcher kernel of :mod:`prelie.products`, which
inserts x right after the root's ``(`` in y, and "b at v" puts b in at
the cut point of v in t, one string per vertex v.  Every "b at v" has
strictly higher potential energy than b o-> t, so the recursion ends.
The preimages' texts are the text table's strings too.
"""

from __future__ import annotations

from types import MappingProxyType

from .matrix import CoeffMatrix, _from_images
from .products import (
    PLANAR,
    TreeSum,
    _left_butcher_texts,
    _left_graft_texts,
    _cuts,
    _has_label,
    _labeled,
    _shared,
    _sum_of_texts,
)
from .trees import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    DegreeCapError,
    DomainError,
    PlanarTree,
    _cached,
    _counted,
    _memo,
    _subtree_end,
    enumerate_planar,
)


@_cached
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


_images: dict[str, MappingProxyType] = _memo()


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
        out = MappingProxyType({_shared(text): 1})
    else:
        branch, trunk = parts
        out = MappingProxyType(_left_graft_texts({}, _psi(branch).items(), _psi(trunk).items()))
    _images[text] = out
    return out


_image_calls = _counted(_psi, _images.__len__)  # hits, misses


def psi(tau: PlanarTree) -> TreeSum:
    """Image of a planar tree under the magmatic isomorphism: a sum holding
    the memoized kernel image itself, the one copy kept."""
    return _sum_of_texts(PLANAR, _psi(tau._text), _labeled(tau))


# psi memoizes through its kernel, so the kernel's counts are its counts.
psi.cache_info = _psi.cache_info


def _wrong_class(cls, *trees) -> DomainError:
    """The error for operands not all of class ``cls``, naming the class
    expected.  Callers test the class where a table is first built, so a
    memo hit pays nothing."""
    got = next(type(tree).__name__ for tree in trees if type(tree) is not cls)
    return DomainError(f"expected a {cls.__name__}, not a {got}")


# sigma -> branch degree d -> _splits(sigma, d), each built on its first read
_split_tables: dict[PlanarTree, dict[int, tuple]] = _memo()


def _splits(sigma: PlanarTree, d: int) -> tuple[tuple[PlanarTree, PlanarTree], ...]:
    """Every way to write sigma as a degree-d branch left-grafted onto a
    trunk: one (first child, rest) pair per vertex of sigma whose first
    child has degree d, the rest being sigma without that child.  Built
    from the children's own tables in ``_split_tables``, filled here."""
    kids, label = sigma.children, sigma.label
    out = []
    if kids and kids[0].degree == d:
        out.append((kids[0], PlanarTree(kids[1:], label)))
    for i, child in enumerate(kids):
        if child.degree > d:
            table = _split_tables.get(child)
            if table is None:
                table = _split_tables[child] = {}
            below = table.get(d)
            if below is None:
                below = table[d] = _splits(child, d)
            for branch, rest in below:
                out.append((branch, PlanarTree(kids[:i] + (rest,) + kids[i + 1 :], label)))
    return tuple(out)


# tau -> sigma -> c(sigma, tau); a tau's dict is added once tau is known to
# be a PlanarTree, so a refused call leaves none
_coeffs: dict[PlanarTree, dict[PlanarTree, int]] = _memo()
# tau -> (tau1, tau2, memo of tau1, memo of tau2), for tau = tau1 o-> tau2,
# built on the first miss of tau
_parts: dict[PlanarTree, tuple[PlanarTree, PlanarTree, dict, dict]] = _memo()


def coeff_c_recursive(sigma: PlanarTree, tau: PlanarTree) -> int:
    """Coefficient of sigma in the image of tau, by the branch/trunk recursion:
    with tau = tau1 o-> tau2, sum c(branch, tau1) c(trunk, tau2) over the
    splittings of sigma into a branch of tau1's degree grafted leftmost onto
    a trunk.  A single vertex maps to itself, label included.  Memoized in
    one plain dict per tau, keyed by sigma: trees hash by identity, so a
    cell costs one dict slot and a hit allocates nothing.

    A miss reads every table with one plain-dict lookup, each built on the
    tree's first miss in its role: tau's parts (tau1, tau2 and their
    memos) in ``_parts``, and sigma's splits per branch degree in
    ``_split_tables``.  The split loop reads the memos of tau1 and tau2
    itself and calls only on a miss; it counts its own hits, so
    ``cache_info`` counts every lookup as the calls would.  Both operands
    must be ``PlanarTree``s, checked where a table is built."""
    try:
        memo = _coeffs[tau]
    except KeyError:  # tau's first miss; its dict waits for the class test
        memo = None
    else:
        total = memo.get(sigma)
        if total is not None:
            _coeff_calls[0] += 1
            return total
    _coeff_calls[1] += 1
    if sigma.degree != tau.degree:
        raise DomainError("coefficient needs equal degrees")
    if not tau.children:
        if type(sigma) is not PlanarTree or type(tau) is not PlanarTree:
            raise _wrong_class(PlanarTree, sigma, tau)
        total = int(sigma.label == tau.label)
    else:
        table = _split_tables.get(sigma)
        if table is None:
            if type(sigma) is not PlanarTree:
                raise _wrong_class(PlanarTree, sigma)
            table = _split_tables[sigma] = {}
        parts = _parts.get(tau)
        if parts is None:
            if type(tau) is not PlanarTree:
                raise _wrong_class(PlanarTree, tau)
            tau1, tau2 = decompose(tau)
            memo1, memo2 = _coeffs.setdefault(tau1, {}), _coeffs.setdefault(tau2, {})
            parts = _parts[tau] = (tau1, tau2, memo1, memo2)
        tau1, tau2, memo1, memo2 = parts
        n1 = tau1.degree
        splits = table.get(n1)
        if splits is None:
            splits = table[n1] = _splits(sigma, n1)
        total = hits = 0
        for branch, trunk in splits:
            c = memo1.get(branch)
            if c is None:
                c = coeff_c_recursive(branch, tau1)
            else:
                hits += 1
            if c:
                d = memo2.get(trunk)
                if d is None:
                    d = coeff_c_recursive(trunk, tau2)
                else:
                    hits += 1
                total += c * d
        _coeff_calls[0] += hits
    if memo is None:  # tau has passed the class test
        memo = _coeffs.setdefault(tau, {})
    memo[sigma] = total
    return total


_coeff_calls = _counted(coeff_c_recursive, lambda: sum(map(len, _coeffs.values())))  # hits, misses


@_cached
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


# domain -> _domain_table(domain), one dict per domain class: the sigmas of
# coeff_c_bijections and the s of count_tilde_b; each entry is built the
# first time the tree is a domain of that count
_planar_domains: dict[PlanarTree, tuple] = _memo()
_tree_domains: dict = _memo()
# tau -> _total_order_table(tau), built the first time tau is counted onto
_total_orders: dict[PlanarTree, tuple] = _memo()


def _domain_table(tree) -> tuple:
    """The per-tree masks a bijection count reads, as int bitmasks over the
    preorder indices of ``tree``, the root being 0.  The domain order is
    fixed by the tree's class: the planar refinement ``<<`` on a
    ``PlanarTree`` (see :mod:`prelie.orders`), the tree order ``<`` on a
    ``Tree``.

    * per vertex, the vertices it unlocks: those whose cover predecessor it
      is.  Under ``<<`` the cover predecessor is the right-adjacent
      sibling, or the parent when there is none, so a vertex unlocks its
      rightmost child and its left-adjacent sibling.  Under the tree order
      every non-root vertex has its parent as its one cover predecessor;
      the count quotients by the automorphisms of a ``Tree``
      (:func:`_count_bijections`), so it refines that order by chaining
      twins, siblings that are the same tree: a child whose right-adjacent
      sibling is its twin is unlocked by that twin, any other by its
      parent.  Either way the cover diagram is a tree rooted at 0;
    * per vertex, its strict descendants, the indices right after it;
    * per (label, m), when not empty, the vertices carrying that label
      with at least m strict descendants;
    * the numbers of strict descendants, packed (:func:`_count_fields`);
    * the number of automorphisms: for a ``Tree``, the product over its
      runs of twins of the run length's factorial (the symmetry factor),
      and 1 for a ``PlanarTree``.
    """
    n = tree.degree
    refined = isinstance(tree, PlanarTree)
    units = _count_fields(n)[0]
    unlock = [0] * n
    descendants = [0] * n
    exact = {}  # label -> per number m of strict descendants, the vertices
    autos, counts = 1, 0
    # every write is at a preorder index, so the walk may go in any order:
    # a stack of (vertex, preorder index), with no call per vertex
    stack = [(tree, 0)]
    while stack:
        node, i = stack.pop()
        m = node.degree - 1
        descendants[i] = ((1 << m) - 1) << (i + 1)
        counts += units[m]
        row = exact.get(node.label)
        if row is None:
            row = exact[node.label] = [0] * n
        row[m] |= 1 << i
        cover = i  # the cover predecessor of the next child to the left
        right, run = None, 0  # a Tree's child to the right, and its run of twins
        j = i + node.degree
        for child in reversed(node.children):
            j -= child.degree
            stack.append((child, j))
            if child is right:
                run += 1
                autos *= run
            elif not refined:
                cover, run = i, 1
            unlock[cover] |= 1 << j
            cover = j
            if not refined:
                right = child
    masks = {}
    for label, row in exact.items():
        acc = 0
        for m in range(n - 1, -1, -1):
            acc |= row[m]
            if acc:
                masks[label, m] = acc
    return tuple(unlock), tuple(descendants), masks, counts, autos


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
    stack = [(tau, -1)]  # (vertex, position of its parent), last child on top
    while stack:
        node, parent = stack.pop()
        k = len(parents)
        parents.append(parent)
        keys.append((node.label, node.degree - 1))
        for child in node.children:
            stack.append((child, k))
    units, guards = _count_fields(len(keys))
    counts = sum([units[m] for _, m in keys])
    return tuple(parents), tuple(keys), counts, guards


def _count_bijections(domain, tau: PlanarTree, cap: int, tables: dict, cls: type) -> int:
    """Count the bijections from the tree ``domain`` onto V(tau) that
    respect its domain table (:func:`_domain_table`), by an exhaustive
    depth-first enumeration of the linear extensions of the domain order.
    Both public counts enter here, which refuses trees of unequal degrees
    and a degree above ``cap``.  Each reads its domains' tables from its
    own dict ``tables``, whose trees are of class ``cls``, and tau's from
    ``_total_orders``: one plain-dict lookup each, the table being built,
    and the tree's class checked, on its first read.

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
    candidate bitmasks and ready sets, one per position, beside the
    strict descendants of the vertex placed at each position, so the
    candidates of a position need one read at its parent's position.  At
    the last position a single domain vertex is left, and it is ready, so
    each candidate there counts as one bijection.

    On a ``Tree`` domain s the count is taken up to the automorphisms of
    s.  Aut(s) acts on the bijections by composition; it keeps the tree
    order and the labels, so it maps a counted bijection to a counted one,
    and acts freely.  Each orbit holds exactly one bijection under which
    every run of twin siblings (the same tree) fills its positions from
    right to left: permuting the twins at the topmost vertex where two
    bijections of an orbit differ would reorder those positions.  The
    domain table chains twins, each unlocked by its right twin, so the
    search counts exactly these, one per orbit, and the result is that
    count times |Aut(s)| = σ(s) (:func:`_domain_table`).  So a run of k
    identical leaves costs the search one filling order, not k!.
    """
    if domain.degree != tau.degree:
        raise DomainError("bijection count needs equal degrees")
    if domain.degree > cap:
        raise DegreeCapError(f"degree {domain.degree} exceeds brute-force cap {cap}")
    table = tables.get(domain)
    if table is None:
        if type(domain) is not cls:
            raise _wrong_class(cls, domain)
        table = tables[domain] = _domain_table(domain)
    unlock, descendants, masks, counts, autos = table
    order = _total_orders.get(tau)
    if order is None:
        if type(tau) is not PlanarTree:
            raise _wrong_class(PlanarTree, tau)
        order = _total_orders[tau] = _total_order_table(tau)
    parents, keys, tau_counts, guards = order
    if (counts | guards) - tau_counts & guards != guards:
        return 0
    try:
        allowed = list(map(masks.__getitem__, keys))
    except KeyError:  # a position no domain vertex may fill
        return 0
    last = len(keys) - 1
    if not last:
        return 1
    below = [0] * len(keys)  # per position: the strict descendants of its vertex
    below[0] = descendants[0]
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
        below[k] = descendants[i]
        r = ready[k] ^ bit | unlock[i]
        k += 1
        ready[k] = r
        free[k] = below[parents[k]] & allowed[k] & r
    return count * autos


def coeff_c_bijections(
    sigma: PlanarTree, tau: PlanarTree, cap: int = BRUTE_FORCE_CAP
) -> int:
    """Same coefficient, counted as label-preserving bijections increasing
    from the planar refinement order on sigma to the total order on tau,
    with tree-order increasing inverse."""
    return _count_bijections(sigma, tau, cap, _planar_domains, PlanarTree)


def psi_matrix(n: int, max_degree: int = ENUMERATION_CAP) -> CoeffMatrix:
    """Per-degree matrix of the isomorphism over the canonical planar basis,
    each column read from the text kernel."""
    basis = tuple([tau._text for tau in enumerate_planar(n, max_degree)])
    return _from_images(n, basis, basis, (_psi(text).items() for text in basis))


_inverses: dict[str, tuple[tuple[str, int], ...]] = _memo()


def _psi_inv(text: str, end: int = 0) -> tuple[tuple[str, int], ...]:
    """The preimage of a tree text, as (text, coefficient) pairs without
    zeros, by the left-Butcher recursion of the module docstring.  ``end``
    is the index just past the root's first child, when the caller knows
    it (0 when it does not).  Every term has the labels of ``text``.  An
    unlabeled text's pairs are in :func:`_ranked` order, a plain text sort.
    A labeled text's pairs are left unranked: the recursion only adds them
    up, and their keyed sort would cost more than it does, so only the sum
    :func:`psi_inverse` returns is ranked, when it is read in order.
    Memoized in a plain dict, at one interpreter level per recursive call.

    The branch end of each "b at v" is known here: it is the end of the
    trunk's first child, ``first``, plus the length of b when v lies
    inside that child.  So a "b at v" is not scanned for its split, and
    the trunk is scanned once, at the first "b at v" not memoized."""
    out = _inverses.get(text)
    if out is not None:
        return out
    p = text.index("(") + 1
    if text[p] == ")":
        out = ((_shared(text), 1),)
    else:
        end = end or _subtree_end(text, p)
        branch, trunk = text[p:end], text[:p] + text[end:]
        acc = _left_butcher_texts({}, _psi_inv(branch), _psi_inv(trunk))
        get = acc.get
        known = _inverses.get  # most "b at v" are memoized: skip the call
        n, first = end - p, 0  # first: the end of the trunk's first child
        for head, tail in _cuts(trunk)[1:]:  # b at v, for each vertex v but the root
            s = f"{head}{branch}{tail}"
            pairs = known(s)
            if pairs is None:
                first = first or _subtree_end(trunk, p)
                pairs = _psi_inv(s, first + n if len(head) <= first else first)
            for t, c in pairs:
                acc[t] = get(t, 0) - c
        if _has_label([text]):
            out = tuple([(t, c) for t, c in acc.items() if c])
        else:  # _ranked's order, zeros dropped before the sort, not after
            out = tuple([(t, acc[t]) for t in sorted([t for t, c in acc.items() if c])])
    _inverses[text] = out
    return out


def psi_inverse(sigma: PlanarTree) -> TreeSum:
    """Preimage of a planar tree: the sum holding its kernel preimage, the
    memoized pairs themselves when the tree has no label (they are
    ranked), else a map of them, ranked when read in order."""
    text = sigma._text
    pairs = _inverses.get(text) or _psi_inv(text)
    if len(text) == 2 * sigma.degree:
        return _sum_of_texts(PLANAR, pairs, False)
    return _sum_of_texts(PLANAR, dict(pairs), True)


@_cached
def n_statistic(sigma: PlanarTree) -> int:
    """Number of trees, with multiplicity, in the image of sigma."""
    if not sigma.children:
        return 1
    branch, trunk = decompose(sigma)
    return n_statistic(branch) * n_statistic(trunk) * trunk.degree


def n_statistic_total(n: int) -> int:
    return sum(n_statistic(sigma) for sigma in enumerate_planar(n))
