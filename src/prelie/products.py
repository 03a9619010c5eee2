"""Tree sums and the five bilinear products.

``TreeSum`` is a finite integer linear combination of trees, all planar or
all non-planar.  Like terms are collected eagerly, so equality of sums is
plain equality of term maps.  Coefficients are Python ints (arbitrary
precision, so "overflow" cannot occur silently).

A sum is held as text: its (serialization, coefficient) pairs, zeros
dropped, in descending ``serial_key`` order.  There is one tree per text,
so the pairs are the sum; its trees are read from the text-to-tree map
only when its ``terms`` are read, and never stored in the sum.  Every sum
is collected one way: its terms go into one dict keyed by tree text,
which is sorted once.  A product of two sums is built in one pass: every
term of every pair of operand texts goes into that dict, and ``+``,
``-``, ``scale`` and ``to_text`` read and write texts alone.

Plain text order.  ``serial_key`` maps ``(`` above ``)``, so a sum whose
texts carry no label is ranked by plain ``str`` order, ascending, with no
key built: two distinct complete unlabeled tree texts first differ where
one has ``(`` and the other ``)`` (neither is a prefix of the other, as
each ends where its root closes), and ``(`` < ``)`` as characters while
its key is the greater.  A labeled sum keeps the key sort.  So ``+`` and
``-`` of two unlabeled sums merge their two ranked runs in one pass.  The
same holds for sorted insertion: an unlabeled canonical text's children
are in ascending ``str`` order, so an unlabeled text joins them at its
``bisect`` place among the texts themselves, and only a labeled one needs
keys (``(a())`` is above ``()`` in key order and below it in ``str``
order).  A result has a label only where an operand has one, so whether
a sum is ranked by keys is read from the operands, never from the
result: a tree is unlabeled exactly when its text is twice its degree
long, and a product of sums scans its operands' texts.  Only
``TreeSum.make``, whose terms come from anywhere, scans its own.
``to_text`` is one join: every term printed as ``"{c} {t}"``, joined by
``" + "``, then each ``" + -"`` turned into ``" - "``; a tree text holds
no space, so that pattern only ever joins a negative term.

One table maps each product's name to its flavor and its text kernel,
which ``bilinear_extend`` applies.  The kernels work on serializations.
The Butcher products insert one text after the root's ``(`` of another
(in sorted place among the root's children for the non-planar one, whose
single-tree form reads a tree already built from the text-to-tree map).  In
the grammar ``label? "(" tree* ")"`` grafting sigma leftmost at a vertex
of tau means inserting sigma's text right after that vertex's ``(``: at
the vertex's cut point.  The cut points of a text, each the (head, tail)
pair it splits into there, are memoized per text, so each graft is built
as one string, ``f"{head}{sigma}{tail}"``.  Pre-Lie
grafting keeps texts canonical (children in descending serialization
order): s's text is inserted in sorted place among the children of the
grafting vertex, and each vertex on the path up to the root takes its new
text in sorted place among its siblings.  The grafts of s at every vertex
of t are memoized per pair of operand texts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Callable, Iterable

from .trees import (
    _KEY_TABLE,
    _child_texts,
    DomainError,
    PlanarTree,
    Tree,
    _planar_of_text,
    _tree_of_text,
    _Value,
    serial_key,
)

PLANAR = "planar"
NONPLANAR = "nonplanar"


class TreeSum(_Value):
    """A sum held as its (text, coefficient) pairs, zeros dropped, in
    :func:`_ranked` order.  There is one tree per text, so these pairs
    determine the sum; its (tree, coefficient) pairs ``terms`` are read
    from the text-to-tree map on each read, and never stored."""

    __slots__ = _fields = ("flavor", "texts")

    def __init__(self, flavor: str, texts: tuple[tuple[str, int], ...]):
        _set_flavor(self, flavor)
        _set_texts(self, texts)

    @property
    def terms(self) -> tuple[tuple[PlanarTree | Tree, int], ...]:
        of_text = _planar_of_text if self.flavor == PLANAR else _tree_of_text
        return tuple([(of_text(t), c) for t, c in self.texts])

    @classmethod
    def make(cls, flavor: str, terms: Iterable[tuple[PlanarTree | Tree, int]]) -> "TreeSum":
        want = _tree_class(flavor)
        acc: dict[str, int] = {}
        for tree, coeff in terms:
            if not isinstance(tree, want):
                raise DomainError(f"{flavor} sum cannot hold {type(tree).__name__}")
            acc[tree._text] = acc.get(tree._text, 0) + coeff
        return _sum_of_texts(flavor, acc, _has_label(acc))

    @classmethod
    def single(cls, tree: PlanarTree | Tree, coeff: int = 1) -> "TreeSum":
        flavor = PLANAR if isinstance(tree, PlanarTree) else NONPLANAR
        if type(tree) is _tree_class(flavor):  # one term is ranked as it is
            coeff += 0  # as ``make`` adds it to 0: ``True`` becomes 1
            return cls(flavor, ((tree._text, coeff),) if coeff else ())
        return cls.make(flavor, [(tree, coeff)])

    @classmethod
    def zero(cls, flavor: str) -> "TreeSum":
        return cls.make(flavor, [])

    def coefficient(self, tree: PlanarTree | Tree) -> int:
        if type(tree) is _tree_class(self.flavor):
            for t, c in self.texts:
                if t == tree._text:
                    return c
        return 0

    def coefficient_sum(self) -> int:
        return sum([c for _, c in self.texts])

    def _merged(self, other: "TreeSum", sign: int) -> "TreeSum":
        """This sum plus ``sign`` times ``other``.  When neither has a
        label, both hold their pairs in ascending text order, which one
        pass merges; otherwise the terms are collected on texts."""
        if self.flavor != other.flavor:
            raise DomainError("cannot add sums of different flavors")
        a, b = self.texts, other.texts
        if _has_label([t for t, _ in a + b]):
            acc = dict(a)
            get = acc.get
            for t, c in b:
                acc[t] = get(t, 0) + sign * c
            return _sum_of_texts(self.flavor, acc, True)
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (s, c), (t, d) = a[i], b[j]
            if s < t:
                out.append(a[i])
                i += 1
            elif t < s:
                out.append((t, sign * d))
                j += 1
            else:
                c += sign * d
                if c:
                    out.append((s, c))
                i += 1
                j += 1
        out += a[i:]
        out += [(t, sign * d) for t, d in b[j:]]
        return TreeSum(self.flavor, tuple(out))

    def __add__(self, other: "TreeSum") -> "TreeSum":
        return self._merged(other, 1)

    def __sub__(self, other: "TreeSum") -> "TreeSum":
        return self._merged(other, -1)

    def scale(self, k: int) -> "TreeSum":
        if not k:
            return TreeSum(self.flavor, ())
        return TreeSum(self.flavor, tuple([(t, k * c) for t, c in self.texts]))

    def map_trees(self, f: Callable, flavor: str) -> "TreeSum":
        return TreeSum.make(flavor, [(f(t), c) for t, c in self.terms])

    def to_text(self) -> str:
        if not self.texts:
            return "0"
        # No text holds a space, so " + -" only ever joins a negative term.
        return " + ".join([f"{c} {t}" for t, c in self.texts]).replace(" + -", " - ")

    def to_json(self) -> list[dict]:
        return [{"coeff": str(c), "tree": t.to_json()} for t, c in self.terms]

    def to_json_str(self) -> str:
        import json

        return json.dumps(self.to_json())


# The class is frozen, so construction writes the slots through their
# descriptors.
_set_flavor = TreeSum.flavor.__set__
_set_texts = TreeSum.texts.__set__


def _tree_class(flavor: str) -> type:
    """The tree class of a sum flavor."""
    if flavor == PLANAR:
        return PlanarTree
    if flavor == NONPLANAR:
        return Tree
    raise DomainError(f"unknown flavor {flavor!r}")


def _has_label(texts: Iterable[str]) -> bool:
    """Whether any of the tree texts ``texts`` has a label character."""
    return bool("".join(texts).encode().translate(None, b"()"))


def _labeled(tree: PlanarTree | Tree) -> bool:
    """Whether a tree has a label: each vertex adds one ``(`` and one ``)``
    to its text, and only labels add more."""
    return len(tree._text) != 2 * tree.degree


def _ranked(acc: dict[str, int], labeled: bool) -> list[tuple[str, int]]:
    """The (text, coefficient) pairs of a dict from serializations to
    coefficients, zeros dropped, sorted once in descending ``serial_key``
    order: the order of every sum's terms.  When no text has a label, that
    is ascending ``str`` order (see the module docstring), so only a sum
    the caller says may be ``labeled`` computes keys; the caller knows it
    from the operands, which carry every label of the result."""
    if labeled:
        keyed = [(t.encode().translate(_KEY_TABLE), t, c) for t, c in acc.items() if c]
        return [(t, c) for _, t, c in sorted(keyed, reverse=True)]
    return [(t, c) for t in sorted(acc) if (c := acc[t])]


def _sum_of_texts(flavor: str, acc: dict[str, int], labeled: bool) -> TreeSum:
    """The sum of a dict from serializations to coefficients, its texts in
    :func:`_ranked` order (``labeled`` as there).  No tree is built."""
    return TreeSum(flavor, tuple(_ranked(acc, labeled)))


# ---------------------------------------------------------------------------
# magmatic products (single-tree results)


def binary_join(t1, t2):
    """The v-product on planar binary trees: new root with t1 left, t2 right."""
    from .trees import BinaryTree

    return BinaryTree(t1, t2)


def rotation(t) -> PlanarTree:
    """Knuth's rotation correspondence onto planar rooted trees."""
    if t.is_leaf:
        return PlanarTree()
    return left_butcher(rotation(t.left), rotation(t.right))


def left_butcher(sigma: PlanarTree, tau: PlanarTree) -> PlanarTree:
    """sigma becomes the leftmost branch at the root of tau."""
    if not isinstance(sigma, PlanarTree) or not isinstance(tau, PlanarTree):
        raise DomainError("the left Butcher product needs two planar trees")
    return PlanarTree((sigma,) + tau.children, tau.label)


def butcher(s: Tree, t: Tree) -> Tree:
    """Butcher product: graft the root of s onto the root of t (non-planar).
    The product's canonical text is s's text joined to t's children, so a
    tree already built is read from the text-to-tree map."""
    if not isinstance(s, Tree) or not isinstance(t, Tree):
        raise DomainError("the Butcher product needs two non-planar trees")
    tree = Tree._by_text.get(_joined(*_children(t._text), s._text))
    if tree is None:
        tree = Tree((s,) + t.children, t.label)
    return tree


# ---------------------------------------------------------------------------
# grafting products (sums over vertices)


@lru_cache(maxsize=None)
def _cuts(text: str) -> tuple[tuple[str, str], ...]:
    """The cut point of each vertex of a tree text, in preorder: the text
    split just after the vertex's ``(``, as its (head, tail) pair."""
    return tuple([(text[: i + 1], text[i + 1 :]) for i, ch in enumerate(text) if ch == "("])


def _left_graft_texts(acc: dict, a, b) -> dict:
    """Add to ``acc`` every left graft of a term of ``a`` onto a term of
    ``b``, both iterables of (text, coefficient) pairs (``a`` read once
    per term of ``b``): the text of the ``a`` term put in at each cut
    point of the ``b`` term, weighted by the product of the coefficients."""
    get = acc.get
    for sb, cb in b:
        cuts = _cuts(sb)
        for sa, ca in a:
            c = ca * cb
            for head, tail in cuts:
                t = f"{head}{sa}{tail}"
                acc[t] = get(t, 0) + c
    return acc


@lru_cache(maxsize=None)
def _children(text: str) -> tuple[str, tuple[str, ...], tuple[bytes, ...]]:
    """The label of a canonical tree text, its children's texts left to
    right (descending serialization order) and their keys in ascending
    order; no keys when the text has no label, as its children are then
    in ascending ``str`` order."""
    kids = tuple(_child_texts(text))
    keys = () if len(text) == 2 * text.count("(") else tuple(map(serial_key, reversed(kids)))
    return text[: text.index("(")], kids, keys


def _joined(label: str, kids: tuple[str, ...], keys: tuple[bytes, ...], x: str) -> str:
    """The canonical text of a vertex labeled ``label`` whose children are
    the canonical texts ``kids`` (their keys ``keys`` ascending, or none
    when no child has a label) and ``x``: ``x`` goes right after the
    children of higher key, where ``Tree._arrange`` would sort it.  With no
    label on either side, those are the children before ``x`` in ``str``
    order; a labeled ``x`` is placed by the keys."""
    if not keys and len(x) == 2 * x.count("("):
        i = bisect_left(kids, x)
    else:
        keys = keys or tuple(map(serial_key, reversed(kids)))
        i = len(keys) - bisect_right(keys, serial_key(x))
    return f"{label}({''.join(kids[:i])}{x}{''.join(kids[i:])})"


_grafts: dict[str, dict[str, tuple[str, ...]]] = {}


def _graft_texts(memo: dict, s: str, t: str) -> tuple[str, ...]:
    """The canonical texts of the tree ``s`` grafted at each vertex of the
    tree ``t`` in preorder, both given by their canonical texts.  At the
    root, ``s`` joins the root's children in sorted place; at a child
    ``c``, each graft onto ``c`` takes the place of ``c``.  So only the
    path to the grafting vertex is re-sorted.  Memoized in ``memo``, the
    plain dict ``_grafts[s]`` keyed by ``t``, which every caller reads
    first, at one recursive call per tree level."""
    label, kids, keys = _children(t)
    if not keys and len(s) != 2 * s.count("("):
        # every graft of a labeled s is placed by keys: build them once here
        keys = tuple(map(serial_key, reversed(kids)))
    out = [_joined(label, kids, keys, s)]
    n = len(kids)
    for i, c in enumerate(kids):
        rest, rest_keys = kids[:i] + kids[i + 1 :], keys[: n - 1 - i] + keys[n - i :]
        grafts = memo.get(c) or _graft_texts(memo, s, c)
        out.extend([_joined(label, rest, rest_keys, g) for g in grafts])
    out = memo[t] = tuple(out)
    return out


_graft_texts.cache_clear = _grafts.clear


def _graft_sum_texts(acc: dict, a, b) -> dict:
    """Add to ``acc`` every pre-Lie graft of a term of ``a`` onto a term of
    ``b``, both iterables of (canonical text, coefficient) pairs, weighted
    by the product of the coefficients."""
    get = acc.get
    for sa, ca in a:
        memo = _grafts.get(sa)
        if memo is None:
            memo = _grafts[sa] = {}
        for sb, cb in b:
            c = ca * cb
            for t in memo.get(sb) or _graft_texts(memo, sa, sb):
                acc[t] = get(t, 0) + c
    return acc


def _left_butcher_texts(acc: dict, a, b) -> dict:
    """Add to ``acc`` the left Butcher product of every term of ``a`` with
    every term of ``b``, both iterables of (text, coefficient) pairs: the
    ``a`` text inserted right after the root's ``(`` of the ``b`` text."""
    get = acc.get
    for sb, cb in b:
        p = sb.index("(") + 1
        head, tail = sb[:p], sb[p:]
        for sa, ca in a:
            t = head + sa + tail
            acc[t] = get(t, 0) + ca * cb
    return acc


def _butcher_texts(acc: dict, a, b) -> dict:
    """Add to ``acc`` the Butcher product of every term of ``a`` with every
    term of ``b``, both iterables of (canonical text, coefficient) pairs:
    the ``a`` text joins the root's children of the ``b`` text in sorted
    place."""
    get = acc.get
    for sb, cb in b:
        label, kids, keys = _children(sb)
        for sa, ca in a:
            t = _joined(label, kids, keys, sa)
            acc[t] = get(t, 0) + ca * cb
    return acc


def left_graft(sigma: PlanarTree, tau: PlanarTree) -> TreeSum:
    """Sum over the vertices v of tau of grafting sigma leftmost at v."""
    if not isinstance(sigma, PlanarTree) or not isinstance(tau, PlanarTree):
        raise DomainError("left grafting needs two planar trees")
    acc = _left_graft_texts({}, ((sigma.serialize(), 1),), ((tau.serialize(), 1),))
    return _sum_of_texts(PLANAR, acc, _labeled(sigma) or _labeled(tau))


def graft(s: Tree, t: Tree) -> TreeSum:
    """Pre-Lie grafting: the sum over the vertices v of t of s grafted at v,
    like terms collected.  Computed on canonical texts by sorted insertion
    along the path to v, memoized per pair of operand texts."""
    if not isinstance(s, Tree) or not isinstance(t, Tree):
        raise DomainError("pre-Lie grafting needs two non-planar trees")
    acc = _graft_sum_texts({}, ((s._text, 1),), ((t._text, 1),))
    return _sum_of_texts(NONPLANAR, acc, _labeled(s) or _labeled(t))


PRODUCTS: dict[str, Callable] = {
    "left-butcher": left_butcher,
    "butcher": butcher,
    "left-graft": left_graft,
    "graft": graft,
}

# Each product's flavor and the text kernel that distributes it over sums.
_KERNELS: dict[str, tuple[str, Callable]] = {
    "left-butcher": (PLANAR, _left_butcher_texts),
    "butcher": (NONPLANAR, _butcher_texts),
    "left-graft": (PLANAR, _left_graft_texts),
    "graft": (NONPLANAR, _graft_sum_texts),
}


def product_flavor(name: str) -> str:
    if name not in _KERNELS:
        raise DomainError(f"unknown product {name!r}")
    return _KERNELS[name][0]


def apply_product(name: str, a, b) -> TreeSum:
    """Apply a named product to two trees, always returning a TreeSum."""
    result = PRODUCTS[name](a, b)
    if isinstance(result, TreeSum):
        return result
    return TreeSum.single(result)


def bilinear_extend(name: str, a: TreeSum, b: TreeSum) -> TreeSum:
    """Distribute a named product over two sums with coefficient products.

    Every product term of every pair of texts goes into one dict, sorted
    once; no tree is built.  The product has a label only when an operand
    has one, so the operands' texts are scanned for labels, not the
    product's."""
    flavor = product_flavor(name)
    if a.flavor != flavor or b.flavor != flavor:
        raise DomainError(f"product {name!r} needs two {flavor} sums")
    labeled = _has_label([t for t, _ in a.texts + b.texts])
    return _sum_of_texts(flavor, _KERNELS[name][1]({}, a.texts, b.texts), labeled)
