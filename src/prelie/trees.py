"""Rooted trees: planar, non-planar (canonical) and planar binary.

All tree values are immutable and hashable.  There is one rooted tree
per (class, text), compared and hashed by identity; its serialization,
degree and potential energy are computed once, when its text is first
built, from its children's stored values.  The text grammar is

    tree  := label? "(" tree* ")"
    label := [a-z0-9_]+

so the single unlabeled vertex is ``()``.  Non-planar trees are kept in a
canonical form: children sorted in descending serialization order, where
serializations are compared with ``(`` ranking above every other character
(see :func:`serial_key`).  With that convention the canonical planar
embedding of a tree is also its "branches first" drawing, e.g. the
canonical form of the 4-vertex tree with a 2-ladder branch and a leaf
branch is ``((())())``.

One builder makes the per-degree bases of both classes as products of
lower-degree trees: the free magma under b o-> t for planar trees, the
Butcher products for non-planar ones.
"""

from __future__ import annotations

import math
import re
import sys
from functools import _CacheInfo, lru_cache
from operator import attrgetter

ENUMERATION_CAP = 12  # Catalan(11) = 58786 planar trees at degree 12
BRUTE_FORCE_CAP = 8


class DomainError(ValueError):
    """Invalid argument for a tree operation (bad degree, bad flavor...)."""


class DegreeCapError(DomainError):
    """Requested degree exceeds the configured cap."""


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete a field of an immutable value."""


# ---------------------------------------------------------------------------
# memos: every one is made by one of these three helpers, which registers
# how clear_caches() empties it in place, so a memo imported by name stays
# the one in use

_clears: list = []  # per memo, the call that empties it


def _memo() -> dict:
    """A new plain-dict memo, emptied by :func:`clear_caches`."""
    memo = {}
    _clears.append(memo.clear)
    return memo


def _cached(fn):
    """Decorator: ``fn`` memoized by an unbounded ``lru_cache``, emptied by
    :func:`clear_caches`."""
    fn = lru_cache(maxsize=None)(fn)
    _clears.append(fn.cache_clear)
    return fn


def _counted(fn, size) -> list[int]:
    """The [hits, misses] counts of ``fn``, a function memoized in plain
    dicts that adds to them itself, holding ``size()`` entries.  Gives
    ``fn`` the ``cache_info`` of an ``lru_cache``, in its type (the
    perfbench tracer reads it); :func:`clear_caches` zeroes the counts in
    place."""
    calls = [0, 0]
    fn.cache_info = lambda: _CacheInfo(calls[0], calls[1], None, size())
    _clears.append(lambda: calls.__setitem__(slice(None), (0, 0)))
    return calls


def clear_caches() -> None:
    """Empty every memo of the package and zero the counts that
    ``cache_info`` reports.  The text tables of the tree classes stay:
    trees compare by identity, so a text must keep its one tree."""
    for clear in _clears:
        clear()


class _Frozen:
    """Immutable slotted object whose constructor takes its fields, named
    in ``_fields``, in that order.  Assigning or deleting any attribute
    raises :class:`FrozenInstanceError`; constructors write their slots
    with :func:`_fill` or through the slot descriptors.  ``repr`` shows the
    fields as a dataclass does, and ``pickle`` and ``copy`` rebuild the
    value by calling its class on them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"


class _Value(_Frozen):
    """Immutable value: equal to an instance of the same class with equal
    fields, never to an instance of another class, and hashed by its
    fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads every field in one call: the field itself when there is one,
        # else their tuple
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))


def _fill(value: _Frozen, *fields) -> None:
    """Write the fields of a new value, in ``_fields`` order."""
    for name, field in zip(value._fields, fields):
        object.__setattr__(value, name, field)


# '(' must sort above ')' and above label characters so that deeper branches
# come first in "descending serialization" order.  Texts are ASCII, and a
# byte table translates faster than a str one, about 4x on 50 characters.
_KEY_TABLE = bytes.maketrans(b"()", b"\x7e\x20")


def serial_key(serialization: str) -> bytes:
    """Sort key under which tree serializations are compared."""
    return serialization.encode().translate(_KEY_TABLE)


_TOKEN_RE = re.compile(r"[a-z0-9_]+|[()]")


_LABEL_RE = re.compile(r"[a-z0-9_]+")


class _RootedTree(_Frozen):
    """Body shared by planar and non-planar trees.  The two stay distinct
    classes: trees of different classes never compare equal.

    There is one tree per (class, text), compared by identity: the
    constructor returns the tree of its text from its class's table, and
    only a new text builds one, storing its serialization (interned),
    degree and potential energy.  Children of another class are refused,
    so no table holds a tree mixing the two."""

    __slots__ = ("children", "label", "degree", "energy", "_text")
    _fields = ("children", "label")

    def __new__(cls, children: tuple[_RootedTree, ...] = (), label: str | None = None):
        if label is not None and not _LABEL_RE.fullmatch(label):
            raise DomainError(f"bad label {label!r}")
        children = cls._arrange(tuple(children))
        texts = [c._text for c in children if type(c) is cls]
        if len(texts) != len(children):
            raise DomainError(f"children of a {cls.__name__} must be {cls.__name__}s")
        text = f"{label or ''}({''.join(texts)})"
        tree = cls._by_text.get(text)
        if tree is None:
            tree = object.__new__(cls)
            _set_children(tree, children)
            _set_label(tree, label)
            degree = sum([c.degree for c in children], 1)
            _set_degree(tree, degree)
            # each vertex below the root is one deeper than in its branch
            _set_energy(tree, sum([c.energy for c in children], degree - 1))
            _set_text(tree, sys.intern(text))
            cls._by_text[tree._text] = tree
        return tree

    @staticmethod
    def _arrange(children: tuple) -> tuple:
        return children

    def serialize(self) -> str:
        return self._text

    def __str__(self):
        return self._text

    def vertices(self, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
        """All vertex ids (root paths) in preorder."""
        out = [prefix]
        for i, c in enumerate(self.children):
            out.extend(c.vertices(prefix + (i,)))
        return out

    def subtree(self, path: tuple[int, ...]):
        node = self
        for i in path:
            node = node.children[i]
        return node

    def to_json(self) -> dict:
        return {"label": self.label, "children": [c.to_json() for c in self.children]}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(tuple(cls.from_json(c) for c in obj["children"]), obj.get("label"))


# The frozen class refuses attribute assignment, so construction writes the
# slots through their descriptors.
_set_children = _RootedTree.children.__set__
_set_label = _RootedTree.label.__set__
_set_degree = _RootedTree.degree.__set__
_set_energy = _RootedTree.energy.__set__
_set_text = _RootedTree._text.__set__


class PlanarTree(_RootedTree):
    """Ordered rooted tree; the free-magma element on one or more generators."""

    __slots__ = ()
    _by_text: dict[str, PlanarTree] = {}


def _descending_key(child: _RootedTree) -> bytes:
    return serial_key(child._text)


class Tree(_RootedTree):
    """Non-planar rooted tree; children are a multiset stored in canonical order."""

    __slots__ = ()
    _by_text: dict[str, Tree] = {}  # non-canonical texts read are keys too

    @staticmethod
    def _arrange(children: tuple) -> tuple:
        if len(children) < 2:
            return children
        return tuple(sorted(children, key=_descending_key, reverse=True))


def _subtree_end(text: str, start: int) -> int:
    """Index just past the subtree whose text begins at ``start``.  A
    character closes at most one open vertex, so the scan jumps ahead by the
    number still open: a few steps per doubling of a deep subtree's length."""
    i = text.index("(", start) + 1
    depth = 1
    while depth:
        j = i + depth
        if j > len(text):
            raise DomainError(f"unbalanced parentheses in {text!r}")
        depth += text.count("(", i, j) - text.count(")", i, j)
        i = j
    return i


def _child_texts(text: str) -> list[str]:
    """The texts of the root's children, left to right."""
    out = []
    i = text.index("(") + 1
    while text[i] != ")":
        j = _subtree_end(text, i)
        out.append(text[i:j])
        i = j
    return out


def _text_builder(cls):
    """The map from serializations to trees of class ``cls``, by which all
    text becomes trees.  It reads and writes the class's table, so each
    distinct text is built once, sharing its subtrees, at one recursive
    call per tree level.  A text for ``Tree`` need not be canonical: the
    constructor sorts the children, and the text becomes a second key of
    the tree."""
    table = cls._by_text
    get = table.get

    def of_text(text: str):
        tree = get(text)
        if tree is None:
            text = sys.intern(text)  # so a planar tree stores this very string
            children = []
            for child in _child_texts(text):
                children.append(of_text(child))
            tree = table[text] = cls(tuple(children), text[: text.index("(")] or None)
        return tree

    return of_text


_planar_of_text = _text_builder(PlanarTree)
_tree_of_text = _text_builder(Tree)


class BinaryTree(_Value):
    """Planar binary tree: a leaf, or a node with exactly two subtrees."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: BinaryTree | None = None, right: BinaryTree | None = None):
        if (left is None) != (right is None):
            raise DomainError("internal node needs both subtrees")
        _fill(self, left, right)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def degree(self) -> int:
        """Number of leaves."""
        if self.is_leaf:
            return 1
        return self.left.degree + self.right.degree

    def serialize(self) -> str:
        if self.is_leaf:
            return "*"
        return "(" + self.left.serialize() + self.right.serialize() + ")"

    def __str__(self):
        return self.serialize()


LEAF = BinaryTree()


def _checked(text: str) -> str:
    """The text of one tree of the grammar, spaces removed; ``DomainError``
    if it is not one.  The tokens are read left to right with the depth of
    the open vertices, so nesting costs no recursion."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise DomainError(f"cannot tokenize {text!r}")
    n, pos, depth = len(tokens), 0, 0
    while True:  # a tree starts at pos: an optional label, then "("
        if pos < n and tokens[pos] not in "()":
            pos += 1
        if pos >= n or tokens[pos] != "(":
            raise DomainError(f"expected '(' at token {pos}")
        pos, depth = pos + 1, depth + 1
        while pos < n and tokens[pos] == ")":
            pos, depth = pos + 1, depth - 1
            if depth == 0:
                if pos != n:
                    raise DomainError(f"trailing input in {text!r}")
                return "".join(tokens)
        if pos >= n:
            raise DomainError("unbalanced parentheses")


def parse_planar(text: str) -> PlanarTree:
    """Parse a planar tree.  Every key of the class's table is a valid text,
    so a text already there is its tree, read without tokenizing."""
    tree = PlanarTree._by_text.get(text)
    return _planar_of_text(_checked(text)) if tree is None else tree


def parse_tree(text: str) -> Tree:
    """Parse and canonicalize a non-planar tree, a known text (canonical or
    not) read from the class's table as in :func:`parse_planar`."""
    tree = Tree._by_text.get(text)
    return _tree_of_text(_checked(text)) if tree is None else tree


# ---------------------------------------------------------------------------
# intrinsic statistics


def potential_energy(t: PlanarTree | Tree) -> int:
    """Sum of the depths of all vertices, the root having depth 0.

    Independent of the planar embedding, so projecting to the non-planar
    tree preserves it.  Stored on the tree when it is built.
    """
    return t.energy


def canonical_key(t: PlanarTree | Tree) -> tuple[int, bytes]:
    """Basis sort key: descending potential energy, ties by descending
    serialization.  Sort with ``reverse=True``."""
    return (t.energy, serial_key(t._text))


def symmetry_factor(s: Tree) -> int:
    """Number of automorphisms of ``s`` respecting the root order."""
    if not isinstance(s, Tree):
        raise DomainError("symmetry factor is defined on non-planar trees")
    result = 1
    run_len = 0
    prev = None
    for c in s.children + (None,):
        if c == prev and c is not None:
            run_len += 1
        else:
            if prev is not None:
                result *= math.factorial(run_len) * symmetry_factor(prev) ** run_len
            prev = c
            run_len = 1
    return result


# ---------------------------------------------------------------------------
# enumeration


def _check_degree(n: int, max_degree: int):
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")
    if n > max_degree:
        raise DegreeCapError(f"degree {n} exceeds cap {max_degree}")


@_cached
def _basis(cls: type, n: int) -> tuple:
    """The degree-n trees of class ``cls``, sorted.  A tree of degree n > 1
    is a product of lower-degree trees, b joining t's root as a new branch:
    leftmost for a planar tree, b o-> t for exactly one pair (b, t) (the
    free magma on one generator); in sorted place for a non-planar tree,
    the Butcher product b o t once per distinct branch of its root.  A
    product is kept when b lands first among the root's children, which
    holds for exactly one product per tree of either class."""
    if n == 1:
        return (cls(),)
    products = [
        tree
        for k in range(1, n)
        for b in _basis(cls, k)
        for t in _basis(cls, n - k)
        if (tree := cls((b,) + t.children)).children[0] is b
    ]
    return tuple(sorted(products, key=canonical_key, reverse=True))


def enumerate_planar(n: int, max_degree: int = ENUMERATION_CAP) -> list[PlanarTree]:
    """All planar rooted trees with n vertices in canonical basis order, as
    a new list (the sorted basis is memoized per degree)."""
    _check_degree(n, max_degree)
    return list(_basis(PlanarTree, n))


def _planar_count(n: int) -> int:
    """How many planar rooted trees have n vertices: Catalan(n - 1)."""
    return math.comb(2 * n - 2, n - 1) // n


def enumerate_nonplanar(n: int, max_degree: int = ENUMERATION_CAP) -> list[Tree]:
    """All non-planar rooted trees with n vertices in canonical basis order,
    as a new list (the sorted basis is memoized per degree)."""
    _check_degree(n, max_degree)
    return list(_basis(Tree, n))


def _nonplanar_count(n: int) -> int:
    """How many rooted trees have n vertices (OEIS A000081), by
    a(m + 1) = (1/m) sum_{k=1..m} (sum_{d | k} d a(d)) a(m - k + 1)."""
    a = [0, 1]
    for m in range(1, n):
        a.append(
            sum(
                sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[m - k + 1]
                for k in range(1, m + 1)
            )
            // m
        )
    return a[n]


@_cached
def _binary_raw(n: int) -> tuple[BinaryTree, ...]:
    if n == 1:
        return (LEAF,)
    out = []
    for k in range(1, n):
        for left in _binary_raw(k):
            for right in _binary_raw(n - k):
                out.append(BinaryTree(left, right))
    return tuple(out)


def enumerate_binary(n: int, max_degree: int = ENUMERATION_CAP) -> list[BinaryTree]:
    """All planar binary trees with n leaves."""
    _check_degree(n, max_degree)
    return sorted(_binary_raw(n), key=lambda t: t.serialize())
