"""Rooted trees: planar, non-planar (canonical) and planar binary.

All tree values are immutable and hashable.  A rooted tree's
serialization and degree are computed once, at construction, from its
children's stored values; equality and hashing read the stored text.  The
text grammar is

    tree  := label? "(" tree* ")"
    label := [a-z0-9_]+

so the single unlabeled vertex is ``()``.  Non-planar trees are kept in a
canonical form: children sorted in descending serialization order, where
serializations are compared with ``(`` ranking above every other character
(see :func:`serial_key`).  With that convention the canonical planar
embedding of a tree is also its "branches first" drawing, e.g. the
canonical form of the 4-vertex tree with a 2-ladder branch and a leaf
branch is ``((())())``.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

ENUMERATION_CAP = 12  # Catalan(11) = 58786 planar trees at degree 12
BRUTE_FORCE_CAP = 8


class DomainError(ValueError):
    """Invalid argument for a tree operation (bad degree, bad flavor...)."""


class DegreeCapError(DomainError):
    """Requested degree exceeds the configured cap."""


# '(' must sort above ')' and above label characters so that deeper branches
# come first in "descending serialization" order.
_KEY_TABLE = str.maketrans({"(": "\x7e", ")": "\x20"})


def serial_key(serialization: str) -> str:
    """Sort key under which tree serializations are compared."""
    return serialization.translate(_KEY_TABLE)


_TOKEN_RE = re.compile(r"[a-z0-9_]+|[()]")


_LABEL_RE = re.compile(r"[a-z0-9_]+")


class _RootedTree:
    """Body shared by planar and non-planar trees.  The two stay distinct
    classes: trees of different classes never compare equal.

    A tree computes its serialization (interned) and its degree once, at
    construction, from its children's stored values.  Equality is "same
    class, same text" and the hash is the hash of the text.
    """

    __slots__ = ("children", "label", "degree", "_text")

    def __init__(self, children: tuple[_RootedTree, ...] = (), label: str | None = None):
        if label is not None and not _LABEL_RE.fullmatch(label):
            raise DomainError(f"bad label {label!r}")
        children = self._arrange(tuple(children))
        degree = 1
        texts = []
        for c in children:
            degree += c.degree
            texts.append(c._text)
        _set_children(self, children)
        _set_label(self, label)
        _set_degree(self, degree)
        _set_text(self, sys.intern(f"{label or ''}({''.join(texts)})"))

    @staticmethod
    def _arrange(children: tuple) -> tuple:
        return children

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._text == other._text

    def __hash__(self):
        return hash(self._text)

    def __reduce__(self):
        return type(self), (self.children, self.label)

    def __repr__(self):
        return f"{type(self).__qualname__}(children={self.children!r}, label={self.label!r})"

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
_set_text = _RootedTree._text.__set__


class PlanarTree(_RootedTree):
    """Ordered rooted tree; the free-magma element on one or more generators."""

    __slots__ = ()


def _descending_key(child: _RootedTree) -> str:
    return serial_key(child._text)


class Tree(_RootedTree):
    """Non-planar rooted tree; children are a multiset stored in canonical order."""

    __slots__ = ()

    @staticmethod
    def _arrange(children: tuple) -> tuple:
        if len(children) < 2:
            return children
        return tuple(sorted(children, key=_descending_key, reverse=True))


def _subtree_end(text: str, start: int) -> int:
    """Index just past the subtree whose text begins at ``start``."""
    depth = 0
    for i in range(text.index("(", start), len(text)):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    raise DomainError(f"unbalanced parentheses in {text!r}")


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
    """A memoized map from serializations to trees of class ``cls``.  Each
    distinct text is built once and shares its subtrees with every other
    tree the map builds.  A text must be a serialization of its class
    (canonical, for ``Tree``)."""

    @lru_cache(maxsize=None)
    def of_text(text: str):
        label = text[: text.index("(")] or None
        return cls(tuple(map(of_text, _child_texts(text))), label)

    return of_text


_planar_of_text = _text_builder(PlanarTree)
_tree_of_text = _text_builder(Tree)


@dataclass(frozen=True)
class BinaryTree:
    """Planar binary tree: a leaf, or a node with exactly two subtrees."""

    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise DomainError("internal node needs both subtrees")

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


def _parse_tokens(tokens: list[str], pos: int, cls):
    label = None
    if pos < len(tokens) and tokens[pos] not in "()":
        label = tokens[pos]
        pos += 1
    if pos >= len(tokens) or tokens[pos] != "(":
        raise DomainError(f"expected '(' at token {pos}")
    pos += 1
    children = []
    while pos < len(tokens) and tokens[pos] != ")":
        child, pos = _parse_tokens(tokens, pos, cls)
        children.append(child)
    if pos >= len(tokens):
        raise DomainError("unbalanced parentheses")
    return cls(tuple(children), label), pos + 1


def _parse(text: str, cls):
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise DomainError(f"cannot tokenize {text!r}")
    tree, pos = _parse_tokens(tokens, 0, cls)
    if pos != len(tokens):
        raise DomainError(f"trailing input in {text!r}")
    return tree


def parse_planar(text: str) -> PlanarTree:
    return _parse(text, PlanarTree)


def parse_tree(text: str) -> Tree:
    """Parse and canonicalize a non-planar tree."""
    return _parse(text, Tree)


# ---------------------------------------------------------------------------
# intrinsic statistics


def potential_energy(t: PlanarTree | Tree) -> int:
    """Sum of the depths of all vertices, the root having depth 0.

    Independent of the planar embedding, so projecting to the non-planar
    tree preserves it.
    """
    return sum(potential_energy(c) + c.degree for c in t.children)


def canonical_key(t: PlanarTree | Tree) -> tuple[int, str]:
    """Basis sort key: descending potential energy, ties by descending
    serialization.  Sort with ``reverse=True``."""
    return (potential_energy(t), serial_key(t.serialize()))


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


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# enumeration


def _check_degree(n: int, max_degree: int):
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")
    if n > max_degree:
        raise DegreeCapError(f"degree {n} exceeds cap {max_degree}")


@lru_cache(maxsize=None)
def _planar_forests(n: int) -> tuple[tuple[PlanarTree, ...], ...]:
    """All ordered forests with n vertices in total."""
    if n == 0:
        return ((),)
    out = []
    for first_size in range(1, n + 1):
        for first in _planar_raw(first_size):
            for rest in _planar_forests(n - first_size):
                out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _planar_raw(n: int) -> tuple[PlanarTree, ...]:
    return tuple(PlanarTree(forest) for forest in _planar_forests(n - 1))


def enumerate_planar(n: int, max_degree: int = ENUMERATION_CAP) -> list[PlanarTree]:
    """All planar rooted trees with n vertices in canonical basis order."""
    _check_degree(n, max_degree)
    return sorted(_planar_raw(n), key=canonical_key, reverse=True)


@lru_cache(maxsize=None)
def _nonplanar_raw(n: int) -> tuple[Tree, ...]:
    if n == 1:
        return (Tree(),)
    pool = []
    for m in range(1, n):
        pool.extend(_nonplanar_raw(m))
    # children multisets drawn from the pool of strictly smaller trees
    out = set()

    def extend(start: int, budget: int, chosen: tuple[Tree, ...]):
        if budget == 0:
            out.add(Tree(chosen))
            return
        for i in range(start, len(pool)):
            d = pool[i].degree
            if d <= budget:
                extend(i, budget - d, chosen + (pool[i],))

    extend(0, n - 1, ())
    return tuple(out)


def enumerate_nonplanar(n: int, max_degree: int = ENUMERATION_CAP) -> list[Tree]:
    """All non-planar rooted trees with n vertices in canonical basis order."""
    _check_degree(n, max_degree)
    return sorted(_nonplanar_raw(n), key=canonical_key, reverse=True)


@lru_cache(maxsize=None)
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
