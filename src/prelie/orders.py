"""Vertex orders on rooted trees.

Three relations on the vertex set of a tree, each refining the previous:

* ``<``    tree order: v < w when the path from the root to w passes
           through v.  Partial; the root is the unique minimum.
* ``<<``   planar refinement: transitive closure of ``<`` together with
           "right sibling before left sibling".  Planar trees only.
           Locally, v << w when w is a strict descendant of v or lies in
           the subtree of a strict left sibling of v.
* ``<<<``  total order: recursively, with t = branch o-> trunk, every
           trunk vertex comes before every branch vertex.

Vertices are identified by their root path (tuple of child indices).
"""

from __future__ import annotations

from .trees import DomainError, PlanarTree, Tree, _fill, _Value

VertexId = tuple[int, ...]

ORDER_KINDS = ("<", "<<", "<<<")


def tree_less(v: VertexId, w: VertexId) -> bool:
    """v < w in the tree order: v a strict ancestor of w."""
    return len(v) < len(w) and w[: len(v)] == v


def left_refined_pairs(t: PlanarTree) -> set[tuple[VertexId, VertexId]]:
    """All pairs (v, w) with v << w: w is a strict descendant of v, or lies
    in the subtree of a strict left sibling of v.

    This is the transitive closure of the parent->child and
    right-sibling->left-sibling relations: both only move down or left, so
    from v they reach exactly the strict descendants of v and the subtrees
    of its left siblings.
    """
    verts = t.vertices()
    pairs = set()
    for v in verts:
        k = len(v) - 1  # v is child v[k] of the vertex v[:k]
        for w in verts:
            left_of_v = k >= 0 and len(w) > k and w[:k] == v[:k] and w[k] < v[k]
            if left_of_v or tree_less(v, w):
                pairs.add((v, w))
    return pairs


def total_order_list(t: PlanarTree) -> list[VertexId]:
    """Vertices of ``t`` listed in increasing ``<<<`` order."""
    if not t.children:
        return [()]
    branch = t.children[0]
    trunk = PlanarTree(t.children[1:], t.label)
    trunk_part = []
    for v in total_order_list(trunk):
        trunk_part.append(v if not v else (v[0] + 1,) + v[1:])
    branch_part = [(0,) + v for v in total_order_list(branch)]
    return trunk_part + branch_part


class VertexOrder(_Value):
    """Queryable pair relation over the vertices of one tree."""

    __slots__ = _fields = ("kind", "pairs")

    def __init__(self, kind: str, pairs: frozenset[tuple[VertexId, VertexId]]):
        _fill(self, kind, pairs)

    def holds(self, v: VertexId, w: VertexId) -> bool:
        return (v, w) in self.pairs


def vertex_order(t: PlanarTree | Tree, kind: str) -> VertexOrder:
    if kind not in ORDER_KINDS:
        raise DomainError(f"unknown order kind {kind!r}")
    if kind != "<" and not isinstance(t, PlanarTree):
        raise DomainError(f"order {kind!r} needs a planar tree")
    verts = t.vertices()
    if kind == "<":
        pairs = {(v, w) for v in verts for w in verts if tree_less(v, w)}
    elif kind == "<<":
        pairs = left_refined_pairs(t)
    else:
        ordered = total_order_list(t)
        rank = {v: i for i, v in enumerate(ordered)}
        pairs = {(v, w) for v in verts for w in verts if rank[v] < rank[w]}
    return VertexOrder(kind, frozenset(pairs))
