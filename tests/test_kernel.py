"""Differential tests of the text kernels behind psi, psi_inverse, psi_bar
and left grafting.

The kernels compute on serializations.  They are checked here against the
branch/trunk recursion ``coeff_c_recursive``, and against references
written in this file with tree objects: left grafting by path copies, psi
by the branch/trunk split over that grafting, the unipotent recursion for
the inverse, and projection by rebuilding each tree as a non-planar one.
The left-Butcher inverse is also checked against the unipotent recursion
on the text kernel, as the package computed the inverse before it.  The
projected image psi_bar is computed by pre-Lie grafting the projected
images of branch and trunk, without the planar image; it is checked
against the termwise projection of psi's planar image on every tree
through degree 8, and on every tree labeled over {a, b} through degree 4.
"""

import time
from functools import lru_cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from prelie import (
    PlanarTree,
    Tree,
    TreeSum,
    coeff_c_recursive,
    decompose,
    enumerate_planar,
    left_graft,
    n_statistic,
    parse_planar,
    psi,
    psi_bar,
    psi_inverse,
    psi_matrix,
)
from prelie.products import NONPLANAR, PLANAR, _sum_of_texts
from prelie.psi import _psi
from prelie.trees import _planar_of_text

LABELS = st.sampled_from([None, "a", "b", "x_1"])


def _draw_tree(draw, n: int) -> PlanarTree:
    label = draw(LABELS)
    children = []
    rest = n - 1
    while rest:
        k = draw(st.integers(1, rest))
        children.append(_draw_tree(draw, k))
        rest -= k
    return PlanarTree(tuple(children), label)


@st.composite
def planar_trees(draw, max_degree: int = 8) -> PlanarTree:
    """Planar trees through ``max_degree``, each vertex unlabeled or
    carrying one of a few labels."""
    return _draw_tree(draw, draw(st.integers(1, max_degree)))


# ---------------------------------------------------------------------------
# references on tree objects


def ref_left_grafts(sigma, tau):
    """sigma grafted leftmost at each vertex of tau, in preorder, rebuilding
    the path from the root to that vertex."""
    yield PlanarTree((sigma,) + tau.children, tau.label)
    for i, child in enumerate(tau.children):
        for grafted in ref_left_grafts(sigma, child):
            yield PlanarTree(tau.children[:i] + (grafted,) + tau.children[i + 1 :], tau.label)


def ref_left_graft_sums(a: TreeSum, b: TreeSum) -> TreeSum:
    return TreeSum.make(
        PLANAR,
        [(t, ca * cb) for ta, ca in a.terms for tb, cb in b.terms for t in ref_left_grafts(ta, tb)],
    )


@lru_cache(maxsize=None)
def ref_psi(tau: PlanarTree) -> TreeSum:
    if not tau.children:
        return TreeSum.single(tau)
    branch, trunk = tau.children[0], PlanarTree(tau.children[1:], tau.label)
    return ref_left_graft_sums(ref_psi(branch), ref_psi(trunk))


@lru_cache(maxsize=None)
def ref_psi_inverse(sigma: PlanarTree) -> TreeSum:
    terms = [(sigma, 1)]
    for tau, c in ref_psi(sigma).terms:
        if tau != sigma:
            terms += [(rho, -c * d) for rho, d in ref_psi_inverse(tau).terms]
    return TreeSum.make(PLANAR, terms)


_unipotent_memo: dict = {}


def unipotent_psi_inverse(text: str) -> dict:
    """The unipotent recursion on the text kernel, as the package computed
    the inverse before the left-Butcher recursion:
    psi^-1(sigma) = sigma - sum over tau != sigma of c(tau, sigma) psi^-1(tau)."""
    out = _unipotent_memo.get(text)
    if out is None:
        acc = {text: 1}
        get = acc.get
        for tau, c in _psi(text).items():
            if tau != text:
                for rho, d in unipotent_psi_inverse(tau).items():
                    acc[rho] = get(rho, 0) - c * d
        out = _unipotent_memo[text] = {t: c for t, c in acc.items() if c}
    return out


def _same_as_unipotent(sigma: PlanarTree) -> bool:
    reference = _sum_of_texts(PLANAR, unipotent_psi_inverse(sigma.serialize()), True)
    return psi_inverse(sigma).to_text() == reference.to_text()


def ref_project(sigma: PlanarTree) -> Tree:
    return Tree(tuple(ref_project(c) for c in sigma.children), sigma.label)


def ref_psi_bar(tau: PlanarTree) -> TreeSum:
    return TreeSum.make(NONPLANAR, [(ref_project(t), c) for t, c in ref_psi(tau).terms])


# ---------------------------------------------------------------------------
# the kernel against the two methods


def test_psi_coefficients_match_recursion():
    for n in range(1, 8):
        basis = enumerate_planar(n)
        for tau in basis:
            image = dict(psi(tau).terms)
            for sigma in basis:
                assert image.get(sigma, 0) == coeff_c_recursive(sigma, tau), (sigma, tau)


@settings(max_examples=150)
@given(planar_trees())
def test_psi_and_psi_bar_match_tree_reference(tau):
    assert psi(tau).to_text() == ref_psi(tau).to_text()
    assert psi(tau) == ref_psi(tau)
    assert psi_bar(tau) == ref_psi_bar(tau)


def test_psi_bar_is_the_termwise_projection_of_psi():
    trees = [tau for n in range(1, 9) for tau in enumerate_planar(n)]
    assert len(trees) == 626
    for tau in trees:
        assert psi_bar(tau) == ref_psi_bar(tau), tau


def test_psi_bar_is_the_termwise_projection_of_psi_labeled():
    trees = [
        tau for n in range(1, 5) for shape in enumerate_planar(n) for tau in _labelings(shape)
    ]
    assert len(trees) == 102
    for tau in trees:
        assert psi_bar(tau) == ref_psi_bar(tau), tau


def test_psi_inverse_matches_tree_reference():
    for n in range(1, 9):
        for sigma in enumerate_planar(n):
            assert psi_inverse(sigma) == ref_psi_inverse(sigma)


# Labeled inverses are drawn through degree 6 only: the inverse recursion
# visits every higher-energy arrangement of the labels, and a labeled
# degree-8 corolla alone takes seconds to invert.
@settings(max_examples=60)
@given(planar_trees(max_degree=6))
def test_psi_inverse_matches_tree_reference_labeled(sigma):
    assert psi_inverse(sigma) == ref_psi_inverse(sigma)


def _labelings(tree: PlanarTree, alphabet=("a", "b")):
    """Every labeling of the vertices of ``tree`` over ``alphabet``."""
    for label in alphabet:
        for kids in product(*(list(_labelings(c, alphabet)) for c in tree.children)):
            yield PlanarTree(kids, label)


def test_psi_inverse_matches_unipotent_recursion():
    for n in range(1, 9):
        for sigma in enumerate_planar(n):
            assert _same_as_unipotent(sigma), sigma
    for n in range(1, 6):
        for shape in enumerate_planar(n):
            for sigma in _labelings(shape):
                assert _same_as_unipotent(sigma), sigma


def test_psi_inverse_of_labeled_corolla_matches_unipotent_recursion_fast():
    sigma = parse_planar("(a()b()x_1()a()b()x_1()())")
    start = time.process_time()
    fast = psi_inverse(sigma)
    elapsed = time.process_time() - start
    assert len(fast.terms) == 4680
    assert _same_as_unipotent(sigma)
    assert elapsed < 1.0, f"{elapsed:.2f} s of CPU"


def test_psi_inverse_of_labeled_parts_met_inside_the_recursion_is_ranked():
    # A labeled preimage is first memoized unranked, by the recursion of a
    # larger tree; asked for itself, it comes back in sum order.
    sigma = parse_planar("(a(b())b()a(b()()))")
    psi_inverse(sigma)
    while sigma.children:
        branch, sigma = decompose(sigma)
        assert _same_as_unipotent(branch), branch
        assert _same_as_unipotent(sigma), sigma


def test_psi_inverse_n_weighted_sum_is_one():
    # The coefficient-sum functional applied to psi(psi^-1(sigma)) = sigma,
    # with N(tau) the coefficient sum of psi(tau).
    for n in range(1, 10):
        for sigma in enumerate_planar(n):
            assert sum(c * n_statistic(tau) for tau, c in psi_inverse(sigma).terms) == 1, sigma


@settings(max_examples=150)
@given(planar_trees(), planar_trees())
def test_left_graft_matches_tree_reference(sigma, tau):
    assert left_graft(sigma, tau) == ref_left_graft_sums(TreeSum.single(sigma), TreeSum.single(tau))


def _psi_of_sum(s: TreeSum) -> dict:
    image: dict = {}
    for rho, d in s.terms:
        for t, c in psi(rho).terms:
            image[t] = image.get(t, 0) + c * d
    return {t: c for t, c in image.items() if c}


def test_psi_undoes_psi_inverse():
    for n in range(1, 8):
        for sigma in enumerate_planar(n):
            assert _psi_of_sum(psi_inverse(sigma)) == {sigma: 1}


@settings(max_examples=60)
@given(planar_trees(max_degree=6))
def test_psi_undoes_psi_inverse_labeled(sigma):
    assert _psi_of_sum(psi_inverse(sigma)) == {sigma: 1}


def test_psi_builds_one_tree_per_text():
    for tau in enumerate_planar(7):
        for t, _ in psi(tau).terms:
            assert t is _planar_of_text(t.serialize())


def test_psi_matrix_9_entry_sum_is_a088716():
    m = psi_matrix(9)
    assert m.entry_sum() == 521721
    assert m.is_unipotent_upper_triangular()
