import random
from functools import lru_cache
from itertools import product as iproduct

import pytest

from prelie import (
    DomainError,
    TreeSum,
    apply_product,
    bilinear_extend,
    binary_join,
    butcher,
    enumerate_nonplanar,
    enumerate_planar,
    forget_planarity,
    graft,
    left_butcher,
    left_graft,
    parse_planar,
    parse_tree,
    potential_energy,
    rotation,
)
from prelie.products import NONPLANAR, PLANAR, product_flavor
from prelie.trees import LEAF, BinaryTree, PlanarTree, enumerate_binary, serial_key


def tree_sum(*pairs):
    return TreeSum.make(NONPLANAR, [(parse_tree(t), c) for t, c in pairs])


def planar_sum(*pairs):
    return TreeSum.make(PLANAR, [(parse_planar(t), c) for t, c in pairs])


# ---------------------------------------------------------------------------
# binary trees and rotation


def test_binary_join():
    y = binary_join(LEAF, LEAF)
    assert y == BinaryTree(LEAF, LEAF)
    assert y.degree == 2
    assert binary_join(LEAF, y) == BinaryTree(LEAF, BinaryTree(LEAF, LEAF))
    assert binary_join(y, y).degree == 4


def test_rotation_base_cases():
    assert rotation(LEAF).serialize() == "()"
    assert rotation(BinaryTree(LEAF, LEAF)).serialize() == "(())"


def test_rotation_bijective_per_degree():
    for n in range(1, 8):
        images = {rotation(t) for t in enumerate_binary(n)}
        assert len(images) == len(enumerate_binary(n))
        assert images == set(enumerate_planar(n))
        assert all(t.degree == n for t in images)


def test_rotation_intertwines_products():
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for t1 in enumerate_binary(n1):
                for t2 in enumerate_binary(n2):
                    assert rotation(binary_join(t1, t2)) == left_butcher(
                        rotation(t1), rotation(t2)
                    )


# ---------------------------------------------------------------------------
# Butcher products


def test_left_butcher_examples():
    assert left_butcher(parse_planar("()"), parse_planar("()")).serialize() == "(())"
    assert (
        left_butcher(parse_planar("(())"), parse_planar("(())")).serialize()
        == "((())())"
    )
    assert (
        left_butcher(parse_planar("()"), parse_planar("(()())")).serialize()
        == "(()()())"
    )


def test_butcher_examples():
    assert butcher(parse_tree("()"), parse_tree("()")).serialize() == "(())"
    assert butcher(parse_tree("(())"), parse_tree("(())")) == parse_tree("((())())")


def test_butcher_nap_identity():
    pool = [s for n in range(1, 4) for s in enumerate_nonplanar(n)]
    for s in pool:
        for s2 in pool:
            for t in pool:
                if s.degree + s2.degree + t.degree <= 5:
                    assert butcher(s, butcher(s2, t)) == butcher(s2, butcher(s, t))


# ---------------------------------------------------------------------------
# grafting products


def test_left_graft_examples():
    assert left_graft(parse_planar("()"), parse_planar("(())")) == planar_sum(
        ("(()())", 1), ("((()))", 1)
    )
    # grafting a 2-ladder at the three vertices of a 3-ladder
    result = left_graft(parse_planar("(())"), parse_planar("((()))"))
    assert result == planar_sum(
        ("((())(()))", 1), ("(((())()))", 1), ("((((()))))", 1)
    )


def test_left_graft_term_count_is_degree():
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for sigma in enumerate_planar(n1):
                for tau in enumerate_planar(n2):
                    assert left_graft(sigma, tau).coefficient_sum() == tau.degree


def test_graft_examples():
    assert graft(parse_tree("()"), parse_tree("(())")) == tree_sum(
        ("((()))", 1), ("(()())", 1)
    )
    assert graft(parse_tree("(())"), parse_tree("(())")) == tree_sum(
        ("(((())))", 1), ("((())())", 1)
    )


def test_graft_coefficient_sum():
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for s in enumerate_nonplanar(n1):
                for t in enumerate_nonplanar(n2):
                    assert graft(s, t).coefficient_sum() == t.degree


def test_prelie_identity_small():
    pool = [s for n in range(1, 4) for s in enumerate_nonplanar(n)]
    one = TreeSum.single
    for s in pool:
        for t in pool:
            for u in pool:
                if s.degree + t.degree + u.degree > 6:
                    continue
                left = bilinear_extend("graft", graft(s, t), one(u)) - bilinear_extend(
                    "graft", one(s), graft(t, u)
                )
                right = bilinear_extend("graft", graft(t, s), one(u)) - bilinear_extend(
                    "graft", one(t), graft(s, u)
                )
                assert left == right


# ---------------------------------------------------------------------------
# projection compatibility


def test_projection_is_product_homomorphism():
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            if n1 + n2 > 8:
                continue
            for sigma in enumerate_planar(n1):
                for tau in enumerate_planar(n2):
                    assert forget_planarity(left_butcher(sigma, tau)) == butcher(
                        forget_planarity(sigma), forget_planarity(tau)
                    )
                    assert left_graft(sigma, tau).map_trees(
                        forget_planarity, NONPLANAR
                    ) == graft(forget_planarity(sigma), forget_planarity(tau))


def test_left_graft_leading_term_energy():
    # the left Butcher product is the lowest-energy term of the left graft
    for n1 in range(1, 4):
        for n2 in range(1, 5):
            for sigma in enumerate_planar(n1):
                for tau in enumerate_planar(n2):
                    head = left_butcher(sigma, tau)
                    s = left_graft(sigma, tau)
                    assert s.coefficient(head) >= 1
                    base = potential_energy(head)
                    for term, _ in s.terms:
                        assert potential_energy(term) >= base
                        if term != head:
                            assert potential_energy(term) > base


# ---------------------------------------------------------------------------
# TreeSum arithmetic


def test_bilinear_extend_examples():
    two_dots = TreeSum.make(NONPLANAR, [(parse_tree("()"), 2)])
    result = bilinear_extend("graft", two_dots, TreeSum.single(parse_tree("(())")))
    assert result == tree_sum(("((()))", 2), ("(()())", 2))

    empty = TreeSum.zero(NONPLANAR)
    assert bilinear_extend("graft", empty, two_dots) == empty

    mixed = TreeSum.single(parse_tree("()")) + TreeSum.single(parse_tree("(())"))
    assert bilinear_extend("graft", mixed, TreeSum.single(parse_tree("()"))) == tree_sum(
        ("(())", 1), ("((()))", 1)
    )


def test_graft_rejects_planar_operands():
    planar, tree = parse_planar("(())"), parse_tree("(())")
    for s, t in ((planar, tree), (tree, planar), (planar, planar)):
        with pytest.raises(DomainError, match="non-planar trees"):
            graft(s, t)
    planar_sum_, tree_sum_ = TreeSum.single(planar), TreeSum.single(tree)
    for a, b in ((planar_sum_, tree_sum_), (tree_sum_, planar_sum_), (planar_sum_, planar_sum_)):
        with pytest.raises(DomainError, match="needs two nonplanar sums"):
            bilinear_extend("graft", a, b)


def test_flavor_mismatch_raises():
    with pytest.raises(DomainError):
        bilinear_extend(
            "graft",
            TreeSum.single(parse_planar("()")),
            TreeSum.single(parse_planar("()")),
        )
    with pytest.raises(DomainError):
        TreeSum.single(parse_planar("()")) + TreeSum.single(parse_tree("()"))
    with pytest.raises(DomainError):
        TreeSum.single(parse_planar("()")) - TreeSum.single(parse_tree("()"))
    with pytest.raises(DomainError):
        TreeSum.zero(NONPLANAR) - TreeSum.zero(PLANAR)


def test_sum_collects_and_drops_zeros():
    s = tree_sum(("(())", 2)) + tree_sum(("(())", -2))
    assert s == TreeSum.zero(NONPLANAR)
    assert s.terms == ()
    assert s.to_text() == "0"


def test_sum_text_and_json():
    s = planar_sum(("((()))", -1), ("(()())", 1))
    assert s.to_text() == "-1 ((())) + 1 (()())"
    payload = s.to_json()
    assert payload == [
        {"coeff": "-1", "tree": parse_planar("((()))").to_json()},
        {"coeff": "1", "tree": parse_planar("(()())").to_json()},
    ]


def test_apply_product_wraps_single_trees():
    out = apply_product("butcher", parse_tree("()"), parse_tree("()"))
    assert out == tree_sum(("(())", 1))


# ---------------------------------------------------------------------------
# the one-pass kernel against the definitions it replaces


def reference_bilinear_extend(name, a, b):
    """One sum per pair of terms, all collected by ``TreeSum.make``."""
    return TreeSum.make(
        a.flavor,
        (
            (t, ca * cb * c)
            for ta, ca in a.terms
            for tb, cb in b.terms
            for t, c in apply_product(name, ta, tb).terms
        ),
    )


def reference_graft_at(sigma, tau, path):
    """sigma grafted leftmost at the vertex ``path`` of tau, copying the path."""
    if not path:
        return type(tau)((sigma,) + tau.children, tau.label)
    i = path[0]
    child = reference_graft_at(sigma, tau.children[i], path[1:])
    return type(tau)(tau.children[:i] + (child,) + tau.children[i + 1 :], tau.label)


def reference_graft(sigma, tau):
    flavor = PLANAR if isinstance(tau, PlanarTree) else NONPLANAR
    return TreeSum.make(
        flavor, [(reference_graft_at(sigma, tau, v), 1) for v in tau.vertices()]
    )


def labelings(tree, alphabet):
    """Every way to put a label of ``alphabet`` on each vertex of ``tree``,
    as trees of its class (so non-planar labelings come out canonical)."""
    for label in alphabet:
        for kids in iproduct(*(labelings(c, alphabet) for c in tree.children)):
            yield type(tree)(kids, label)


@lru_cache(maxsize=None)
def labeled_trees(flavor, n):
    """The distinct trees of degree n labeled over {a, b}, sorted by text."""
    enum = enumerate_planar if flavor == PLANAR else enumerate_nonplanar
    return tuple(sorted({t for u in enum(n) for t in labelings(u, "ab")}, key=str))


def random_sum(rng, flavor, max_degree=5, size=4, labeled=False):
    enum = enumerate_planar if flavor == PLANAR else enumerate_nonplanar
    terms = []
    for _ in range(rng.randint(0, size)):
        n = rng.randint(1, max_degree)
        tree = rng.choice(labeled_trees(flavor, n) if labeled else enum(n))
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append((tree, coeff))
        if rng.random() < 0.25:
            terms.append((tree, -coeff))  # a term that cancels
    return TreeSum.make(flavor, terms)


@pytest.mark.parametrize(
    "name, labeled",
    [
        ("left-butcher", False),
        ("butcher", False),
        ("left-graft", False),
        ("graft", False),
        ("butcher", True),
        ("graft", True),
    ],
    ids=["left-butcher", "butcher", "left-graft", "graft", "butcher-labeled", "graft-labeled"],
)
def test_bilinear_extend_matches_pairwise_definition(name, labeled):
    flavor = product_flavor(name)
    rng = random.Random(f"bilinear:{name}" + (":labeled" if labeled else ""))
    for _ in range(60):
        a = random_sum(rng, flavor, labeled=labeled)
        b = random_sum(rng, flavor, labeled=labeled)
        got = bilinear_extend(name, a, b)
        assert got.terms == reference_bilinear_extend(name, a, b).terms
        # the reference shares the zero-dropping step with the kernel
        assert all(c != 0 for _, c in got.terms)


def test_grafts_match_per_vertex_path_copy():
    for enum, product in ((enumerate_planar, left_graft), (enumerate_nonplanar, graft)):
        for n1 in range(1, 7):
            for n2 in range(1, 8 - n1):
                for sigma in enum(n1):
                    for tau in enum(n2):
                        assert product(sigma, tau).terms == reference_graft(sigma, tau).terms


def test_grafts_keep_labels():
    sigma, tau = parse_planar("a()"), parse_planar("b(c()d())")
    assert left_graft(sigma, tau) == reference_graft(sigma, tau)
    assert graft(parse_tree("a()"), parse_tree("b(c()c())")).coefficient(
        parse_tree("b(c(a())c())")
    ) == 2
    # every pair of trees labeled over {a, b} with total degree <= 5
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for s in labeled_trees(NONPLANAR, n1):
                for t in labeled_trees(NONPLANAR, n2):
                    assert graft(s, t).terms == reference_graft(s, t).terms, (s, t)


def reference_collected(flavor, terms):
    """Like terms collected in a dict keyed by the tree objects, zeros
    dropped, in descending serialization order."""
    acc = {}
    for tree, coeff in terms:
        acc[tree] = acc.get(tree, 0) + coeff
    kept = [(t, c) for t, c in acc.items() if c]
    return tuple(sorted(kept, key=lambda tc: serial_key(tc[0].serialize()), reverse=True))


@pytest.mark.parametrize("flavor", [PLANAR, NONPLANAR])
def test_make_and_sub_match_tree_keyed_collection(flavor):
    rng = random.Random(f"collect:{flavor}")
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(0, 8)):
            n = rng.randint(1, 4)
            tree = rng.choice(labeled_trees(flavor, n))
            coeff = rng.choice([-2, -1, 0, 1, 2])
            terms.append((tree, coeff))
            if rng.random() < 0.3:
                terms.append((tree, -coeff))  # cancels
        made = TreeSum.make(flavor, terms)
        assert made.terms == reference_collected(flavor, terms)
        assert all(c != 0 for _, c in made.terms)
        other = random_sum(rng, flavor, max_degree=4, labeled=True)
        want = reference_collected(flavor, made.terms + tuple((t, -c) for t, c in other.terms))
        assert (made - other).terms == want
        assert (made - made).terms == ()


def test_prelie_identity_labeled():
    rng = random.Random("prelie-identity:labeled")
    one = TreeSum.single
    for _ in range(200):
        total = rng.randint(3, 7)
        a = rng.randint(1, total - 2)
        b = rng.randint(1, total - a - 1)
        c = rng.randint(1, total - a - b)
        s, t, u = (rng.choice(labeled_trees(NONPLANAR, n)) for n in (a, b, c))
        left = bilinear_extend("graft", graft(s, t), one(u)) - bilinear_extend(
            "graft", one(s), graft(t, u)
        )
        right = bilinear_extend("graft", graft(t, s), one(u)) - bilinear_extend(
            "graft", one(t), graft(s, u)
        )
        assert left == right, (s, t, u)
