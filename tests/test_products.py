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
    psi,
    psi_inverse,
    rotation,
)
from prelie.products import NONPLANAR, PLANAR, product_flavor
from prelie.trees import (
    LEAF,
    BinaryTree,
    PlanarTree,
    Tree,
    _planar_of_text,
    _tree_of_text,
    enumerate_binary,
    serial_key,
)


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


# ---------------------------------------------------------------------------
# sums held as texts against an eager, tree-held reference


class EagerSum:
    """A sum held as its (tree, coefficient) terms, built eagerly: like
    terms collected by tree object, zeros dropped, in descending
    serialization order, products taken on trees by the tree constructors."""

    def __init__(self, flavor, terms):
        self.flavor = flavor
        self.terms = reference_collected(flavor, terms)

    def __add__(self, other):
        return EagerSum(self.flavor, self.terms + other.terms)

    def __sub__(self, other):
        return EagerSum(self.flavor, self.terms + tuple((t, -c) for t, c in other.terms))

    def scale(self, k):
        return EagerSum(self.flavor, [(t, k * c) for t, c in self.terms])

    def coefficient(self, tree):
        return dict(self.terms).get(tree, 0)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (t, c) in enumerate(self.terms):
            chunk = f"{abs(c)} {t.serialize()}"
            if i == 0:
                parts.append(chunk if c > 0 else f"-{chunk}")
            else:
                parts.append(f"{'-' if c < 0 else '+'} {chunk}")
        return " ".join(parts)

    def to_json(self):
        return [{"coeff": str(c), "tree": t.to_json()} for t, c in self.terms]


def eager_product(name, a, b):
    """The trees of a named product of two trees, one per term."""
    if name == "left-butcher":
        return [PlanarTree((a,) + b.children, b.label)]
    if name == "butcher":
        return [Tree((a,) + b.children, b.label)]
    return [reference_graft_at(a, b, v) for v in b.vertices()]


def eager_bilinear_extend(name, a, b):
    return EagerSum(
        a.flavor,
        [
            (t, ca * cb)
            for ta, ca in a.terms
            for tb, cb in b.terms
            for t in eager_product(name, ta, tb)
        ],
    )


def enumerate_trees(flavor, n):
    return enumerate_planar(n) if flavor == PLANAR else enumerate_nonplanar(n)


def sum_pair(rng, flavor, labeled):
    """One seeded list of terms, with zeros and cancelling terms, as a sum
    and as its eager reference."""
    terms = []
    for _ in range(rng.randint(0, 6)):
        n = rng.randint(1, 4)
        tree = rng.choice(labeled_trees(flavor, n) if labeled else enumerate_trees(flavor, n))
        coeff = rng.choice([-3, -1, 0, 1, 2])
        terms.append((tree, coeff))
        if rng.random() < 0.25:
            terms.append((tree, -coeff))
    return TreeSum.make(flavor, terms), EagerSum(flavor, terms)


def parse_other(cls, tree):
    """The tree of class ``cls`` with the text of ``tree``."""
    return (parse_planar if cls is PlanarTree else parse_tree)(tree.serialize())


@pytest.mark.parametrize(
    "flavor, labeled",
    [(PLANAR, False), (NONPLANAR, False), (PLANAR, True), (NONPLANAR, True)],
    ids=["planar", "nonplanar", "planar-labeled", "nonplanar-labeled"],
)
def test_text_sums_agree_with_eager_tree_sums(flavor, labeled):
    rng = random.Random(f"eager:{flavor}:{labeled}")
    names = [n for n in ("left-butcher", "butcher", "left-graft", "graft")
             if product_flavor(n) == flavor]
    other_class = Tree if flavor == PLANAR else PlanarTree
    for _ in range(80):
        (a, ea), (b, eb) = sum_pair(rng, flavor, labeled), sum_pair(rng, flavor, labeled)
        k = rng.choice([-2, 0, 1, 3])
        cases = [(a, ea), (a + b, ea + eb), (a - b, ea - eb), (a - a, ea - ea)]
        cases.append((a.scale(k), ea.scale(k)))
        cases += [(bilinear_extend(n, a, b), eager_bilinear_extend(n, ea, eb)) for n in names]
        for got, want in cases:
            assert got.flavor == want.flavor
            assert got.texts == tuple((t.serialize(), c) for t, c in want.terms)
            assert got.to_text() == want.to_text()
            assert got.to_json() == want.to_json()
            assert got.terms == want.terms
            assert got == TreeSum.make(flavor, want.terms)
        probes = [t for t, _ in ea.terms + eb.terms] + list(enumerate_trees(flavor, 3))
        for tree in probes:
            assert a.coefficient(tree) == ea.coefficient(tree)
            assert a.coefficient(parse_other(other_class, tree)) == 0


def test_sums_build_no_tree_until_terms_are_read():
    tau = parse_planar("lz1(lz2()lz3(lz4())lz5())")
    s, t = parse_tree("lz6(lz7())"), parse_tree("lz8(lz9()lz9())")
    tables = (PlanarTree._by_text, Tree._by_text)
    before = [len(table) for table in tables]
    sums = [(psi(tau), _planar_of_text), (psi_inverse(tau), _planar_of_text),
            (graft(s, t), _tree_of_text)]
    for x, _ in sums:
        x.to_text()
    assert [len(table) for table in tables] == before
    for x, of_text in sums:
        terms = x.terms
        assert terms == x.terms
        for (tree, c), (text, d) in zip(terms, x.texts, strict=True):
            assert tree is of_text(text) and c == d
    assert all(len(table) > n for table, n in zip(tables, before))


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
