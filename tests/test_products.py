import random
from bisect import bisect_left
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
from prelie import products
from prelie.products import (
    NONPLANAR,
    PLANAR,
    _children,
    _cuts,
    _joined,
    _ranked,
    product_flavor,
)
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
                    projected = TreeSum.make(
                        NONPLANAR,
                        [(forget_planarity(t), c) for t, c in left_graft(sigma, tau).terms],
                    )
                    assert projected == graft(forget_planarity(sigma), forget_planarity(tau))


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


def test_butcher_products_reject_an_operand_of_the_other_class():
    # a single vertex of the other class has no child to refuse, so the
    # class of each operand is checked itself
    cases = [
        (butcher, "butcher", [
            (parse_tree("(())"), parse_planar("()")),
            (parse_planar("(())"), parse_tree("(())")),
            (parse_tree("()"), parse_planar("(())")),
            (parse_planar("()"), parse_tree("()")),
            (parse_planar("(())"), parse_planar("()")),
            (parse_tree("a()"), parse_planar("b()")),
        ]),
        (left_butcher, "left-butcher", [
            (parse_planar("(())"), parse_tree("()")),
            (parse_tree("()"), parse_planar("()")),
            (parse_tree("(())"), parse_tree("()")),
            (parse_planar("a()"), parse_tree("b()")),
        ]),
    ]
    for product, name, pairs in cases:
        for s, t in pairs:
            with pytest.raises(DomainError, match="needs two"):
                product(s, t)
            with pytest.raises(DomainError, match="needs two"):
                apply_product(name, s, t)
    # operands of the right class still give the product
    assert butcher(parse_tree("(())"), parse_tree("()")).serialize() == "((()))"
    assert left_butcher(parse_planar("(())"), parse_planar("()")).serialize() == "((()))"


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


# ---------------------------------------------------------------------------
# a sum holds its map, and ranks its terms only when they are read in order


def identity_sides(s, t, u):
    """Both sides of the pre-Lie identity on the triple (s, t, u)."""
    one = TreeSum.single
    left = bilinear_extend("graft", graft(s, t), one(u)) - bilinear_extend(
        "graft", one(s), graft(t, u)
    )
    right = bilinear_extend("graft", graft(t, s), one(u)) - bilinear_extend(
        "graft", one(t), graft(s, u)
    )
    return left, right


def test_identity_sums_are_ranked_only_when_read_in_order(monkeypatch):
    calls = dict.fromkeys(("_ranked", "_order"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(products, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(products, name, counted)
    rng = random.Random("identity-ranking")
    for labeled in (False, True):
        for _ in range(30):
            degrees = [rng.randint(1, 3) for _ in range(3)]
            s, t, u = (rng.choice(labeled_trees(NONPLANAR, n) if labeled
                                  else enumerate_nonplanar(n)) for n in degrees)
            calls.update(_ranked=0, _order=0)
            left, right = identity_sides(s, t, u)
            assert left == right and hash(left) == hash(right)
            assert calls == {"_ranked": 0, "_order": 0}
            text = left.to_text()  # one pass over the sorted map, nothing kept
            assert calls == {"_ranked": 0, "_order": 1}
            assert left.texts == left.texts and left.terms == left.terms
            ranked = {"_ranked": 1, "_order": 1 + labeled}  # ranked once, then kept
            assert calls == ranked
            assert left.to_text() == text == reference_to_text(left)
            assert calls == ranked


@pytest.mark.parametrize("flavor", [PLANAR, NONPLANAR])
def test_a_sum_whose_labeled_terms_cancel_reads_like_one_built_fresh(flavor):
    make = planar_sum if flavor == PLANAR else tree_sum
    plain = [("((()))", 2), ("(()())", -1), ("(())", 5), ("()", -(10**20))]
    labeled = [("a(())", 3), ("(b()())", -4), ("b()", 1)]
    one = make(("()", 1))
    cases = [(make(*plain, *labeled) - make(*labeled), make(*plain))]
    # a product whose labeled operand terms cancel before it is taken
    stale = make(*plain[:2], *labeled) + make(*labeled).scale(-1)
    for name in ("left-butcher", "butcher", "left-graft", "graft"):
        if product_flavor(name) == flavor:
            cases.append((bilinear_extend(name, stale, one),
                          bilinear_extend(name, make(*plain[:2]), one)))
    for got, fresh in cases:
        assert got._hint and not fresh._hint  # the stale hint picks the key sort
        assert got.to_text() == fresh.to_text()
        assert got == fresh and hash(got) == hash(fresh)
        assert got.texts == fresh.texts and repr(got) == repr(fresh)
        assert got.to_json() == fresh.to_json() and got.terms == fresh.terms


def test_arithmetic_on_kernel_images_leaves_the_memos_unchanged():
    from prelie.monomials import evaluate, parse_monomial, planar_lower_term
    from prelie.projection import _psi_bar, psi_bar
    from prelie.psi import _psi

    cases = []
    for text in ("(()(())())", "a(b()c(a())b())"):
        tau = parse_planar(text)
        cases += [(psi(tau), _psi, tau), (psi_bar(tau), _psi_bar, tau)]
    for m in (parse_monomial("[[g,g],[g,[g,g]]]"), parse_monomial("[a,[b,[a,b]]]")):
        planar = planar_lower_term(m)
        cases += [(evaluate(m, "left-graft"), _psi, planar),
                  (evaluate(m, "graft"), _psi_bar, planar)]
    for x, kernel, tau in cases:
        memo = kernel(tau.serialize())
        before = dict(memo)
        assert x._terms is memo  # the sum holds the memoized image itself
        (text, c), *_ = memo.items()
        tree = (parse_planar if x.flavor == PLANAR else parse_tree)(text)
        other = TreeSum.single(tree, c)
        name = "left-graft" if x.flavor == PLANAR else "graft"
        results = [x + x, x - x, x - other, other - x, x + other.scale(-1),
                   x.scale(-3), x.scale(0), bilinear_extend(name, x, x)]
        for r in results:
            r.to_text()
            assert r.texts == r.texts
        assert (x - x).texts == () and (x - other).coefficient(tree) == 0
        assert x._terms is memo and x.coefficient(tree) == c
        assert x.texts == tuple(reference_ranked(before))  # ranked into the sum
        assert kernel(tau.serialize()) is memo and memo == before


@pytest.mark.parametrize(
    "flavor, labeled",
    [(PLANAR, False), (NONPLANAR, False), (PLANAR, True), (NONPLANAR, True)],
    ids=["planar", "nonplanar", "planar-labeled", "nonplanar-labeled"],
)
def test_an_unranked_sum_equals_and_hashes_as_the_sum_of_its_pairs(flavor, labeled):
    rng = random.Random(f"unranked:{flavor}:{labeled}")
    names = [n for n in ("left-butcher", "butcher", "left-graft", "graft")
             if product_flavor(n) == flavor]
    for _ in range(40):
        a = random_sum(rng, flavor, max_degree=4, labeled=labeled)
        b = random_sum(rng, flavor, max_degree=4, labeled=labeled)
        k = rng.choice([-2, 1, 3])
        builds = [lambda: a + b, lambda: a - b, lambda: a.scale(k)]
        builds += [lambda n=n: bilinear_extend(n, a, b) for n in names]
        for build in builds:
            x, y = build(), build()
            pairs = TreeSum(flavor, y.texts)
            assert type(x._terms) is dict
            assert x == pairs and pairs == x and not x != pairs
            assert hash(x) == hash(pairs) and {pairs: 1}[x] == 1
            assert type(x._terms) is dict  # comparing and hashing ranked nothing
            assert x != TreeSum("planar" if flavor == NONPLANAR else "nonplanar", y.texts)


# ---------------------------------------------------------------------------
# ranking, printing and cut points against their definitions


def reference_ranked(acc):
    """The nonzero (text, coefficient) pairs of ``acc`` in descending
    ``serial_key`` order."""
    kept = [(t, c) for t, c in acc.items() if c]
    return sorted(kept, key=lambda tc: serial_key(tc[0]), reverse=True)


COEFFS = [0, 0, -1, 1, 2, -3, 10**20, -(10**21)]


@pytest.mark.parametrize("flavor", [PLANAR, NONPLANAR])
def test_ranked_unlabeled_is_descending_serial_key(flavor):
    enum = enumerate_planar if flavor == PLANAR else enumerate_nonplanar
    texts = [t.serialize() for n in range(1, 9) for t in enum(n)]
    rng = random.Random(f"ranked:{flavor}")
    for _ in range(20):
        rng.shuffle(texts)
        acc = {t: rng.choice(COEFFS) for t in texts[: rng.randint(0, len(texts))]}
        assert _ranked(acc, False) == reference_ranked(acc)


@pytest.mark.parametrize("flavor", [PLANAR, NONPLANAR])
def test_ranked_labeled_takes_the_key_order(flavor):
    rng = random.Random(f"ranked-labeled:{flavor}")
    enum = enumerate_planar if flavor == PLANAR else enumerate_nonplanar
    labeled = [t.serialize() for n in range(1, 5) for t in labeled_trees(flavor, n)]
    plain = [t.serialize() for n in range(1, 7) for t in enum(n)]
    # multi-generator texts: labels of several characters, digits and "_"
    several = ["x1(y_2()z())", "x1(z()y_2())", "y_2(x1())", "x1()", "z(x1()y_2(z()))"]
    for _ in range(30):
        texts = rng.sample(labeled, 12) + rng.sample(plain, 12) + several
        rng.shuffle(texts)
        acc = {t: rng.choice(COEFFS) for t in texts}
        assert _ranked(acc, True) == reference_ranked(acc)
    # one labeled text among unlabeled ones sends the whole sum down the key path
    acc = {t: 1 for t in plain}
    acc["a()"] = 1
    assert _ranked(acc, True) == reference_ranked(acc)


def reference_to_text(s):
    """The text of a sum built term by term: the first term signed only
    when negative, every later one joined by its sign."""
    if not s.texts:
        return "0"
    parts = []
    for i, (t, c) in enumerate(s.texts):
        if i == 0:
            parts.append(f"{c} {t}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {abs(c)} {t}")
    return " ".join(parts)


def test_to_text_matches_the_termwise_format():
    cases = [
        TreeSum.zero(PLANAR),
        planar_sum(("((()))", -1)),
        planar_sum(("((()))", 1)),
        planar_sum(("((()))", -1), ("(()())", -2)),
        planar_sum(("((()))", 3), ("(()())", -(10**20)), ("(()()())", 10**21)),
        planar_sum(("((()))", -(10**25)), ("(()())", 10**20), ("(()()())", -1)),
        tree_sum(("a(b()c())", -7), ("a(b(c()))", 1), ("c()", -1)),
    ]
    for s in cases:
        assert s.to_text() == reference_to_text(s), s
    assert TreeSum.zero(NONPLANAR).to_text() == "0"
    assert planar_sum(("(())", -(10**20)), ("(()())", -5)).to_text() == (
        "-5 (()()) - 100000000000000000000 (())"
    )
    rng = random.Random("to-text")
    for flavor in (PLANAR, NONPLANAR):
        for labeled in (False, True):
            for _ in range(50):
                s = random_sum(rng, flavor, labeled=labeled).scale(rng.choice([1, -1, 10**20]))
                assert s.to_text() == reference_to_text(s)


def test_labeled_left_graft_at_cut_points():
    sigma, tau = parse_planar("a(b())"), parse_planar("c(d()e())")
    assert [h + t for h, t in _cuts(tau.serialize())] == [tau.serialize()] * 3
    assert [h for h, _ in _cuts(tau.serialize())] == ["c(", "c(d(", "c(d()e("]
    got = left_graft(sigma, tau)
    assert got == reference_graft(sigma, tau)
    assert got == planar_sum(
        ("c(a(b())d()e())", 1), ("c(d(a(b()))e())", 1), ("c(d()e(a(b())))", 1)
    )
    # and through the sum kernel, operands with several terms
    a = planar_sum(("a(b())", 2), ("b()", -1))
    b = planar_sum(("c(d()e())", 1), ("d(c())", 3))
    assert bilinear_extend("left-graft", a, b) == reference_bilinear_extend("left-graft", a, b)


# ---------------------------------------------------------------------------
# the unlabeled fast paths against the key paths they replace


def key_placed(label, kids, x):
    """The text of ``_joined`` placing ``x`` among ``kids`` by their keys."""
    return _joined(label, kids, tuple(map(serial_key, reversed(kids))), x)


def test_joined_plain_order_is_key_order_on_unlabeled_texts():
    parents = [t.serialize() for n in range(1, 8) for t in enumerate_nonplanar(n)]
    xs = [t.serialize() for n in range(1, 5) for t in enumerate_nonplanar(n)]
    for p in parents:
        label, kids, keys = _children(p)
        assert keys == ()  # an unlabeled parent carries no keys
        for x in xs:
            got = _joined(label, kids, keys, x)
            assert got == key_placed(label, kids, x), (p, x)
            assert got == butcher(parse_tree(x), parse_tree(p)).serialize(), (p, x)


def test_joined_places_a_labeled_x_by_keys_under_an_unlabeled_parent():
    # "(a())" is above "()" in key order but below it in str order
    assert _joined(*_children("(())"), "(a())") == "((a())())"
    parents = [t.serialize() for n in range(1, 6) for t in enumerate_nonplanar(n)]
    xs = [t.serialize() for n in range(1, 4) for t in labeled_trees(NONPLANAR, n)]
    xs += [parse_tree(x).serialize() for x in ("(a())", "(a()())", "((a()))", "x1(y_2())")]
    plain_differs = 0
    for p in parents:
        label, kids, keys = _children(p)
        for x in xs:
            got = _joined(label, kids, keys, x)
            assert got == key_placed(label, kids, x), (p, x)
            assert got == Tree((parse_tree(x),) + parse_tree(p).children).serialize(), (p, x)
            i = bisect_left(kids, x)
            plain_differs += got != f"{label}({''.join(kids[:i])}{x}{''.join(kids[i:])})"
    assert plain_differs  # the case is met: plain order would misplace x


def test_butcher_is_the_constructed_tree():
    def pairs():
        trees = [t for n in range(1, 6) for t in enumerate_nonplanar(n)]
        yield from iproduct(trees, trees)
        labeled = [t for n in range(1, 4) for t in labeled_trees(NONPLANAR, n)]
        plain = [t for n in range(1, 4) for t in enumerate_nonplanar(n)]
        yield from iproduct(labeled, labeled + plain)
        yield from iproduct(plain, labeled)

    for s, t in pairs():
        assert butcher(s, t) is Tree((s,) + t.children, t.label), (s, t)
    # a product never built before is built on the miss
    s, t = parse_tree("z(y())"), parse_tree("x(w()v(u()))")
    fresh = "x(z(y())w()v(u()))"
    assert fresh not in Tree._by_text
    assert butcher(s, t).serialize() == fresh
    assert butcher(s, t) is parse_tree(fresh)


def test_single_is_make_of_one_term():
    trees = [parse_tree("(()(()))"), parse_tree("a(b()a())")]
    trees += [parse_planar("((())())"), parse_planar("a(()b())")]
    for tree in trees:
        flavor = PLANAR if isinstance(tree, PlanarTree) else NONPLANAR
        for coeff in (1, 0, -3, 10**20, True, False):
            got, want = TreeSum.single(tree, coeff), TreeSum.make(flavor, [(tree, coeff)])
            assert got == want, (tree, coeff)
            assert got.texts == want.texts and got.flavor == want.flavor
            assert got.to_text() == want.to_text()
    assert TreeSum.single(trees[0], 0).texts == ()
    for other in ("(())", LEAF, None):
        with pytest.raises(DomainError) as single_error:
            TreeSum.single(other)
        with pytest.raises(DomainError) as make_error:
            TreeSum.make(NONPLANAR, [(other, 1)])
        assert str(single_error.value) == str(make_error.value)
