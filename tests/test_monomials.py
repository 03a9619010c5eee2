import functools
from pathlib import Path

import pytest

from prelie import (
    DegreeCapError,
    DomainError,
    Generator,
    GeneratorOrder,
    Product,
    TreeSum,
    ag_basis,
    ag_basis_multigen,
    beta_matrix,
    butcher,
    enumerate_nonplanar,
    evaluate,
    expand_basis,
    forget_planarity,
    is_tree_grounded,
    load_monomials,
    lower_energy_term,
    parse_monomial,
    parse_tree,
    section_of_basis,
)
from prelie import monomials
from prelie.monomials import planar_lower_term
from prelie.products import NONPLANAR, PLANAR, PRODUCTS, bilinear_extend, product_flavor
from prelie.trees import PlanarTree, Tree

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_monomials(name):
    return load_monomials((FIXTURES / name).read_text())


def tree_sum(*pairs):
    return TreeSum.make(NONPLANAR, [(parse_tree(t), c) for t, c in pairs])


# ---------------------------------------------------------------------------
# expressions


def test_parse_round_trip():
    for text in ["g", "[g,g]", "[[g,g],g]", "[g,[a,[g,b_2]]]"]:
        m = parse_monomial(text)
        assert m.serialize() == text
        assert parse_monomial(m.serialize()) == m


def test_parse_errors():
    for bad in ["", "[g]", "[g,g", "g]", "[g,,g]", "[G,g]", "[g,g]x"]:
        with pytest.raises(DomainError):
            parse_monomial(bad)


def test_degree_and_generators():
    m = parse_monomial("[[a,b],a]")
    assert m.degree == 3
    assert m.generator_names() == {"a", "b"}
    assert Generator("g").degree == 1
    assert Product(Generator("g"), Generator("g")).degree == 2


def structural_degree(m):
    if isinstance(m, Generator):
        return 1
    return structural_degree(m.left) + structural_degree(m.right)


def structural_names(m):
    if isinstance(m, Generator):
        return {m.name}
    return structural_names(m.left) | structural_names(m.right)


def test_monomials_compare_and_hash_by_their_text():
    two = GeneratorOrder(("a", "b"))
    family = [m for n in range(1, 9) for m in ag_basis(n).monomials]
    family += [m for n in range(1, 5) for m in ag_basis_multigen(n, two)]
    generators = [Generator(name) for name in ("g", "a", "b")]
    for m in family:
        again = parse_monomial(m.serialize())
        assert again == m and hash(again) == hash(m)
        assert m.degree == structural_degree(m)
        assert m.generator_names() == structural_names(m)
        if isinstance(m, Product):
            assert all(g != m and m != g for g in generators)
            assert Generator(m.serialize()) != m
    # a re-parsed monomial is a distinct object that finds the memoized fold
    for m in family:
        again = parse_monomial(m.serialize())
        if isinstance(m, Product):
            assert again is not m
        want = evaluate(m, "graft")
        before = monomials._magmatic_fold.cache_info()
        assert evaluate(again, "graft") == want
        after = monomials._magmatic_fold.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_evaluate_magmatic_products():
    m = parse_monomial("[[g,g],g]")
    assert evaluate(m, "butcher") == tree_sum(("((()))", 1))
    assert evaluate(m, "left-butcher").terms[0][0].serialize() == "((()))"
    star = parse_monomial("[g,[g,g]]")
    assert lower_energy_term(star).serialize() == "(()())"
    assert planar_lower_term(star).serialize() == "(()())"


def test_evaluate_grafting_products():
    m = parse_monomial("[g,[g,g]]")
    assert evaluate(m, "graft") == tree_sum(("(()())", 1), ("((()))", 1))


def test_evaluate_labeled():
    m = parse_monomial("[a,b]")
    out = evaluate(m, "butcher")
    assert out.terms[0][0].serialize() == "b(a())"
    forced = evaluate(parse_monomial("[g,g]"), "butcher", labeled=True)
    assert forced.terms[0][0].serialize() == "g(g())"


def reference_evaluate(m, product, labeled):
    """The fold with no memo: every sub-monomial expanded where it occurs."""
    leaf_cls = PlanarTree if product_flavor(product) == PLANAR else Tree
    if isinstance(m, Generator):
        return TreeSum.single(leaf_cls((), m.name if labeled else None))
    return bilinear_extend(
        product,
        reference_evaluate(m.left, product, labeled),
        reference_evaluate(m.right, product, labeled),
    )


@pytest.mark.parametrize("product", sorted(PRODUCTS))
def test_evaluate_matches_unmemoized_fold(product):
    monomials._magmatic_fold.cache_clear()
    for n in range(1, 8):
        for m in ag_basis(n).monomials:
            assert evaluate(m, product) == reference_evaluate(m, product, False)
    order = GeneratorOrder(("a", "b"))
    for n in range(1, 5):
        for m in ag_basis_multigen(n, order):
            labeled = len(m.generator_names()) > 1
            assert evaluate(m, product) == reference_evaluate(m, product, labeled)
            assert evaluate(m, product, True) == reference_evaluate(m, product, True)


def test_evaluate_labeled_and_unlabeled_in_either_order():
    m = parse_monomial("[g,[g,g]]")
    plain = tree_sum(("(()())", 1), ("((()))", 1))
    named = TreeSum.make(
        NONPLANAR, [(parse_tree("g(g()g())"), 1), (parse_tree("g(g(g()))"), 1)]
    )
    for first, second in ((False, True), (True, False)):
        monomials._magmatic_fold.cache_clear()
        results = {labeled: evaluate(m, "graft", labeled) for labeled in (first, second)}
        assert results == {False: plain, True: named}


def tree_fold(m, labeled):
    """The Butcher fold built through the ``Tree`` constructor, which sorts
    the left operand in among the right one's root children."""
    if isinstance(m, Generator):
        return Tree((), m.name if labeled else None)
    right = tree_fold(m.right, labeled)
    return Tree((tree_fold(m.left, labeled),) + right.children, right.label)


def test_lower_term_is_butcher_fold():
    family = [m for n in range(1, 9) for m in ag_basis(n).monomials]
    order = GeneratorOrder(("a", "b"))
    family += [m for n in range(1, 6) for m in ag_basis_multigen(n, order)]
    for m in family:
        want = tree_fold(m, len(m.generator_names()) > 1)
        assert lower_energy_term(m) is want, m.serialize()
        assert forget_planarity(planar_lower_term(m)) is want, m.serialize()


def _single_term(s: TreeSum):
    ((tree, coeff),) = s.terms
    assert coeff == 1
    return tree


def test_lower_terms_are_the_magmatic_evaluations():
    # the direct tree folds against the one term of each magmatic sum fold
    monomials._magmatic_fold.cache_clear()
    family = [m for n in range(1, 9) for m in ag_basis(n).monomials]
    order = GeneratorOrder(("a", "b"))
    family += [m for n in range(1, 6) for m in ag_basis_multigen(n, order)]
    for m in family:
        lower, planar = lower_energy_term(m), planar_lower_term(m)
        assert type(lower) is Tree and type(planar) is PlanarTree
        assert lower is _single_term(evaluate(m, "butcher"))
        assert planar is _single_term(evaluate(m, "left-butcher"))
    # the mixed monomials fold to labeled trees, the one-letter ones do not
    assert lower_energy_term(parse_monomial("[a,b]")).serialize() == "b(a())"
    assert planar_lower_term(parse_monomial("[[a,b],a]")).serialize() == "a(b(a()))"
    assert lower_energy_term(parse_monomial("[b,b]")).serialize() == "(())"


# ---------------------------------------------------------------------------
# one-generator bases


def test_ag_basis_counts():
    assert [len(ag_basis(n).monomials) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_ag_basis_small_listings():
    assert ag_basis(3).serialized() == ("[[g,g],g]", "[g,[g,g]]")
    assert ag_basis(4).serialized() == (
        "[[[g,g],g],g]",
        "[[g,[g,g]],g]",
        "[[g,g],[g,g]]",
        "[g,[g,[g,g]]]",
    )


def test_expand_basis_degree3():
    m = expand_basis(ag_basis(3))
    assert m.row_basis == ("((()))", "(()())")
    assert m.entries == ((1, 1), (0, 1))


def test_expand_basis_degree4():
    m = expand_basis(ag_basis(4))
    assert m.row_basis == ("(((())))", "((()()))", "((())())", "(()()())")
    assert m.entries == (
        (1, 1, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 3),
        (0, 0, 0, 1),
    )


def test_expand_basis_degree5_last_column():
    basis = ag_basis(5)
    m = expand_basis(basis)
    last = basis.serialized()[-1]
    assert last == "[g,[g,[g,[g,g]]]]"
    col = m.column(last)
    assert sorted(col) == [1, 1, 1, 1, 3, 3, 4, 4, 6]
    assert col == (1, 1, 3, 4, 1, 4, 3, 6, 1)


def test_expand_basis_unipotent():
    for n in range(1, 7):
        m = expand_basis(ag_basis(n))
        assert m.is_unipotent_upper_triangular()


# ---------------------------------------------------------------------------
# tree-grounded families


def test_fixture_families():
    ok1, w1 = is_tree_grounded(fixture_monomials("b1.monomials"), 4)
    assert ok1 and not any(w1.values())
    ok2, _ = is_tree_grounded(fixture_monomials("b2.monomials"), 4)
    assert ok2
    ok3, w3 = is_tree_grounded(fixture_monomials("b3.monomials"), 4)
    assert not ok3
    assert w3["duplicated"] == ["((())())"]
    assert w3["missing"] == ["((()()))"]
    ok4, w4 = is_tree_grounded(fixture_monomials("b4.monomials"), 4)
    assert not ok4
    assert w4["duplicated"] == ["((())())"]
    assert w4["missing"] == ["(((())))"]


def test_ag_bases_are_tree_grounded():
    for n in range(1, 7):
        ok, witness = is_tree_grounded(ag_basis(n).monomials, n)
        assert ok, witness


def test_wrong_degree_rejected():
    with pytest.raises(DomainError):
        is_tree_grounded([parse_monomial("[g,g]")], 3)


def test_section_of_basis_round_trip_degree4():
    # the two degree-4 sections come from the two valid fixture families,
    # and the induced base change reproduces the grafting expansion
    for name in ("b1.monomials", "b2.monomials"):
        monos = fixture_monomials(name)
        sec = section_of_basis(monos, 4)
        beta = beta_matrix(sec, 4)
        expansion = expand_basis(
            ag_basis(4).__class__(4, tuple(monos))
        )
        lower = [lower_energy_term(m).serialize() for m in monos]
        for m, name_l in zip(monos, lower):
            assert beta.column(name_l) == expansion.column(m.serialize())


def test_section_of_basis_matches_expansion():
    for n in range(1, 6):
        basis = ag_basis(n)
        sec = section_of_basis(basis.monomials, n)
        beta = beta_matrix(sec, n)
        expansion = expand_basis(basis)
        for m in basis.monomials:
            key = lower_energy_term(m).serialize()
            assert beta.column(key) == expansion.column(m.serialize())


def test_section_of_basis_rejects_ungrounded():
    with pytest.raises(DomainError):
        section_of_basis(fixture_monomials("b3.monomials"), 4)


# ---------------------------------------------------------------------------
# several generators


def test_multigen_counts():
    two = GeneratorOrder(("a", "b"))
    assert len(ag_basis_multigen(2, two)) == 4
    assert len(ag_basis_multigen(3, two)) == 14
    assert len(ag_basis_multigen(3, GeneratorOrder(("g",)))) == 2
    for k in (1, 2, 3):
        order = GeneratorOrder(tuple(f"x{i}" for i in range(k)))
        assert len(ag_basis_multigen(3, order)) == k**3 + k**2 * (k + 1) // 2


@functools.lru_cache(maxsize=None)
def _ag_words_reference(n, alphabet):
    """The degree-n basis monomials built word by word: every word
    u1 u2 ... uk of lower-degree basis monomials, weakly increasing in the
    pool order (degree-major from the highest degree, each degree's list
    reversed) and of total degree n - 1, in lexicographic order of pool
    indices, applied right to left to each generator in turn."""
    if n == 1:
        return tuple(Generator(a) for a in alphabet)
    pool = []
    for j in range(n - 1, 0, -1):
        pool.extend(reversed(_ag_words_reference(j, alphabet)))
    words = []

    def extend(start, budget, chosen):
        if budget == 0:
            words.append(chosen)
            return
        for i in range(start, len(pool)):
            if pool[i].degree <= budget:
                extend(i, budget - pool[i].degree, chosen + (pool[i],))

    extend(0, n - 1, ())
    out = []
    for word in words:
        for a in alphabet:
            expr = Generator(a)
            for u in reversed(word):
                expr = Product(u, expr)
            out.append(expr)
    return tuple(out)


def test_ag_monomials_match_the_word_construction():
    cases = ((("g",), 8), (("a", "b"), 5), (("b", "a"), 5), (("a", "b", "c"), 5))
    for alphabet, top in cases:
        for n in range(1, top + 1):
            want = [m.serialize() for m in _ag_words_reference(n, alphabet)]
            got = ag_basis_multigen(n, GeneratorOrder(alphabet), cap=top)
            assert [m.serialize() for m in got] == want


def test_multigen_lower_terms_distinct():
    two = GeneratorOrder(("a", "b"))
    for n in (2, 3, 4):
        monos = ag_basis_multigen(n, two)
        lowers = [evaluate(m, "butcher", labeled=True).terms[0][0] for m in monos]
        assert len(set(lowers)) == len(lowers)
        assert all(t.degree == n for t in lowers)


def test_multigen_cap():
    with pytest.raises(DegreeCapError):
        ag_basis_multigen(6, GeneratorOrder(("a", "b")))


def test_multigen_rejected_by_single_gen_api():
    with pytest.raises(DomainError):
        ag_basis(3, GeneratorOrder(("a", "b")))


# ---------------------------------------------------------------------------
# loading


def test_load_monomials_comments_and_blanks():
    monos = load_monomials("# header\n[g,g]\n\n  [g,[g,g]]  # tail\n")
    assert [m.serialize() for m in monos] == ["[g,g]", "[g,[g,g]]"]
