import random
import sys
from itertools import product

import pytest

import prelie
from prelie import (
    DegreeCapError,
    DomainError,
    PlanarTree,
    TreeSum,
    alpha,
    coeff_c_bijections,
    coeff_c_recursive,
    count_tilde_b,
    decompose,
    enumerate_nonplanar,
    enumerate_planar,
    forget_planarity,
    n_statistic,
    n_statistic_total,
    parse_planar,
    parse_tree,
    potential_energy,
    psi,
    psi_bar,
    psi_inverse,
    psi_matrix,
    symmetry_factor,
    verify_a088716,
)
from prelie import matrix, trees
from prelie.orders import left_refined_pairs, total_order_list, tree_less
from prelie.products import PLANAR
from prelie.psi import _domain_table, _total_order_table


def planar_sum(*pairs):
    return TreeSum.make(PLANAR, [(parse_planar(t), c) for t, c in pairs])


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_examples():
    assert decompose(parse_planar("(())")) == (parse_planar("()"), parse_planar("()"))
    assert decompose(parse_planar("(()()())")) == (
        parse_planar("()"),
        parse_planar("(()())"),
    )
    assert decompose(parse_planar("((())())")) == (
        parse_planar("(())"),
        parse_planar("(())"),
    )


def test_decompose_inverts_left_butcher():
    from prelie import left_butcher

    for n in range(2, 7):
        for sigma in enumerate_planar(n):
            branch, trunk = decompose(sigma)
            assert left_butcher(branch, trunk) == sigma


def test_decompose_single_vertex_fails():
    with pytest.raises(DomainError):
        decompose(parse_planar("()"))


# ---------------------------------------------------------------------------
# the isomorphism


def test_psi_examples():
    assert psi(parse_planar("()")) == planar_sum(("()", 1))
    assert psi(parse_planar("(()())")) == planar_sum(("(()())", 1), ("((()))", 1))
    assert psi(parse_planar("(()()())")) == planar_sum(
        ("(()()())", 1),
        ("((())())", 1),
        ("(()(()))", 2),
        ("((()()))", 1),
        ("(((())))", 1),
    )


def test_psi_triangular_in_energy():
    for n in range(1, 8):
        for sigma in enumerate_planar(n):
            image = psi(sigma)
            assert image.coefficient(sigma) == 1
            base = potential_energy(sigma)
            for term, _ in image.terms:
                if term != sigma:
                    assert potential_energy(term) > base


def test_psi_is_magmatic_homomorphism():
    from prelie import bilinear_extend, left_butcher

    for n1 in range(1, 5):
        for n2 in range(1, 5):
            if n1 + n2 > 8:
                continue
            for s1 in enumerate_planar(n1):
                for s2 in enumerate_planar(n2):
                    assert psi(left_butcher(s1, s2)) == bilinear_extend(
                        "left-graft", psi(s1), psi(s2)
                    )


def test_memoized_entry_points_report_hits_and_misses():
    # perfbench's tracer reads cache_info() of these three functions, looked
    # up by module and name, and turns its hits and misses into hit ratios
    import importlib

    tau, s = parse_planar("ci1(ci2()ci3(ci4()))"), parse_tree("ci5(ci6()ci6())")
    calls = (("psi", "psi", (tau,)), ("psi", "coeff_c_recursive", (tau, tau)),
             ("projection", "planar_embeddings", (s,)))
    for module, name, args in calls:
        fn = getattr(importlib.import_module(f"prelie.{module}"), name)
        before = fn.cache_info()
        fn(*args)
        middle = fn.cache_info()
        fn(*args)
        after = fn.cache_info()
        assert middle.misses > before.misses, name
        assert middle.currsize > before.currsize, name
        assert after.hits > middle.hits and after.misses == middle.misses, name
        assert after.currsize == middle.currsize, name
        prelie.clear_caches()
        assert fn.cache_info() == (0, 0, None, 0), name


def test_oracle_pairs_through_degree_6_keep_the_memo_counts():
    # perfbench's tracer turns these counts into the oracle's hit ratios:
    # every planar pair and every (s, tau) pair through degree 6, both
    # methods each, from cleared memos.  Each cell misses once, so the
    # counts do not depend on the order of the pairs.
    from prelie.projection import planar_embeddings

    prelie.clear_caches()
    for n in range(1, 7):
        planar, nonplanar = enumerate_planar(n), enumerate_nonplanar(n)
        for sigma, tau in product(planar, planar):
            coeff_c_recursive(sigma, tau)
            coeff_c_bijections(sigma, tau)
        for s, tau in product(nonplanar, planar):
            alpha(s, tau)
            count_tilde_b(s, tau)
    assert coeff_c_recursive.cache_info() == (4896, 1991, None, 1991)
    assert planar_embeddings.cache_info() == (1022, 37, None, 37)


def test_psi_inverse_examples():
    assert psi_inverse(parse_planar("()")) == planar_sum(("()", 1))
    assert psi_inverse(parse_planar("(()())")) == planar_sum(
        ("(()())", 1), ("((()))", -1)
    )


def test_psi_inverse_composes_to_identity():
    for n in range(1, 8):
        for sigma in enumerate_planar(n):
            total = TreeSum.zero(PLANAR)
            for tau, c in psi_inverse(sigma).terms:
                total = total + psi(tau).scale(c)
            assert total == TreeSum.single(sigma)


def test_psi_inverse_labeled_trees():
    assert psi_inverse(parse_planar("a(b())")) == planar_sum(("a(b())", 1))
    assert psi_inverse(parse_planar("a(b()c())")) == planar_sum(
        ("a(b()c())", 1), ("a(c(b()))", -1)
    )
    for text in ("a(b())", "a(b()c())", "r(x(y())z())", "a(b(c())d(e()))"):
        sigma = parse_planar(text)
        composed = TreeSum.make(
            PLANAR,
            [
                (rho, c * d)
                for tau, c in psi_inverse(sigma).terms
                for rho, d in psi(tau).terms
            ],
        )
        assert composed == TreeSum.single(sigma)


# ---------------------------------------------------------------------------
# coefficients, two ways


def test_coeff_diagonal_and_zero():
    for n in range(1, 7):
        for sigma in enumerate_planar(n):
            assert coeff_c_recursive(sigma, sigma) == 1
    assert coeff_c_recursive(parse_planar("(()()())"), parse_planar("(((())))")) == 0


def test_coeff_energy_vanishing():
    # no coefficient below the energy of the argument
    for n in range(1, 7):
        for tau in enumerate_planar(n):
            for sigma in enumerate_planar(n):
                if potential_energy(sigma) < potential_energy(tau):
                    assert coeff_c_recursive(sigma, tau) == 0


def test_coeff_paper_value():
    sigma = parse_planar("(()(()))")
    tau = parse_planar("(()()())")
    assert coeff_c_recursive(sigma, tau) == 2
    assert coeff_c_bijections(sigma, tau) == 2


def test_bijection_count_errors():
    with pytest.raises(DomainError):
        coeff_c_bijections(parse_planar("()"), parse_planar("(())"))
    with pytest.raises(DegreeCapError):
        big = enumerate_planar(5)[0]
        coeff_c_bijections(big, big, cap=4)


def test_coeff_c_recursive_refuses_a_tree_operand():
    # each operand is checked where its table is first built, so a tree of
    # the wrong class is refused whether or not the other one is memoized
    sigma, tau = parse_planar("(()(()))"), parse_planar("((())())")
    coeff_c_recursive(sigma, tau)
    for args in ((parse_tree("(()(()))"), tau), (sigma, parse_tree("((())())")),
                 (parse_tree("()"), parse_planar("()")), (parse_planar("()"), parse_tree("()"))):
        with pytest.raises(DomainError, match="expected a PlanarTree, not a Tree"):
            coeff_c_recursive(*args)


def test_refused_coefficient_calls_leave_no_memo_behind():
    # a refused call counts one miss, as an lru_cache would, but adds no
    # tau dict to the memo, nor the dicts of a tau's parts
    from prelie.psi import _coeffs

    prelie.clear_caches()
    s, star = parse_tree("(()())"), parse_planar("(()())")
    refused = [lambda: alpha(s, parse_tree(t)) for t in ("(()())", "((()))", "(()())")]
    refused += [
        lambda: coeff_c_recursive(star, parse_tree("(()())")),
        lambda: coeff_c_recursive(parse_tree("(()())"), star),
        lambda: coeff_c_recursive(parse_tree("()"), parse_planar("()")),
    ]
    for call in refused:
        with pytest.raises(DomainError, match="expected a PlanarTree, not a Tree"):
            call()
    assert len(_coeffs) == 0
    assert coeff_c_recursive.cache_info() == (0, 6, None, 0)
    # an accepted call then fills the memo as from cold: the cell of the
    # star and of its parts () and (()), the last reading () twice; a
    # repeat is a hit
    assert alpha(s, star) == coeff_c_recursive(star, star) == 1
    assert coeff_c_recursive.cache_info() == (3, 9, None, 3)
    assert len(_coeffs) == 3


def test_coeff_c_bijections_refuses_a_tree_operand():
    sigma, tau = parse_planar("(()(()))"), parse_planar("((())())")
    count_tilde_b(parse_tree("(()(()))"), tau)  # the same texts, counted as a Tree domain
    for args in ((parse_tree("(()(()))"), tau), (sigma, parse_tree("((())())"))):
        with pytest.raises(DomainError, match="expected a PlanarTree, not a Tree"):
            coeff_c_bijections(*args)


def test_dual_method_agreement():
    for n in range(1, 8):
        basis = enumerate_planar(n)
        for sigma in basis:
            for tau in basis:
                assert coeff_c_recursive(sigma, tau) == coeff_c_bijections(sigma, tau)
        for s in enumerate_nonplanar(n):
            sym = symmetry_factor(s)
            for tau in basis:
                assert alpha(s, tau) * sym == count_tilde_b(s, tau), (s, tau)


def _masks(verts, related):
    """Per vertex v of ``verts``, the bitmask of the w with related(v, w)."""
    return tuple(
        sum(1 << i for i, w in enumerate(verts) if related(v, w)) for v in verts
    )


def _covers(verts, less):
    """The Hasse diagram of the strict order ``less`` on ``verts``: per
    vertex v, the bitmask of the w that cover v."""
    return _masks(
        verts,
        lambda v, w: less(v, w) and not any(less(v, u) and less(u, w) for u in verts),
    )


def _refined_less(t):
    refined = left_refined_pairs(t)
    return lambda v, w: (v, w) in refined


def _twin_chained_less(s):
    """The tree order of ``s`` refined by chaining twins: v comes before w
    when w is a strict descendant of v, or lies in the subtree of a strict
    left sibling of v whose subtree has v's text."""
    text = {v: s.subtree(v).serialize() for v in s.vertices()}

    def less(v, w):
        if tree_less(v, w):
            return True
        k = len(v) - 1  # v is child v[k] of the vertex v[:k]
        if k < 0 or len(w) <= k or w[:k] != v[:k] or w[k] >= v[k]:
            return False
        return text[w[: k + 1]] == text[v]

    return less


def test_bijection_tables_match_the_vertex_orders():
    # The count's per-tree masks, built in one walk, against the pair
    # relations of prelie.orders: a vertex unlocks the vertices that cover
    # it, and each non-root vertex is unlocked by exactly one vertex.  On a
    # non-planar tree the order is the tree order with twins chained, and
    # the table's automorphism count is the symmetry factor.
    for n in range(1, 9):
        for t in enumerate_planar(n):
            verts = t.vertices()
            unlock, descendants = _domain_table(t)[:2]
            assert unlock == _covers(verts, _refined_less(t))
            assert descendants == _masks(verts, tree_less)
            assert sorted(i for u in unlock for i in range(n) if u >> i & 1) == list(range(1, n))
            listing = total_order_list(t)
            rank = {w: k for k, w in enumerate(listing)}
            parents = tuple(rank[w[:-1]] if w else -1 for w in listing)
            keys = tuple((None, t.subtree(w).degree - 1) for w in listing)
            assert _total_order_table(t)[:2] == (parents, keys)
            assert _domain_table(t)[4] == 1
        for s in enumerate_nonplanar(n):
            verts = s.vertices()
            unlock, descendants = _domain_table(s)[:2]
            assert unlock == _covers(verts, _twin_chained_less(s))
            assert descendants == _masks(verts, tree_less)
            assert sorted(i for u in unlock for i in range(n) if u >> i & 1) == list(range(1, n))
            assert _domain_table(s)[4] == symmetry_factor(s)
    for n in range(1, 6):
        for s in {t for u in enumerate_nonplanar(n) for t in _labeled(u)}:
            assert _domain_table(s)[0] == _covers(s.vertices(), _twin_chained_less(s)), s
            assert _domain_table(s)[4] == symmetry_factor(s), s


def reference_count_bijections(pred, table, tau):
    """The bijection count without the descendant-count test before the
    search, enumerating injections and dropping a candidate with an unplaced
    predecessor: ``pred`` holds, per domain vertex, the bitmask of all its
    predecessors, built from prelie.orders rather than taken from the
    table under test."""
    descendants, masks = table[1:3]
    parents, keys = _total_order_table(tau)[:2]
    try:
        allowed = list(map(masks.__getitem__, keys))
    except KeyError:  # a position no domain vertex may fill
        return 0
    last = len(keys) - 1
    if not last:
        return 1
    image = [0] * len(keys)  # position in tau's listing -> domain vertex
    free = [0] * len(keys)  # per position: the candidates not yet tried
    free[1] = descendants[0] & allowed[1]
    used = 1
    count = 0
    k = 1
    while k:
        f = free[k]
        if not f:
            k -= 1
            used ^= 1 << image[k]
            continue
        if k == last:
            count += 1
            free[k] = 0
            continue
        bit = f & -f
        free[k] = f ^ bit
        i = bit.bit_length() - 1
        if pred[i] & ~used:
            continue
        image[k] = i
        used |= bit
        k += 1
        free[k] = descendants[image[parents[k]]] & allowed[k] & ~used
    return count


def _predecessors(tree, less):
    """Per vertex of ``tree``, the bitmask of its predecessors under ``less``."""
    verts = tree.vertices()
    return _masks(verts, lambda v, u: less(u, v))


def _labeled(tree, alphabet="ab"):
    """Every labeling of ``tree`` over ``alphabet``, as trees of its class."""
    for label in alphabet:
        for kids in product(*(_labeled(c, alphabet) for c in tree.children)):
            yield type(tree)(kids, label)


def _descending_counts(tree):
    return sorted((tree.subtree(v).degree - 1 for v in tree.vertices()), reverse=True)


def _packed_test_rejects(table, tau):
    """The count's test before the search, on the packed fields."""
    tau_counts, guards = _total_order_table(tau)[2:]
    return (table[3] | guards) - tau_counts & guards != guards


def test_descendant_count_rejection_matches_reference_count():
    rejected = 0
    for n in range(1, 8):
        planar, nonplanar = enumerate_planar(n), enumerate_nonplanar(n)
        domains = [(sigma, _domain_table(sigma), _predecessors(sigma, _refined_less(sigma)))
                   for sigma in planar]
        domains += [(s, _domain_table(s), _predecessors(s, tree_less)) for s in nonplanar]
        for tau in planar:
            tau_counts = _descending_counts(tau)
            for tree, table, pred in domains:
                want = reference_count_bijections(pred, table, tau)
                if isinstance(tree, PlanarTree):
                    assert coeff_c_bijections(tree, tau) == want
                else:
                    assert count_tilde_b(tree, tau) == want
                dominated = any(map(int.__lt__, _descending_counts(tree), tau_counts))
                assert _packed_test_rejects(table, tau) == dominated
                rejected += dominated
    assert rejected == 14742
    for n in range(1, 5):
        planar = [t for u in enumerate_planar(n) for t in _labeled(u)]
        nonplanar = [t for u in enumerate_nonplanar(n) for t in _labeled(u)]
        for sigma in planar:
            table, pred = _domain_table(sigma), _predecessors(sigma, _refined_less(sigma))
            for tau in planar:
                assert coeff_c_bijections(sigma, tau) == reference_count_bijections(pred, table, tau)
        for s in nonplanar:
            table, pred = _domain_table(s), _predecessors(s, tree_less)
            for tau in planar:
                assert count_tilde_b(s, tau) == reference_count_bijections(pred, table, tau)


def _fields(packed, n):
    """The n fields of a packed descendant count, field m first, and the
    bits above them."""
    width = n.bit_length() + 1
    mask = (1 << width) - 1
    return [packed >> (m * width) & mask for m in range(n)], packed >> (n * width)


def test_domain_and_listing_tables_hold_descending_descendant_counts():
    for n in range(1, 9):
        width = n.bit_length() + 1
        trees = [(t, _domain_table(t)[3]) for t in enumerate_planar(n)]
        trees += [(s, _domain_table(s)[3]) for s in enumerate_nonplanar(n)]
        for t, packed in trees:
            sizes = [t.subtree(v).degree - 1 for v in t.vertices()]
            want = [sum(1 for d in sizes if d >= m) for m in range(n)]
            assert _fields(packed, n) == (want, 0)
            if isinstance(t, PlanarTree):
                tau_counts, guards = _total_order_table(t)[2:]
                assert tau_counts == packed
                assert _fields(guards, n) == ([1 << (width - 1)] * n, 0)


def test_bijection_count_where_the_field_width_grows():
    # Field 0 of the packed counts holds the degree; at 16 and 32 it needs
    # one more bit than at the degree before.
    for n in (15, 16, 31, 32):
        chain = parse_planar("(" * n + ")" * n)
        corolla = PlanarTree((PlanarTree(),) * (n - 1))
        for sigma, tau in ((chain, chain), (corolla, corolla), (chain, corolla), (corolla, chain)):
            want = coeff_c_recursive(sigma, tau)
            assert coeff_c_bijections(sigma, tau, cap=n) == want, (n, sigma, tau)
        assert coeff_c_bijections(chain, chain, cap=n) == 1


@pytest.mark.parametrize("n", [9, 10])
def test_dual_methods_agree_with_psi_above_the_cap(n):
    # Seeded pairs above the brute-force cap: half of the sigmas are drawn
    # from the support of psi(tau), so that nonzero entries are checked too.
    rng = random.Random(n)
    basis = enumerate_planar(n)
    for k in range(40):
        tau = rng.choice(basis)
        image = psi(tau)
        sigma = rng.choice(image.terms)[0] if k % 2 else rng.choice(basis)
        want = image.coefficient(sigma)
        assert coeff_c_recursive(sigma, tau) == want, (sigma, tau)
        assert coeff_c_bijections(sigma, tau, cap=10) == want, (sigma, tau)


def test_labeled_coefficients_vanish():
    # psi(a(c()b())) = a(c()b()) + a(b(c())): the sigma below has the labels
    # of the first term in the order of neither.
    sigma, tau = parse_planar("a(b()c())"), parse_planar("a(c()b())")
    assert psi(tau).coefficient(sigma) == 0
    assert coeff_c_recursive(sigma, tau) == coeff_c_bijections(sigma, tau) == 0
    sigma, tau = parse_planar("a(())"), parse_planar("(())")
    assert coeff_c_recursive(sigma, tau) == coeff_c_bijections(sigma, tau) == 0
    s, tau = parse_tree("(())"), parse_planar("a(())")
    assert alpha(s, tau) == count_tilde_b(s, tau) == 0


def _labelings(tree, alphabet):
    """Every way to put a label of ``alphabet`` on each vertex of ``tree``."""
    for label in alphabet:
        for kids in product(*(_labelings(c, alphabet) for c in tree.children)):
            yield PlanarTree(kids, label)


def test_labeled_dual_method_agreement():
    # Over the alphabet {a, b}: both methods agree with the labeled psi on
    # every planar pair, and alpha with the projected image and the
    # normalized bijection count on every (non-planar, planar) pair.
    for n in range(1, 5):
        planar = [t for u in enumerate_planar(n) for t in _labelings(u, "ab")]
        nonplanar = sorted({forget_planarity(t) for t in planar}, key=str)
        for tau in planar:
            image = psi(tau)
            for sigma in planar:
                want = image.coefficient(sigma)
                assert coeff_c_recursive(sigma, tau) == want, (sigma, tau)
                assert coeff_c_bijections(sigma, tau) == want, (sigma, tau)
            projected = psi_bar(tau)
            for s in nonplanar:
                want = projected.coefficient(s)
                assert alpha(s, tau) == want, (s, tau)
                assert count_tilde_b(s, tau) == want * symmetry_factor(s), (s, tau)


# ---------------------------------------------------------------------------
# matrices


def test_psi_matrix_degree3():
    m = psi_matrix(3)
    assert m.entries == ((1, 1), (0, 1))
    assert m.row_basis == ("((()))", "(()())")


def test_dense_matrix_above_the_cell_budget_is_refused_before_any_image(monkeypatch):
    def no_work(*args):
        raise AssertionError("an image was computed above the cell budget")

    monkeypatch.setattr(sys.modules["prelie.psi"], "_psi", no_work)
    monkeypatch.setattr(sys.modules["prelie.projection"], "_psi_bar", no_work)
    monkeypatch.setattr(sys.modules["prelie.projection"], "_split", no_work)
    monkeypatch.setattr(sys.modules["prelie.projection"], "_graft_sum_texts", no_work)
    # the shapes of psi_matrix(11) and alpha_matrix(11), from the closed-form
    # basis sizes that the command line checks before it builds a matrix
    planar, nonplanar = trees._planar_count(11), trees._nonplanar_count(11)
    with pytest.raises(DegreeCapError, match="16796 x 16796 matrix exceeds 24000000 cells"):
        matrix._check_dense(11, planar, planar)
    with pytest.raises(DegreeCapError, match="1842 x 16796 matrix"):
        matrix._check_dense(11, nonplanar, planar)
    # the budget admits psi_matrix(10) and the degree-12 AG expansion and beta
    assert 4862 ** 2 <= matrix.MAX_DENSE_CELLS < 1842 * 16796
    assert 4766 ** 2 <= matrix.MAX_DENSE_CELLS


def test_dense_matrix_above_the_cell_budget_is_refused_before_any_tree(monkeypatch):
    def no_trees(cls, n):
        raise AssertionError(f"degree-{n} trees were enumerated above the cell budget")

    monkeypatch.setattr(trees, "_basis", no_trees)
    planar, nonplanar = trees._planar_count(13), trees._nonplanar_count(13)
    with pytest.raises(DegreeCapError, match="degree 13: a dense 208012 x 208012 matrix"):
        matrix._check_dense(13, planar, planar)
    with pytest.raises(DegreeCapError, match="degree 13: a dense 12486 x 208012 matrix"):
        matrix._check_dense(13, nonplanar, planar)
    with pytest.raises(DegreeCapError, match="degree 13: a dense 12486 x 12486 matrix"):
        matrix._check_dense(13, nonplanar, nonplanar)


def test_dense_matrix_cell_budget_is_inclusive(monkeypatch):
    m = psi_matrix(4)
    monkeypatch.setattr(matrix, "MAX_DENSE_CELLS", 25)
    assert len(m.entries) == 5 and m.shape == (5, 5)
    monkeypatch.setattr(matrix, "MAX_DENSE_CELLS", 24)
    with pytest.raises(DegreeCapError, match="5 x 5 matrix exceeds 24 cells"):
        m.entries


def test_only_the_dense_views_of_a_matrix_have_a_cell_budget(monkeypatch):
    monkeypatch.setattr(matrix, "MAX_DENSE_CELLS", 24)
    m = psi_matrix(4)
    # the builder and the views read straight from the columns have no budget
    assert m.shape == (5, 5) and sum(m.column_sums()) == 14
    assert m.is_unipotent_upper_triangular() and m.determinant() == 1
    # columns reversed: not triangular, so the determinant eliminates densely
    flipped = matrix.CoeffMatrix(4, m.row_basis, m.col_basis[::-1], m.columns[::-1])
    for view in (lambda: m.entries, m.to_csv, m.to_json, m.to_json_str, flipped.determinant):
        with pytest.raises(DegreeCapError, match="^degree 4: a dense 5 x 5 matrix exceeds 24 cells$"):
            view()
    monkeypatch.setattr(matrix, "MAX_DENSE_CELLS", 25)
    assert flipped.determinant() == 1


def test_psi_matrix_degree4_statistics():
    m = psi_matrix(4)
    assert m.entry_sum() == 14
    assert m.is_unipotent_upper_triangular()
    assert m.entry_multiset()[2] == 1


def test_matrix_views_count_zeros_and_reject_unknown_texts():
    # zeros are counted only when there are zero cells
    assert psi_matrix(1).entry_multiset() == {1: 1}
    m = psi_matrix(4)
    assert m.entry_multiset() == {1: 12, 0: 12, 2: 1}
    first, last = m.row_basis[0], m.row_basis[-1]
    assert m.entry(first, last) == 1 and m.entry(last, first) == 0
    with pytest.raises(ValueError):
        m.entry("(()()()())", last)
    with pytest.raises(ValueError):
        m.entry(first, "(()()()())")


def test_psi_matrix_degree4_published_entries():
    # identity basis permutation: see tests/fixtures/m4_basis_permutation.md
    m = psi_matrix(4)
    assert m.entries == (
        (1, 1, 1, 1, 1),
        (0, 1, 0, 1, 1),
        (0, 0, 1, 0, 1),
        (0, 0, 0, 1, 2),
        (0, 0, 0, 0, 1),
    )


def test_psi_matrix_entry_sums():
    for n, expected in [(3, 3), (4, 14), (5, 85)]:
        assert psi_matrix(n).entry_sum() == expected
    for n in range(1, 8):
        assert psi_matrix(n).entry_sum() == n_statistic_total(n)


def test_psi_matrix_unipotent_integer_inverse():
    for n in range(1, 8):
        m = psi_matrix(n)
        assert m.is_unipotent_upper_triangular()
        assert m.determinant() == 1
        # the cached inverse columns are integer by construction; the
        # composition check above exercises them


# ---------------------------------------------------------------------------
# counting statistic and the sequence


def test_n_statistic_examples():
    assert n_statistic(parse_planar("()")) == 1
    assert n_statistic(parse_planar("(()()())")) == 6


def test_n_statistic_matches_psi_term_count():
    for n in range(1, 7):
        for sigma in enumerate_planar(n):
            assert n_statistic(sigma) == psi(sigma).coefficient_sum()


def test_sequence_totals():
    assert [n_statistic_total(n) for n in range(1, 6)] == [1, 1, 3, 14, 85]


def test_verify_a088716():
    report = verify_a088716(8)
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert "totals-match-recursion" in names
    assert "ode-residual-through-order-6" in names


def test_verify_a088716_cap():
    with pytest.raises(DegreeCapError):
        verify_a088716(99)
