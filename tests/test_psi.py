import pytest

from prelie import (
    DegreeCapError,
    DomainError,
    TreeSum,
    coeff_c_bijections,
    coeff_c_recursive,
    decompose,
    enumerate_planar,
    n_statistic,
    n_statistic_total,
    parse_planar,
    potential_energy,
    psi,
    psi_inverse,
    psi_matrix,
    verify_a088716,
)
from prelie.products import PLANAR


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


def test_dual_method_agreement():
    for n in range(1, 6):
        basis = enumerate_planar(n)
        for sigma in basis:
            for tau in basis:
                assert coeff_c_recursive(sigma, tau) == coeff_c_bijections(sigma, tau)


# ---------------------------------------------------------------------------
# matrices


def test_psi_matrix_degree3():
    m = psi_matrix(3)
    assert m.entries == ((1, 1), (0, 1))
    assert m.row_basis == ("((()))", "(()())")


def test_psi_matrix_degree4_statistics():
    m = psi_matrix(4)
    assert m.entry_sum() == 14
    assert m.is_unipotent_upper_triangular()
    assert m.entry_multiset()[2] == 1


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
