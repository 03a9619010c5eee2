import math
import os
import subprocess
import sys
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

import prelie

from prelie import (
    DegreeCapError,
    DomainError,
    Section,
    TreeSum,
    all_sections,
    alpha,
    alpha_matrix,
    beta_matrix,
    count_tilde_b,
    default_section,
    enumerate_nonplanar,
    enumerate_planar,
    forget_planarity,
    parse_planar,
    parse_tree,
    psi_bar,
    psi_tilde,
    symmetry_factor,
)
from prelie.products import NONPLANAR
from prelie.projection import default_embedding, planar_embeddings
from prelie.trees import PlanarTree, Tree, serial_key


def tree_sum(*pairs):
    return TreeSum.make(NONPLANAR, [(parse_tree(t), c) for t, c in pairs])


# ---------------------------------------------------------------------------
# projection and fibers


def test_forget_planarity_examples():
    assert forget_planarity(parse_planar("((())())")) == parse_tree("(()(()))")
    assert forget_planarity(parse_planar("(()(()))")) == parse_tree("(()(()))")


def reference_forget_planarity(sigma):
    return Tree(tuple(map(reference_forget_planarity, sigma.children)), sigma.label)


def test_forget_planarity_matches_recursive_definition():
    for n in range(1, 9):
        for sigma in enumerate_planar(n):
            want = reference_forget_planarity(sigma)
            assert forget_planarity(sigma) == want
            assert forget_planarity(sigma) == want  # read back from the cache
    labeled = parse_planar("a(b()c(d()))")
    assert forget_planarity(labeled) == reference_forget_planarity(labeled)


def test_forget_planarity_of_deep_trees_in_subprocess():
    # A planar tree 900 levels deep whose every vertex has a leaf left of
    # its deep child, canonicalized in a fresh process; the chain too.
    planar = canonical = "()"
    for _ in range(899):
        planar, canonical = f"((){planar})", f"({canonical}())"
    src = str(Path(prelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from prelie import forget_planarity, parse_planar\n"
        "for text in sys.stdin.read().split():\n"
        "    print(forget_planarity(parse_planar(text)).serialize())\n"
    )
    chain = "(" * 900 + ")" * 900
    proc = subprocess.run(
        [sys.executable, "-c", code], input=f"{planar}\n{chain}\n",
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{canonical}\n{chain}\n"


def test_fiber_sizes_degree4():
    sizes = [len(planar_embeddings(t)) for t in enumerate_nonplanar(4)]
    assert sorted(sizes) == [1, 1, 1, 2]
    assert sum(sizes) == len(enumerate_planar(4))


def test_fibers_partition_planar_trees():
    for n in range(1, 8):
        seen = []
        for t in enumerate_nonplanar(n):
            fiber = planar_embeddings(t)
            assert all(forget_planarity(sigma) == t for sigma in fiber)
            seen.extend(fiber)
        assert sorted(seen, key=id) and len(seen) == len(set(seen))
        assert set(seen) == set(enumerate_planar(n))


def reference_planar_embeddings(s, memo={}):
    """The fiber of ``s`` from every permutation of every choice of child
    embeddings, in descending serialization order."""
    if s not in memo:
        out = set()
        for picks in product(*map(reference_planar_embeddings, s.children)):
            for perm in set(permutations(picks)):
                out.add(PlanarTree(perm, s.label))
        memo[s] = tuple(sorted(out, key=lambda t: serial_key(t.serialize()), reverse=True))
    return memo[s]


def closed_form_fiber_size(s):
    """The multinomial over the classes of identical children of ``s``,
    times the product of the children's fiber sizes."""
    size = math.factorial(len(s.children))
    for child, k in Counter(s.children).items():
        size = size // math.factorial(k) * closed_form_fiber_size(child) ** k
    return size


def _labeled_trees(s, alphabet="ab"):
    """Every labeling of the non-planar tree ``s`` over ``alphabet``."""
    for label in alphabet:
        for kids in product(*(_labeled_trees(c, alphabet) for c in s.children)):
            yield Tree(kids, label)


def _star(k):
    return Tree((Tree(),) * k)


def wide_shapes(n):
    """Degree-n trees with long runs of identical children: the corolla,
    the brooms (a chain of 2 or 3 vertices whose last one holds the
    leaves), and a fork (two identical stars at the root, with a leaf
    beside them when n is even)."""
    m, r = divmod(n - 1, 2)
    fork = Tree((_star(m - 1),) * 2 + (Tree(),) * r)
    return [_star(n - 1), Tree((_star(n - 2),)), Tree((Tree((_star(n - 3),)),)), fork]


def test_fibers_match_the_permutations_reference():
    for n in range(1, 9):
        for t in enumerate_nonplanar(n):
            assert planar_embeddings(t) == reference_planar_embeddings(t), t
    for n in range(1, 6):
        for t in {u for v in enumerate_nonplanar(n) for u in _labeled_trees(v)}:
            assert planar_embeddings(t) == reference_planar_embeddings(t), t


def test_fiber_sizes_have_the_closed_form():
    for n in range(1, 10):
        for t in enumerate_nonplanar(n):
            assert len(planar_embeddings(t)) == closed_form_fiber_size(t), t
    for n in range(9, 17):
        for t in wide_shapes(n):
            fiber = planar_embeddings(t)
            assert len(fiber) == len(set(fiber)) == closed_form_fiber_size(t), t
            assert all(forget_planarity(sigma) is t for sigma in fiber)


@pytest.mark.parametrize("n", range(9, 17))
def test_bijection_count_on_wide_shapes(n):
    # The orbit count times the symmetry factor equals alpha times it.
    # Onto the planar corolla the bijections are the linear extensions of
    # the tree order, n! over the product of the subtree sizes.
    shapes = wide_shapes(n)
    corolla = default_embedding(shapes[0])
    for s in shapes:
        sym = symmetry_factor(s)
        for tau in map(default_embedding, shapes):
            assert count_tilde_b(s, tau, cap=n) == alpha(s, tau) * sym, (s, tau)
        hooks = math.prod(s.subtree(v).degree for v in s.vertices())
        assert count_tilde_b(s, corolla, cap=n) == math.factorial(n) // hooks, s
    assert count_tilde_b(shapes[0], corolla, cap=n) == math.factorial(n - 1)
    assert alpha(shapes[0], corolla) == 1


# ---------------------------------------------------------------------------
# projected coefficients


def test_psi_bar_example():
    assert psi_bar(parse_planar("(()())")) == tree_sum(("(()())", 1), ("((()))", 1))


def test_alpha_cherry_spot_values():
    s = parse_tree("(()())")
    tau = parse_planar("(()())")
    assert count_tilde_b(s, tau) == 2
    assert symmetry_factor(s) == 2
    assert alpha(s, tau) == 1


def test_alpha_symmetry_normalization():
    for n in range(1, 6):
        for s in enumerate_nonplanar(n):
            sym = symmetry_factor(s)
            for tau in enumerate_planar(n):
                assert alpha(s, tau) * sym == count_tilde_b(s, tau)


def test_alpha_degree_mismatch():
    with pytest.raises(DomainError):
        alpha(parse_tree("()"), parse_planar("(())"))
    with pytest.raises(DegreeCapError):
        count_tilde_b(enumerate_nonplanar(9, 12)[0], enumerate_planar(9, 12)[0])


def test_alpha_refuses_wrong_class_operands():
    s, tau = parse_tree("(()(()))"), parse_planar("((())())")
    alpha(s, tau)
    with pytest.raises(DomainError, match="expected a Tree, not a PlanarTree"):
        alpha(parse_planar("(()(()))"), tau)
    with pytest.raises(DomainError, match="expected a PlanarTree, not a Tree"):
        alpha(s, parse_tree("((())())"))


def test_count_tilde_b_refuses_wrong_class_operands():
    s, tau = parse_tree("(()(()))"), parse_planar("((())())")
    prelie.coeff_c_bijections(parse_planar("(()(()))"), tau)  # the planar domain's table
    with pytest.raises(DomainError, match="expected a Tree, not a PlanarTree"):
        count_tilde_b(parse_planar("(()(()))"), tau)
    with pytest.raises(DomainError, match="expected a PlanarTree, not a Tree"):
        count_tilde_b(s, parse_tree("((())())"))


def test_alpha_matrix_columns_match_psi_bar():
    for n in range(1, 6):
        m = alpha_matrix(n)
        rows = [parse_tree(r) for r in m.row_basis]
        for col_name in m.col_basis:
            image = psi_bar(parse_planar(col_name))
            assert m.column(col_name) == tuple(image.coefficient(s) for s in rows)


def test_alpha_column_sums_match_planar_column_sums():
    # projecting preserves total coefficient mass per column
    from prelie import psi_matrix

    for n in range(1, 9):
        assert alpha_matrix(n).column_sums() == psi_matrix(n).column_sums(), n


# ---------------------------------------------------------------------------
# sections


def test_default_section_examples():
    s = parse_tree("(()(()))")
    assert default_embedding(s).serialize() == "((())())"
    sec = default_section(4)
    assert sec(s).serialize() == "((())())"
    assert sec(parse_tree("(()()())")).serialize() == "(()()())"


def test_default_embedding_keeps_serialization():
    for n in range(1, 9):
        for t in enumerate_nonplanar(n):
            assert default_embedding(t).serialize() == t.serialize()


def test_section_round_trip_text():
    sec = default_section(3)
    text = sec.to_text()
    again = Section.from_text(text + "# trailing comment\n")
    assert dict(again.items()) == dict(sec.items())


def test_section_validation_errors():
    with pytest.raises(DomainError):
        Section({parse_tree("((()))"): parse_planar("(()())")})
    with pytest.raises(DomainError):
        Section.from_text("((())) -> ((()))\n")
    with pytest.raises(DomainError):
        default_section(3)(parse_tree("(()()())"))


def test_section_rejects_duplicate_lines():
    text = "(()(())) => (()(()))\n\n(()(())) => ((())())\n"
    with pytest.raises(DomainError, match=r"line 3.*line 1"):
        Section.from_text(text)


def test_all_sections_degree4():
    secs = list(all_sections(4))
    assert len(secs) == 2
    star = parse_tree("(()(()))")
    images = {sec(star).serialize() for sec in secs}
    assert images == {"((())())", "(()(()))"}


def test_psi_tilde_leading_term():
    for n in range(1, 6):
        sec = default_section(n)
        for t in enumerate_nonplanar(n):
            image = psi_tilde(sec, t)
            assert image.coefficient(t) == 1


# ---------------------------------------------------------------------------
# base-change matrices


def test_beta_matrix_degree3():
    m = beta_matrix(default_section(3), 3)
    assert m.row_basis == ("((()))", "(()())")
    assert m.entries == ((1, 1), (0, 1))


def test_beta_matrix_degree4_default():
    m = beta_matrix(default_section(4), 4)
    assert m.row_basis == ("(((())))", "((()()))", "((())())", "(()()())")
    assert m.entries == (
        (1, 1, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 3),
        (0, 0, 0, 1),
    )


def test_beta_matrix_unipotent_for_every_section():
    for n in range(1, 6):
        for sec in all_sections(n):
            m = beta_matrix(sec, n)
            assert m.is_unipotent_upper_triangular()
            assert m.determinant() == 1


def test_beta_matrix_coverage_error():
    with pytest.raises(DomainError):
        beta_matrix(default_section(3), 4)
