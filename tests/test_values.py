"""The immutable value classes, the import cost and the determinant.

Every value class of the package is a slotted class on one frozen base:
equal fields make equal values with equal hashes, a value never equals an
instance of another class, assignment and deletion raise
``FrozenInstanceError``, and ``pickle`` and ``copy`` rebuild an equal value.
The representations are the ones the package printed when these classes
were dataclasses.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prelie
from prelie import (
    BinaryTree,
    CoeffMatrix,
    Generator,
    GeneratorOrder,
    MonomialBasis,
    Product,
    TreeSum,
    VertexOrder,
    ag_basis,
    graft,
    parse_planar,
    parse_tree,
    psi_matrix,
    vertex_order,
)
from prelie.monomials import parse_monomial
from prelie.trees import LEAF, FrozenInstanceError


def _samples():
    """(value, an equal value built separately, its repr) per class."""
    leaf = BinaryTree()
    return [
        (
            BinaryTree(LEAF, BinaryTree(LEAF, LEAF)),
            BinaryTree(leaf, BinaryTree(BinaryTree(), leaf)),
            "BinaryTree(left=BinaryTree(left=None, right=None), right=BinaryTree("
            "left=BinaryTree(left=None, right=None), right=BinaryTree(left=None, right=None)))",
        ),
        (
            psi_matrix(2),
            CoeffMatrix(degree=2, row_basis=("(())",), col_basis=("(())",), entries=((1,),)),
            "CoeffMatrix(degree=2, row_basis=('(())',), col_basis=('(())',), entries=((1,),))",
        ),
        (
            vertex_order(parse_planar("(())"), "<"),
            VertexOrder("<", frozenset({((), (0,))})),
            "VertexOrder(kind='<', pairs=frozenset({((), (0,))}))",
        ),
        (
            graft(parse_tree("()"), parse_tree("(())")),
            TreeSum("nonplanar", (("((()))", 1), ("(()())", 1))),
            "TreeSum(flavor='nonplanar', texts=(('((()))', 1), ('(()())', 1)))",
        ),
        (Generator("a"), Generator("a"), "Generator(name='a')"),
        (
            parse_monomial("[a,[b,a]]"),
            Product(Generator("a"), Product(Generator("b"), Generator("a"))),
            "Product(left=Generator(name='a'), right=Product(left=Generator(name='b'), "
            "right=Generator(name='a')))",
        ),
        (GeneratorOrder(("a", "b")), GeneratorOrder(("a", "b")), "GeneratorOrder(alphabet=('a', 'b'))"),
        (
            ag_basis(3),
            MonomialBasis(3, tuple(parse_monomial(m) for m in ("[[g,g],g]", "[g,[g,g]]"))),
            "MonomialBasis(degree=3, monomials=(Product(left=Product(left=Generator(name='g'), "
            "right=Generator(name='g')), right=Generator(name='g')), Product(left=Generator("
            "name='g'), right=Product(left=Generator(name='g'), right=Generator(name='g')))))",
        ),
    ]


VALUE_CLASSES = (
    BinaryTree, CoeffMatrix, VertexOrder, TreeSum, Generator, Product, GeneratorOrder, MonomialBasis
)


def test_samples_cover_every_value_class():
    assert tuple(type(value) for value, _, _ in _samples()) == VALUE_CLASSES


@pytest.mark.parametrize("i", range(len(VALUE_CLASSES)), ids=[c.__name__ for c in VALUE_CLASSES])
def test_equal_copies_are_equal_and_hash_equal(i):
    value, twin, _ = _samples()[i]
    assert value is not twin
    assert value == twin and twin == value and not value != twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1


def test_a_value_never_equals_another_class():
    samples = [value for value, _, _ in _samples()]
    for a in samples:
        # not even the tuple of its own fields
        assert a != tuple(getattr(a, f) for f in type(a)._fields)
        for b in samples:
            if type(a) is not type(b):
                assert a != b and not a == b
    assert Generator("g") != Product(Generator("g"), Generator("g"))
    # equal fields, different classes
    assert BinaryTree() != VertexOrder(None, None) and hash(BinaryTree()) == hash(VertexOrder(None, None))
    assert TreeSum("planar", ()) != TreeSum("nonplanar", ())


@pytest.mark.parametrize("i", range(len(VALUE_CLASSES)), ids=[c.__name__ for c in VALUE_CLASSES])
def test_repr_is_the_dataclass_repr(i):
    value, twin, want = _samples()[i]
    assert repr(value) == want
    assert repr(twin) == want


def test_tree_sum_repr_and_equality_ignore_built_terms():
    s = graft(parse_tree("()"), parse_tree("(())"))
    t = TreeSum(s.flavor, s.texts)
    assert [c for _, c in s.terms] == [1, 1]  # the trees of s are read, those of t are not
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
    assert s.terms == s.terms  # read again from the tables, not stored
    with pytest.raises(AttributeError):
        s.no_such_field


@pytest.mark.parametrize("i", range(len(VALUE_CLASSES)), ids=[c.__name__ for c in VALUE_CLASSES])
def test_values_are_frozen_and_have_no_dict(i):
    value, _, _ = _samples()[i]
    assert not hasattr(value, "__dict__")
    assert issubclass(FrozenInstanceError, AttributeError)
    for name in type(value)._fields + ("not_a_field",):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == _samples()[i][2]  # unchanged


@pytest.mark.parametrize("i", range(len(VALUE_CLASSES)), ids=[c.__name__ for c in VALUE_CLASSES])
def test_pickle_and_copy_round_trip(i):
    value, _, want = _samples()[i]
    for again in (
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)
        assert repr(again) == want


def test_constructors_still_validate():
    with pytest.raises(prelie.DomainError):
        BinaryTree(LEAF, None)
    with pytest.raises(prelie.DomainError):
        GeneratorOrder(("a", "a"))
    with pytest.raises(prelie.DomainError):
        GeneratorOrder(("A",))
    assert GeneratorOrder() == GeneratorOrder(("g",))
    assert Generator() == Generator("g")


# ---------------------------------------------------------------------------
# import cost


# Run in a fresh interpreter: the modules that importing prelie loads are
# those it adds to sys.modules.
_IMPORT_GUARD = """
import sys
before = set(sys.modules)
import prelie
loaded = set(sys.modules) - before
assert not loaded & {"dataclasses", "inspect", "fractions", "json"}, sorted(loaded)
import prelie.cli
loaded = set(sys.modules) - before
assert not loaded & {"dataclasses", "inspect", "fractions", "argparse", "gettext"}, sorted(loaded)
assert prelie.psi_matrix(5).determinant() == 1
m = prelie.CoeffMatrix(2, ("a", "b"), ("a", "b"), ((0, 1), (1, 0)))
assert m.determinant() == -1
assert prelie.cli.main(["compute", "psi", "--tree", "(()())", "--format", "json"]) == 0
assert prelie.cli.main(["enumerate", "planar", "--degree", "3"]) == 0
assert not {"argparse", "gettext"} & set(sys.modules)
sys.stdout.write("---\\n")
prelie.cli.main(["compute", "psi", "-h"])
"""


def test_import_loads_no_heavy_module():
    # Ordinary requests are parsed from the grammar table: neither argparse
    # nor gettext is loaded until a help line needs them.
    src = str(Path(prelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    answers, _, help_text = proc.stdout.partition("---\n")
    psi_json, *trees = answers.splitlines()
    terms = json.loads(psi_json)
    assert sorted((t["coeff"], json.dumps(t["tree"])) for t in terms) == sorted(
        (t["coeff"], json.dumps(t["tree"])) for t in prelie.psi(parse_planar("(()())")).to_json()
    )
    assert trees == ["((()))  energy=3", "(()())  energy=2", "count 2"]
    assert help_text.startswith("usage: prelie compute psi [-h] --tree TREE")


# ---------------------------------------------------------------------------
# determinant


def test_determinant_of_a_triangular_matrix_is_its_diagonal_product():
    m = psi_matrix(6)
    assert m.is_unipotent_upper_triangular()
    det = m.determinant()
    assert det == 1 and isinstance(det, Fraction)
    t = CoeffMatrix(3, ("a", "b", "c"), ("a", "b", "c"), ((2, 5, 7), (0, 3, 1), (0, 0, -4)))
    assert t.determinant() == -24 and isinstance(t.determinant(), Fraction)


def test_determinant_of_a_general_matrix_by_elimination():
    names = ("a", "b", "c")
    # expanded along the first row: 0*(1*2 - 0*0) - 2*(1*2 - 0*3) + 1*(1*0 - 1*3) = -7;
    # the zero corner needs a row swap
    m = CoeffMatrix(3, names, names, ((0, 2, 1), (1, 1, 0), (3, 0, 2)))
    assert not m.is_upper_triangular()
    assert m.determinant() == -7 and isinstance(m.determinant(), Fraction)
    # 2*4 - 1*3 = 5, through the fraction 3/2
    assert CoeffMatrix(2, names[:2], names[:2], ((2, 1), (3, 4))).determinant() == 5
    # lower triangular, not upper: still the diagonal product, by elimination
    assert CoeffMatrix(2, names[:2], names[:2], ((1, 0), (5, 2))).determinant() == 2
    assert CoeffMatrix(2, names[:2], names[:2], ((1, 2), (2, 4))).determinant() == 0
    with pytest.raises(ValueError):
        CoeffMatrix(2, names[:2], names, ((1, 0, 0), (0, 1, 0))).determinant()
