import copy
import json
import pickle
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from prelie import (
    DegreeCapError,
    DomainError,
    PlanarTree,
    Tree,
    TreeSum,
    enumerate_binary,
    enumerate_nonplanar,
    enumerate_planar,
    forget_planarity,
    parse_planar,
    parse_tree,
    potential_energy,
    symmetry_factor,
    vertex_order,
)
from prelie.orders import left_refined_pairs
from prelie.projection import planar_embeddings
from prelie.trees import (
    _TOKEN_RE,
    _nonplanar_count,
    _planar_count,
    _planar_of_text,
    _subtree_end,
    _tree_of_text,
    canonical_key,
    serial_key,
)


def catalan_oracle(n):
    """Independent Catalan numbers via the convolution recurrence."""
    cat = [1]
    for m in range(n):
        cat.append(sum(cat[i] * cat[m - i] for i in range(m + 1)))
    return cat[n]


def automorphism_oracle(s: Tree) -> int:
    """Brute-force count of root-preserving structure automorphisms."""
    from itertools import permutations

    verts = s.vertices()
    parent = {v: v[:-1] for v in verts if v}
    count = 0
    for perm in permutations(verts):
        image = dict(zip(verts, perm))
        if image[()] != ():
            continue
        if any(s.subtree(v).label != s.subtree(image[v]).label for v in verts):
            continue
        if all(image[parent[v]] == image[v][:-1] for v in verts if v):
            count += 1
    return count


def labelings(tree, alphabet):
    """Every way to put a label of ``alphabet`` on each vertex of ``tree``,
    as trees of its class."""
    for label in alphabet:
        for kids in iproduct(*(labelings(c, alphabet) for c in tree.children)):
            yield type(tree)(kids, label)


# ---------------------------------------------------------------------------
# enumeration


def test_planar_count_is_catalan():
    for n in range(1, 9):
        assert len(enumerate_planar(n)) == catalan_oracle(n - 1)


def test_planar_small_listings():
    assert [t.serialize() for t in enumerate_planar(1)] == ["()"]
    assert [t.serialize() for t in enumerate_planar(3)] == ["((()))", "(()())"]
    assert len(enumerate_planar(4)) == 5
    assert len(enumerate_planar(6)) == 42


def test_planar_enumeration_order():
    for n in range(1, 7):
        keys = [canonical_key(t) for t in enumerate_planar(n)]
        assert keys == sorted(keys, reverse=True)
        energies = [potential_energy(t) for t in enumerate_planar(n)]
        assert energies == sorted(energies, reverse=True)


def test_nonplanar_counts():
    assert [t.serialize() for t in enumerate_nonplanar(1)] == ["()"]
    assert len(enumerate_nonplanar(4)) == 4
    assert len(enumerate_nonplanar(7)) == 48


def test_nonplanar_matches_planar_dedupe_oracle():
    for n in range(1, 8):
        projected = {forget_planarity(s) for s in enumerate_planar(n)}
        assert projected == set(enumerate_nonplanar(n))


def test_enumeration_domain_errors():
    with pytest.raises(DomainError):
        enumerate_planar(0)
    with pytest.raises(DegreeCapError):
        enumerate_planar(13)
    with pytest.raises(DegreeCapError):
        enumerate_nonplanar(99)


def test_enumerations_return_fresh_lists():
    for enumerate_trees in (enumerate_planar, enumerate_nonplanar):
        first = enumerate_trees(5)
        first.reverse()
        assert enumerate_trees(5) == first[::-1]
        assert enumerate_trees(5) is not enumerate_trees(5)


def test_closed_form_basis_sizes_match_the_enumerations():
    for n in range(1, 11):
        assert _planar_count(n) == len(enumerate_planar(n)) == catalan_oracle(n - 1)
        assert _nonplanar_count(n) == len(enumerate_nonplanar(n))
    # Catalan(12) and A000081(13), the sizes of the degree-13 bases
    assert (_planar_count(13), _nonplanar_count(13)) == (208012, 12486)


def test_known_texts_parse_to_their_trees():
    planar = parse_planar("(()(()))")
    assert parse_planar("(()(()))") is planar is parse_planar("( () (()) )")
    canonical = parse_tree("((())())")
    assert parse_tree("(()(()))") is canonical is parse_tree("(()(()))")
    with pytest.raises(DomainError):
        parse_planar("(()(())")


def test_binary_enumeration():
    assert len(enumerate_binary(1)) == 1
    for n in range(1, 8):
        assert len(enumerate_binary(n)) == catalan_oracle(n - 1)


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_exhaustive():
    for n in range(1, 7):
        for t in enumerate_planar(n):
            assert parse_planar(t.serialize()) == t
        for s in enumerate_nonplanar(n):
            assert parse_tree(s.serialize()) == s


def test_json_round_trip():
    for t in enumerate_planar(5):
        assert PlanarTree.from_json(json.loads(json.dumps(t.to_json()))) == t
    for s in enumerate_nonplanar(5):
        assert Tree.from_json(json.loads(json.dumps(s.to_json()))) == s


def test_labeled_trees():
    t = parse_planar("a(b()c(b()))")
    assert t.label == "a"
    assert t.serialize() == "a(b()c(b()))"
    assert parse_planar(t.serialize()) == t


def test_parse_rejects_garbage():
    for bad in ["", "(", "((", "())(", "()x", "A()"]:
        with pytest.raises(DomainError):
            parse_planar(bad)


# The recursive-descent reader the text-to-tree maps replaced, kept as the
# reference for what parses and for every error message.


def reference_parse_tokens(tokens, pos, cls):
    label = None
    if pos < len(tokens) and tokens[pos] not in "()":
        label = tokens[pos]
        pos += 1
    if pos >= len(tokens) or tokens[pos] != "(":
        raise DomainError(f"expected '(' at token {pos}")
    pos += 1
    children = []
    while pos < len(tokens) and tokens[pos] != ")":
        child, pos = reference_parse_tokens(tokens, pos, cls)
        children.append(child)
    if pos >= len(tokens):
        raise DomainError("unbalanced parentheses")
    return cls(tuple(children), label), pos + 1


def reference_parse(text, cls):
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise DomainError(f"cannot tokenize {text!r}")
    tree, pos = reference_parse_tokens(tokens, 0, cls)
    if pos != len(tokens):
        raise DomainError(f"trailing input in {text!r}")
    return tree


def outcome(parse, *args):
    """The tree a reader returns, or the message of its ``DomainError``."""
    try:
        return parse(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


PARSERS = [(parse_planar, PlanarTree), (parse_tree, Tree)]

MALFORMED = ["", "(", "((", "())(", "()x", "A()", "a", ")", "(a)", "a b()", "()()", "\t()"]


def test_parse_matches_reference_reader_through_degree_7():
    for n in range(1, 8):
        for sigma in enumerate_planar(n):
            text = sigma.serialize()
            for parse, cls in PARSERS:
                got = parse(text)
                assert type(got) is cls
                assert got == reference_parse(text, cls)


def test_malformed_input_messages_match_reference_reader():
    for bad in MALFORMED:
        for parse, cls in PARSERS:
            got = outcome(parse, bad)
            assert isinstance(got, str), (bad, cls)
            assert got == outcome(reference_parse, bad, cls), (bad, cls)


LABELS = st.sampled_from([None, "a", "b", "x_1", "07"])


def _draw_labeled(draw, n):
    children = []
    rest = n - 1
    while rest:
        k = draw(st.integers(1, rest))
        children.append(_draw_labeled(draw, k))
        rest -= k
    return PlanarTree(tuple(children), draw(LABELS))


@st.composite
def spaced_texts(draw):
    """The text of a labeled planar tree through degree 7 with spaces put
    in at random places, inside labels too (a space that splits a label
    makes the text malformed)."""
    text = _draw_labeled(draw, draw(st.integers(1, 7))).serialize()
    places = draw(st.lists(st.integers(0, len(text)), max_size=6))
    for i in sorted(places, reverse=True):
        text = text[:i] + " " * draw(st.integers(1, 2)) + text[i:]
    return text


@given(spaced_texts())
def test_parse_matches_reference_reader_on_spaced_labeled_trees(text):
    for parse, cls in PARSERS:
        assert outcome(parse, text) == outcome(reference_parse, text, cls)


def test_text_maps_build_each_text_once():
    for n in range(1, 7):
        for sigma in enumerate_planar(n):
            text = sigma.serialize()
            assert _planar_of_text(text) is _planar_of_text(text) == sigma
            # a planar text need not be canonical for the non-planar map
            assert _tree_of_text(text) == reference_parse(text, Tree)
            assert _tree_of_text(text) is _tree_of_text(text)


def reference_subtree_end(text, start):
    """Read one character at a time until the parentheses balance."""
    depth = 0
    for i in range(text.index("(", start), len(text)):
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        if depth == 0 and text[i] == ")":
            return i + 1
    raise AssertionError("unbalanced")


def random_text(rng, n):
    """A labeled planar tree text with n vertices, deep or wide by chance."""
    label = rng.choice(["", "", "a", "x_1"])
    kids = []
    rest = n - 1
    while rest:
        k = rng.randint(1, rest) if rng.random() < 0.5 else rest
        kids.append(random_text(rng, k))
        rest -= k
    return f"{label}({''.join(kids)})"


def test_subtree_end_on_long_texts():
    # past its first characters the scan jumps; check every subtree start
    rng = random.Random("subtree-end")
    texts = [random_text(rng, rng.randint(30, 300)) for _ in range(40)]
    texts += ["(" * 500 + ")" * 500, "(" + "()" * 300 + ")", "a(" * 80 + "b()" + ")" * 80]
    for text in texts:
        for start in range(len(text)):
            if text[start] == "(" or (text[start] != ")" and (start == 0 or text[start - 1] in "()")):
                assert _subtree_end(text, start) == reference_subtree_end(text, start), (text, start)
    with pytest.raises(DomainError):
        _subtree_end("(" * 100 + ")" * 99, 0)


@st.composite
def planar_trees(draw, max_depth=4):
    if max_depth == 0 or draw(st.booleans()):
        return PlanarTree()
    kids = draw(st.lists(planar_trees(max_depth=max_depth - 1), max_size=3))
    return PlanarTree(tuple(kids))


@given(planar_trees())
def test_round_trip_property(t):
    assert parse_planar(t.serialize()) == t
    assert t.degree == 1 + sum(c.degree for c in t.children)


def test_canonicalization_idempotent():
    # building a Tree from any child order lands on the same value
    a = Tree((Tree(), Tree((Tree(),))))
    b = Tree((Tree((Tree(),)), Tree()))
    assert a == b
    assert a.serialize() == "((())())"


def test_planar_and_nonplanar_trees_stay_distinct():
    pairs = [(PlanarTree(()), Tree(())), (PlanarTree((), "a"), Tree((), "a"))]
    pairs += [(parse_planar(x), parse_tree(x)) for x in ("(()())", "a(c(())b())")]
    for p, t in pairs:
        assert p != t and t != p
        assert len({p, t}) == 2
        assert p.serialize() == t.serialize()


def reference_serialize(t) -> str:
    """Serialization recomputed from the children on every call."""
    return (t.label or "") + "(" + "".join(reference_serialize(c) for c in t.children) + ")"


def reference_degree(t) -> int:
    return 1 + sum(reference_degree(c) for c in t.children)


def kernel_sample():
    out = []
    for n in range(1, 8):
        out += enumerate_planar(n) + enumerate_nonplanar(n)
    for text in ("a()", "a(b()c(b()))", "x(()y(z()))", "1(_()2(()))"):
        out += [parse_planar(text), parse_tree(text)]
    return out


def test_stored_serialization_and_degree_match_reference():
    for t in kernel_sample():
        assert t.serialize() == str(t) == reference_serialize(t)
        assert t.degree == reference_degree(t)


def test_equality_is_class_and_text():
    sample = kernel_sample()
    for t in sample:
        rebuilt = type(t)(t.children, t.label)
        assert rebuilt == t and hash(rebuilt) == hash(t)
        assert pickle.loads(pickle.dumps(t)) == t
    texts = {id(t): reference_serialize(t) for t in sample}
    for a in sample[::7]:
        for b in sample:
            same = type(a) is type(b) and texts[id(a)] == texts[id(b)]
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)


def _rebuilt(t):
    """The ways of building ``t`` again, other than its own class's parse."""
    out = [
        type(t)(t.children, t.label),
        type(t)(list(t.children), t.label),
        type(t).from_json(t.to_json()),
        pickle.loads(pickle.dumps(t)),
        copy.deepcopy(t),
        copy.copy(t),
        TreeSum.single(t).terms[0][0],
    ]
    if isinstance(t, PlanarTree):
        out += [parse_planar(t.serialize()), _planar_of_text(t.serialize())]
    else:
        # unsorted children and non-canonical texts reach the same tree
        out += [Tree(t.children[::-1], t.label), parse_tree(t.serialize())]
        for sigma in planar_embeddings(t):
            out += [_tree_of_text(sigma.serialize()), parse_tree(sigma.serialize())]
    return out


def test_one_object_per_class_and_text():
    labeled = []
    for n in range(1, 5):
        for u in enumerate_planar(n) + enumerate_nonplanar(n):
            labeled += labelings(u, "ab")
    for t in kernel_sample() + labeled:
        for other in _rebuilt(t):
            assert other is t, (t, other)


def test_planar_and_nonplanar_of_one_text_are_distinct_objects():
    for n in range(1, 7):
        for s in enumerate_nonplanar(n):
            sigma = _planar_of_text(s.serialize())
            assert sigma is not s and sigma != s and s != sigma
            assert {sigma: 1, s: 2}[sigma] == 1


def test_children_of_the_other_class_are_refused():
    for cls, other in ((PlanarTree, Tree), (Tree, PlanarTree)):
        for kids in ((other(),), (cls(), other((other(),), "a"))):
            with pytest.raises(DomainError):
                cls(kids)
    # no table was left holding a tree that mixes the classes
    assert type(parse_planar("(())").children[0]) is PlanarTree
    assert type(parse_tree("(()a(()))").children[0]) is Tree


def test_nonplanar_children_keep_canonical_order():
    for t in kernel_sample():
        if isinstance(t, Tree):
            keys = [serial_key(c.serialize()) for c in t.children]
            assert keys == sorted(keys, reverse=True)
            assert Tree(t.children[::-1], t.label) == t


def test_same_text_different_class_unequal():
    same_text = 0
    for t in kernel_sample():
        other = (Tree if isinstance(t, PlanarTree) else PlanarTree).from_json(t.to_json())
        assert other != t and t != other
        same_text += other.serialize() == t.serialize()
    assert same_text > 100


# ---------------------------------------------------------------------------
# statistics


def test_potential_energy_examples():
    assert potential_energy(parse_planar("()")) == 0
    assert potential_energy(parse_planar("((()))")) == 3
    assert potential_energy(parse_planar("(()()())")) == 3


def test_potential_energy_planarity_independent():
    for n in range(1, 8):
        for sigma in enumerate_planar(n):
            assert potential_energy(sigma) == potential_energy(forget_planarity(sigma))


def depth_sum_oracle(text: str) -> int:
    """Sum of vertex depths read off a tree text: each ``(`` opens a vertex
    as deep as the number of vertices still open before it."""
    total = open_now = 0
    for ch in text:
        if ch == "(":
            total += open_now
            open_now += 1
        elif ch == ")":
            open_now -= 1
    return total


def test_stored_energy_is_the_depth_sum_through_degree_9():
    for n in range(1, 10):
        for t in enumerate_planar(n) + enumerate_nonplanar(n):
            assert potential_energy(t) == t.energy == depth_sum_oracle(t.serialize())
            assert canonical_key(t) == (depth_sum_oracle(t.serialize()), serial_key(t.serialize()))
    # trees built from non-canonical or labeled texts store it too
    for text in ("(()(()))", "a(b()c(d(e())))", "((()())(()))"):
        for t in (parse_tree(text), parse_planar(text)):
            assert t.energy == depth_sum_oracle(text)


def test_symmetry_factor_examples():
    assert symmetry_factor(parse_tree("()")) == 1
    assert symmetry_factor(parse_tree("(()())")) == 2
    assert symmetry_factor(parse_tree("(()()())")) == 6


def test_symmetry_factor_against_brute_force():
    for n in range(1, 8):
        for s in enumerate_nonplanar(n):
            assert symmetry_factor(s) == automorphism_oracle(s)


def test_symmetry_orbit_stabilizer():
    # planar embeddings of s number (ordered arrangements), consistent with
    # the product formula through the dedupe oracle
    from prelie.projection import planar_embeddings

    for n in range(1, 7):
        total = sum(len(planar_embeddings(s)) for s in enumerate_nonplanar(n))
        assert total == len(enumerate_planar(n))


# ---------------------------------------------------------------------------
# vertex orders


def test_tree_order_root_minimal():
    for n in range(2, 6):
        for t in enumerate_planar(n):
            order = vertex_order(t, "<")
            for v in t.vertices():
                if v != ():
                    assert order.holds((), v)
                    assert not order.holds(v, ())


def test_total_order_ladder():
    t = parse_planar("((()))")
    order = vertex_order(t, "<<<")
    assert order.holds((), (0,))
    assert order.holds((0,), (0, 0))
    assert not order.holds((0, 0), ())


def test_left_refined_example():
    # root with a leaf on the left and a 2-ladder on the right: the right
    # child precedes the left leaf
    t = parse_planar("(()(()))")
    order = vertex_order(t, "<<")
    v_left_leaf = (0,)
    v_right = (1,)
    assert order.holds(v_right, v_left_leaf)
    assert not order.holds(v_left_leaf, v_right)
    assert order.holds((), v_right)
    assert order.holds(v_right, (1, 0))


def closure_pairs(t):
    """Reference for <<: the transitive closure of the parent->child and
    right-sibling->left-sibling edges, iterated to a fixed point."""
    verts = t.vertices()
    reach = {v: set() for v in verts}
    for v in verts:
        k = len(t.subtree(v).children)
        reach[v].update(v + (i,) for i in range(k))
        for i in range(k - 1):
            reach[v + (i + 1,)].add(v + (i,))
    changed = True
    while changed:
        changed = False
        for v in verts:
            beyond = set().union(*(reach[u] for u in reach[v])) - reach[v]
            if beyond:
                reach[v] |= beyond
                changed = True
    return {(v, w) for v in verts for w in reach[v]}


def test_left_refined_pairs_match_closure():
    for n in range(1, 8):
        for t in enumerate_planar(n):
            assert left_refined_pairs(t) == closure_pairs(t)


def test_order_refinement_chain():
    for n in range(1, 8):
        for t in enumerate_planar(n):
            lt = vertex_order(t, "<").pairs
            ll = vertex_order(t, "<<").pairs
            tot = vertex_order(t, "<<<").pairs
            assert lt <= ll <= tot
            verts = t.vertices()
            # totality and antisymmetry of the strict total order
            for v in verts:
                assert (v, v) not in tot
                for w in verts:
                    if v != w:
                        assert ((v, w) in tot) != ((w, v) in tot)


def test_order_kind_errors():
    with pytest.raises(DomainError):
        vertex_order(parse_tree("(()())"), "<<")
    with pytest.raises(DomainError):
        vertex_order(parse_planar("()"), "weird")


def test_serial_key_orders_deep_branches_first():
    assert serial_key("(())") > serial_key("()")
