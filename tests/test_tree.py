"""Tree slices: construction, child enumeration, DOT export, shape laws."""

import pytest

from hofg import (
    Arity,
    build_tree,
    children,
    depth,
    export_dot,
    fib,
    flip,
    g,
    gbar,
)
from hofg.errors import DomainError
from hofg.tree import DEPTH_MAX


def test_small_g_slice():
    t = build_tree("g", 2)
    assert t.parent == {2: 1, 3: 2}
    assert t.label_count() == 3
    assert depth(3) == 2
    assert repr(t) == "TreeSlice(func='g', max_depth=2)"  # no label maps


def test_root_only_slice():
    t = build_tree("g", 0)
    assert t.parent == {}
    assert t.label_count() == 1
    assert t.level(0) == range(1, 2)


def test_gbar_slice_around_node_three():
    t = build_tree("gbar", 3)
    assert t.child_lists[3] == [4, 5]
    assert t.parent[4] == 3
    assert t.parent[5] == 3


def test_children_examples():
    assert children("g", 3) == [4, 5]
    assert children("g", 5) == [8]
    assert children("gbar", 5) == [7, 8]
    assert children("g", 1) == [2]
    assert children("gbar", 1) == [2]


def test_children_match_slices():
    for func, image in (("g", g), ("gbar", gbar)):
        t = build_tree(func, 10)
        for k in range(t.max_depth):
            for n in t.level(k):
                kids = children(func, n)
                assert t.child_lists[n] == kids
                for c in kids:
                    assert image(c) == n


def test_children_errors():
    with pytest.raises(DomainError):
        children("g", 0)
    with pytest.raises(DomainError):
        children("f", 3)


def test_build_errors():
    with pytest.raises(DomainError):
        build_tree("weird", 3)
    with pytest.raises(DomainError):
        build_tree("g", -1)
    with pytest.raises(DomainError, match=f"^build_tree: max_depth {DEPTH_MAX + 1} "):
        build_tree("g", DEPTH_MAX + 1)


def test_level_ranges():
    t = build_tree("g", 12)
    for k in range(1, 13):
        lv = t.level(k)
        assert lv.start == 1 + fib(k + 1)
        assert lv.stop == fib(k + 2) + 1
        assert len(lv) == fib(k)
    for k in (13, -1):
        with pytest.raises(DomainError) as caught:
            t.level(k)
        assert str(caught.value) == f"TreeSlice.level: k = {k} outside [0, 12]"


def test_parents_live_one_level_up():
    t = build_tree("g", 12)
    for k in range(1, 13):
        for n in t.level(k):
            assert t.parent[n] in t.level(k - 1)


def test_depth_formula_against_bfs():
    t = build_tree("g", 12)
    reached = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for p in frontier:
            for c in t.child_lists.get(p, ()):
                reached[c] = reached[p] + 1
                nxt.append(c)
        frontier = nxt
    assert len(reached) == t.label_count()
    for n, k in reached.items():
        assert depth(n) == k


def test_arity_covers_every_label():
    t = build_tree("gbar", 8)
    assert len(t.arity) == t.label_count()


def test_shape_g():
    # below binary nodes the smaller child is binary and the larger unary;
    # below unary nodes the only child is binary; labels 1 and 2 are the
    # irregular root region and stay out of scope
    t = build_tree("g", 12)
    for p, kids in t.child_lists.items():
        if p <= 2:
            continue
        if t.arity[p] is Arity.BINARY:
            small, large = kids
            assert t.arity[small] is Arity.BINARY
            assert t.arity[large] is Arity.UNARY
        else:
            assert t.arity[kids[0]] is Arity.BINARY


def test_shape_gbar_mirrored():
    t = build_tree("gbar", 12)
    for p, kids in t.child_lists.items():
        if p <= 2:
            continue
        if t.arity[p] is Arity.BINARY:
            small, large = kids
            assert t.arity[large] is Arity.BINARY
            assert t.arity[small] is Arity.UNARY
        else:
            assert t.arity[kids[0]] is Arity.BINARY


def test_flip_maps_one_tree_onto_the_other():
    gt = build_tree("g", 12)
    bt = build_tree("gbar", 12)
    g_edges = {(p, c) for c, p in gt.parent.items()}
    b_edges = {(p, c) for c, p in bt.parent.items()}
    assert {(flip(p), flip(c)) for p, c in g_edges} == b_edges


def test_export_dot_exact():
    assert export_dot(build_tree("g", 1)) == "digraph g {\n  1 -> 2;\n}\n"
    assert export_dot(build_tree("g", 0)) == "digraph g {\n  1;\n}\n"


def test_export_dot_contents():
    text = export_dot(build_tree("g", 3))
    assert "  3 -> 4;" in text
    assert "  3 -> 5;" in text
    text = export_dot(build_tree("gbar", 4))
    assert "  5 -> 7;" in text
    assert "  5 -> 8;" in text
    assert text.startswith("digraph gbar {")


def test_export_dot_deterministic():
    a = export_dot(build_tree("gbar", 9))
    b = export_dot(build_tree("gbar", 9))
    assert a == b
