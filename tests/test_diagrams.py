"""Gluing tree pairs into closed trivalent planar diagrams."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from oracles import traced_dual
from treefrac.diagrams import ClosedDiagram, closed_graph
from treefrac.thompson import random_element_rng, x_generator
from treefrac.trees import (
    LEAF,
    caret,
    enumerate_trees,
    leaf_intervals,
    random_tree,
    tree_from_depths,
)


def test_identity_gives_a_free_loop():
    d = closed_graph((LEAF, LEAF))
    assert (d.vertex_count, d.edge_count, d.face_count) == (0, 0, 2)
    assert d.free_loops == 1
    assert d.euler_characteristic() == 2


def test_caret_pair_gives_theta():
    d = closed_graph((caret(), caret()))
    assert (d.vertex_count, d.edge_count, d.face_count) == (2, 3, 3)
    assert all(set(e) == {0, 1} for e in d.edges)
    # The dual of the theta graph is a triangle.
    dual = {frozenset(e) for e in d.dual_edges()}
    assert dual == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}


def test_x0_gives_k4():
    d = closed_graph(x_generator(0))
    assert (d.vertex_count, d.edge_count, d.face_count) == (4, 6, 4)
    assert Counter(frozenset(e) for e in d.edges) == Counter(
        frozenset({u, v}) for u in range(4) for v in range(u + 1, 4)
    )
    # Self-dual: the dual is K4 again.
    dual = Counter(frozenset(e) for e in d.dual_edges())
    assert dual == Counter(frozenset({u, v}) for u in range(4) for v in range(u + 1, 4))


def test_glued_pairs_satisfy_euler_and_size_formulas():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randrange(2, 14)
        num, den = random_tree(n, rng), random_tree(n, rng)
        d = closed_graph((num, den))
        assert d.vertex_count == 2 * (n - 1)
        assert d.edge_count == 3 * (n - 1)
        assert d.face_count == n + 1
        assert d.euler_characteristic() == 2
        degree = Counter(v for e in d.edges for v in e)
        assert degree == Counter(dict.fromkeys(range(d.vertex_count), 3))


def test_reduced_elements_have_no_dual_self_loops():
    # Glued diagrams are bridgeless, so no face borders itself.
    rng = random.Random(22)
    for _ in range(40):
        g = random_element_rng(rng.randrange(2, 12), rng)
        if g.is_identity:
            continue
        assert all(u != v for u, v in closed_graph(g).dual_edges())


def assert_dual_matches_traced_faces(num, den):
    """The stored dual equals the face-traced one with faces named by gap."""
    n = num.leaves
    traced = traced_dual(num, den)
    gap = {}
    for i, (right, left) in enumerate(traced[-n:]):  # strand i: gaps i+1, i
        assert gap.setdefault(left, i) == i
        assert gap.setdefault(right, i + 1) == i + 1
    assert sorted(gap.values()) == list(range(n + 1))
    relabelled = Counter(tuple(sorted((gap[f], gap[g]))) for f, g in traced)
    stored = Counter(tuple(sorted(e)) for e in closed_graph((num, den)).dual_edges())
    assert stored == relabelled


def test_dual_matches_traced_faces_on_all_small_pairs():
    for n in range(2, 7):
        for num in enumerate_trees(n):
            for den in enumerate_trees(n):
                assert_dual_matches_traced_faces(num, den)


def test_dual_matches_traced_faces_on_random_pairs():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randrange(2, 41)
        assert_dual_matches_traced_faces(random_tree(n, rng), random_tree(n, rng))


def test_diagram_rejects_a_vertex_of_degree_two():
    theta = closed_graph((caret(), caret()))
    with pytest.raises(ValueError, match="trivalent"):
        ClosedDiagram(2, theta.edges[:2], theta.dual[:2])


def test_closed_graph_does_not_recurse():
    n = 10_000
    right_comb = tree_from_depths(list(range(1, n)) + [n - 1])
    left_comb = tree_from_depths([n - 1] + list(range(n - 1, 0, -1)))
    assert len(leaf_intervals(right_comb)) == len(leaf_intervals(left_comb)) == n
    d = closed_graph((left_comb, right_comb))
    assert d.vertex_count == 2 * (n - 1)
    assert d.edge_count == 3 * (n - 1)
