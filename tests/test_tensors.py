"""Vertex-tensor functor on trees: unitarity, state sums, coefficients."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from oracles import brute_phi_forest
from treefrac.coloring import coefficient
from treefrac.tensors import VertexTensor, _phi_columns, vacuum_coefficient
from treefrac.thompson import parse_element, random_element_rng, x_generator
from treefrac.trees import LEAF, Forest, Tree, caret, random_forest, random_tree

F = Fraction
R3 = VertexTensor.three_coloring()
X0 = x_generator(0)


def gram(cols):
    """m* m for a matrix given by its sparse columns."""
    return [[sum(x * b.get(i, 0) for i, x in a.items()) for b in cols] for a in cols]


def dense(cols, rows):
    """Sparse columns as a dense list of rows; no stored entry is zero."""
    assert all(0 <= i < rows and x for col in cols for i, x in col.items())
    return [[col.get(i, 0) for col in cols] for i in range(rows)]


def random_exact_tensor(rng, k):
    """A tensor with zero, negative and non-integer Fraction entries."""
    values = [F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3)]
    return VertexTensor(
        k,
        tuple(
            tuple(tuple(rng.choice(values) for _ in range(k)) for _ in range(k))
            for _ in range(k)
        ),
    )


def test_three_coloring_entries():
    assert R3[0, 1, 2] == 1
    assert R3[0, 0, 2] == 0
    assert R3[0, 1, 1] == 0


def test_unitarity_constant_is_two():
    assert R3.unitarity_constant == 2


def test_degenerate_tensor_rejected():
    zero = VertexTensor(2, (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    with pytest.raises(ValueError):
        zero.unitarity_constant
    bad = VertexTensor(
        2, (((1, 1), (0, 0)), ((0, 0), (0, 0)))
    )  # off-diagonal contraction does not vanish
    with pytest.raises(ValueError):
        bad.unitarity_constant


def test_trivial_forest_is_identity():
    cols = _phi_columns(LEAF, R3)
    assert dense(cols, 3) == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_caret_is_an_isometry_up_to_c():
    cols = _phi_columns(caret(), R3)
    assert dense(cols, 9) == [R3.matrix.get(i, [0, 0, 0]) for i in range(9)]
    assert gram(cols) == [[2 if a == b else 0 for b in range(3)] for a in range(3)]


def test_tree_isometry_up_to_c_power():
    rng = random.Random(41)
    for _ in range(10):
        t = random_tree(rng.randrange(1, 6), rng)
        c = 2 ** (t.leaves - 1)
        assert gram(_phi_columns(t, R3)) == [[c if a == b else 0 for b in range(3)] for a in range(3)]


def test_vacuum_coefficient_matches_count_route():
    from treefrac.thompson import FElement

    assert vacuum_coefficient(FElement.identity(), R3) == 1
    assert vacuum_coefficient(X0, R3) == F(1, 2)
    rng = random.Random(43)
    for _ in range(25):
        g = random_element_rng(rng.randrange(2, 7), rng)
        assert vacuum_coefficient(g, R3) == coefficient(g)


@pytest.mark.parametrize("literal", ["((..)(..))|((..)(..))@1", "(.(..))|(.(..))%2 0 1"])
def test_vacuum_coefficient_refuses_t_and_v_elements(literal):
    # Matching den leaf i to num leaf i would give F's value, 1; the glued
    # graph of the rotation ((..)(..))|((..)(..))@1 has coefficient 1/2.
    with pytest.raises(ValueError, match="F elements only"):
        vacuum_coefficient(parse_element(literal), R3)


def test_phi_matches_state_sum_on_random_trees_and_forests():
    rng = random.Random(46)
    # Under `cancelling`, the leaf colors (0, 0, 0) of ((..).) sum to a zero
    # row, which the sparse matrix must leave out.
    cancelling = VertexTensor(2, (((1, 1), (0, F(1, 2))), ((-1, -1), (1, 0))))
    comb = caret(caret())
    assert brute_phi_forest(Forest((comb,)), cancelling.entries, 2)[0] == [0, 0]
    assert all(0 not in col for col in _phi_columns(comb, cancelling))
    for tensor in (R3, cancelling, random_exact_tensor(rng, 2), random_exact_tensor(rng, 3)):
        k, entries = tensor.dimension, tensor.entries
        for _ in range(12):
            t = random_tree(rng.randrange(1, 6), rng)
            roots = rng.randrange(1, 4)
            f = random_forest(roots, rng.randrange(roots, 6), rng)
            for tree in (t, *f.trees):
                want = brute_phi_forest(Forest((tree,)), entries, k)
                assert dense(_phi_columns(tree, tensor), k**tree.leaves) == want


def test_phi_tree_does_not_recurse_on_deep_trees():
    # With the 1-dimensional tensor every matrix is 1x1, so depth is all
    # that grows: a comb past the recursion limit.
    one = VertexTensor(1, (((1,),),))
    comb = LEAF
    for _ in range(sys.getrecursionlimit() + 100):
        comb = Tree(LEAF, comb)
    assert _phi_columns(comb, one) == [{0: 1}]


@pytest.mark.parametrize("leaves", [7, 8])
def test_vacuum_coefficient_matches_count_route_at_benchmark_sizes(leaves):
    rng = random.Random(48 + leaves)
    found = 0
    while found < 6:
        g = random_element_rng(leaves, rng)
        if g.num.leaves != leaves:
            continue
        found += 1
        assert vacuum_coefficient(g, R3) == coefficient(g)
