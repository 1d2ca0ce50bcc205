"""Vertex-tensor functor: unitarity, functoriality, coefficients, limit action."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from oracles import brute_phi_forest
from treefrac.coloring import coefficient
from treefrac.fraction import FractionPair, limit_act, limit_equivalent, matmul
from treefrac.tensors import (
    VertexTensor,
    inner_product,
    kron,
    make_phi,
    phi_forest,
    phi_tree,
    vacuum,
    vacuum_coefficient,
)
from treefrac.thompson import parse_element, random_element_rng, x_generator
from treefrac.trees import (
    LEAF,
    Forest,
    Tree,
    caret,
    compose_forests,
    random_forest,
    random_tree,
)

F = Fraction
R3 = VertexTensor.three_coloring()
X0 = x_generator(0)


def gram(m, k=3):
    """m* m for a sparse-row matrix with k columns."""
    return [[sum(row[a] * row[b] for row in m.values()) for b in range(k)] for a in range(k)]


def dense(m, rows, cols):
    """A sparse-row matrix as a dense list of rows; no stored row is zero."""
    assert all(0 <= i < rows and len(row) == cols and any(row) for i, row in m.items())
    return [list(m.get(i, [0] * cols)) for i in range(rows)]


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
    m = phi_forest(Forest.trivial(2), R3)
    assert dense(m, 9, 9) == [[1 if i == j else 0 for j in range(9)] for i in range(9)]


def test_caret_is_an_isometry_up_to_c():
    m = phi_tree(caret(), R3)
    assert m == R3.matrix
    assert gram(m) == [[2 if a == b else 0 for b in range(3)] for a in range(3)]


def test_tree_isometry_up_to_c_power():
    rng = random.Random(41)
    for _ in range(10):
        t = random_tree(rng.randrange(1, 6), rng)
        c = 2 ** (t.leaves - 1)
        assert gram(phi_tree(t, R3)) == [[c if a == b else 0 for b in range(3)] for a in range(3)]


def test_functoriality_on_random_two_stage_forests():
    rng = random.Random(42)
    for _ in range(15):
        lower = random_forest(rng.randrange(1, 3), rng.randrange(3, 5), rng)
        upper = random_forest(lower.leaves, lower.leaves + rng.randrange(0, 3), rng)
        direct = phi_forest(compose_forests(lower, upper), R3)
        staged = matmul(phi_forest(upper, R3), phi_forest(lower, R3))
        assert direct == staged


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
    assert 0 not in phi_tree(comb, cancelling)
    for tensor in (R3, cancelling, random_exact_tensor(rng, 2), random_exact_tensor(rng, 3)):
        k, entries = tensor.dimension, tensor.entries
        for _ in range(12):
            t = random_tree(rng.randrange(1, 6), rng)
            want = brute_phi_forest(Forest((t,)), entries, k)
            assert dense(phi_tree(t, tensor), k**t.leaves, k) == want
            roots = rng.randrange(1, 4)
            f = random_forest(roots, rng.randrange(roots, 6), rng)
            want = brute_phi_forest(f, entries, k)
            assert dense(phi_forest(f, tensor), k**f.leaves, k**roots) == want


def test_phi_tree_does_not_recurse_on_deep_trees():
    # With the 1-dimensional tensor every matrix is 1x1, so depth is all
    # that grows: a comb past the recursion limit.
    one = VertexTensor(1, (((1,),),))
    comb = LEAF
    for _ in range(sys.getrecursionlimit() + 100):
        comb = Tree(LEAF, comb)
    assert phi_tree(comb, one) == {0: [1]}


def test_kron_and_matmul_match_dense_products():
    rng = random.Random(47)

    def matrix(rows, cols):
        return [[rng.choice([0, 0, 1, -1, F(1, 3)]) for _ in range(cols)] for _ in range(rows)]

    def sparse(m):
        return {i: row for i, row in enumerate(m) if any(row)}

    for _ in range(30):
        p, q, r, s, t = (rng.randrange(1, 5) for _ in range(5))
        a, b, c = matrix(p, q), matrix(q, r), matrix(s, t)
        product = [[sum(a[i][j] * b[j][col] for j in range(q)) for col in range(r)] for i in range(p)]
        assert dense(matmul(sparse(a), sparse(b)), p, r) == product
        outer = [[x * y for x in ra for y in rc] for ra in a for rc in c]
        assert dense(kron(sparse(a), sparse(c), s), p * s, q * t) == outer


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


def test_limit_action_reproduces_coefficient():
    phi = make_phi(R3)
    omega = vacuum(R3)
    assert inner_product(omega, omega, R3) == 1
    moved = limit_act(X0.pair(), omega, phi)
    assert inner_product(moved, omega, R3) == F(1, 2)


def test_limit_action_is_a_group_action_and_unitary():
    # Exact matrices grow as 3**leaves: keep anchors small.
    phi = make_phi(R3)
    omega = vacuum(R3)
    rng = random.Random(44)
    for _ in range(8):
        g = random_element_rng(rng.randrange(2, 4), rng).pair()
        h = random_element_rng(rng.randrange(2, 4), rng).pair()
        v = limit_act(h, omega, phi)
        # Action law: g.(h.omega) == (g h).omega
        assert limit_equivalent(limit_act(g, v, phi), limit_act(g * h, omega, phi), phi)
        # Inverse undoes the action.
        assert limit_equivalent(limit_act(g.inverse(), limit_act(g, v, phi), phi), v, phi)
        # Unitarity: inner products are preserved.
        w = limit_act(g, omega, phi)
        assert inner_product(limit_act(g, v, phi), limit_act(g, w, phi), R3) == (
            inner_product(v, w, R3)
        )


def test_identity_acts_trivially():
    phi = make_phi(R3)
    omega = vacuum(R3)
    assert limit_equivalent(
        limit_act(FractionPair.identity(), omega, phi), omega, phi
    )


def test_inner_product_invariant_under_anchor_refinement():
    phi = make_phi(R3)
    omega = vacuum(R3)
    rng = random.Random(45)
    for _ in range(8):
        g = random_element_rng(rng.randrange(2, 4), rng).pair()
        v = limit_act(g, omega, phi)
        f = random_forest(v.anchor.leaves, v.anchor.leaves + rng.randrange(1, 3), rng)
        refined = v.refine(f, phi)
        assert limit_equivalent(refined, v, phi)
        assert inner_product(refined, omega, R3) == inner_product(v, omega, R3)
