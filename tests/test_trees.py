"""Tree and forest combinatorics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treefrac.rationals import dyadic_fraction
from treefrac.trees import (
    LEAF,
    CompositionError,
    Forest,
    LiteralError,
    Tree,
    caret,
    catalan,
    common_refinement,
    compose_forests,
    count_forests,
    enumerate_trees,
    format_tree,
    full_tree,
    apply_forest,
    leaf_intervals,
    parse_forest,
    parse_tree,
    random_forest,
    random_tree,
    tree_from_depths,
    tree_to_partition,
)

F = Fraction


def all_trees(n):
    return list(enumerate_trees(n))


def test_leaf_counts():
    assert LEAF.leaves == 1
    assert caret().leaves == 2
    assert caret(caret(), LEAF).leaves == 3


def test_catalan_counts_match_enumeration():
    # Criterion: trees with n <= 8 leaves number 1,1,2,5,14,42,132,429.
    expected = [1, 1, 2, 5, 14, 42, 132, 429]
    for n, count in enumerate(expected, start=1):
        assert len(all_trees(n)) == count
        assert catalan(n - 1) == count
    assert len({t for t in enumerate_trees(6)}) == 42  # all distinct


def test_parse_format_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        t = random_tree(rng.randrange(1, 12), rng)
        assert parse_tree(format_tree(t)) == t
    assert format_tree(parse_tree("((..).)")) == "((..).)"


def test_parse_errors_carry_position():
    with pytest.raises(LiteralError) as err:
        parse_tree("((..)")
    assert err.value.position == 5
    with pytest.raises(LiteralError):
        parse_tree("(..))")
    with pytest.raises(LiteralError):
        parse_tree("x")


def test_forest_literals():
    f = parse_forest("(..),.,((..).)")
    assert f.roots == 3
    assert f.leaves == 6
    assert parse_forest(str(f)) == f


def test_compose_identity_like():
    # lower = single leaf-tree, upper = [t] -> t
    t = parse_tree("(.(..))")
    assert compose_forests(Forest((LEAF,)), Forest((t,))) == Forest((t,))
    # lower = caret, upper = [caret, leaf] -> ((..).)
    out = compose_forests(Forest((caret(),)), Forest((caret(), LEAF)))
    assert out == Forest((parse_tree("((..).)"),))


def test_compose_arity_mismatch():
    with pytest.raises(CompositionError):
        compose_forests(Forest((caret(),)), Forest((LEAF,)))


def test_compose_associative_on_random_forests():
    rng = random.Random(11)
    for _ in range(50):
        a = random_forest(rng.randrange(1, 4), rng.randrange(4, 7), rng)
        b = random_forest(a.leaves, a.leaves + rng.randrange(0, 4), rng)
        c = random_forest(b.leaves, b.leaves + rng.randrange(0, 4), rng)
        assert compose_forests(compose_forests(a, b), c) == compose_forests(
            a, compose_forests(b, c)
        )


def test_partition_examples():
    assert tree_to_partition(LEAF) == (F(0), F(1))
    assert tree_to_partition(caret()) == (F(0), F(1, 2), F(1))
    assert tree_to_partition(parse_tree("((..).)")) == (F(0), F(1, 4), F(1, 2), F(1))


def test_dyadic_fraction_equals_the_public_constructor():
    rng = random.Random(11)
    cases = [(0, 0), (0, 5), (1, 0), (6, 0), (-12, 3), (8, 3), (2**70, 70), (3 * 2**40, 90)]
    cases += [(rng.randrange(-(2**60), 2**60), rng.randrange(0, 80)) for _ in range(200)]
    cases += [(rng.randrange(1, 2**k + 1), k) for k in range(30) for _ in range(5)]
    for n, k in cases:
        made, expected = dyadic_fraction(n, k), F(n, 2**k)
        assert type(made) is F
        assert (made.numerator, made.denominator) == (expected.numerator, expected.denominator)
        assert hash(made) == hash(expected) and str(made) == str(expected)


def test_refinement_of_equal_trees_is_trivial():
    t = parse_tree("((..)(..))")
    u, p, q = common_refinement(t, t)
    assert u == t
    assert p.is_trivial and q.is_trivial


def test_refinement_when_one_side_refines_the_other():
    s = caret()
    t = parse_tree("((..).)")
    u, p, q = common_refinement(s, t)
    assert u == t
    assert p == Forest((caret(), LEAF))
    assert q.is_trivial


def test_refinement_overlay_example():
    # {0,1/4,1/2,1} overlaid with {0,1/2,3/4,1} is {0,1/4,1/2,3/4,1}.
    s = parse_tree("((..).)")
    t = parse_tree("(.(..))")
    u, p, q = common_refinement(s, t)
    assert tree_to_partition(u) == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    assert apply_forest(s, p) == u
    assert apply_forest(t, q) == u


def test_refinement_partition_is_breakpoint_union():
    rng = random.Random(23)
    for _ in range(100):
        s = random_tree(rng.randrange(1, 10), rng)
        t = random_tree(rng.randrange(1, 10), rng)
        u, p, q = common_refinement(s, t)
        assert apply_forest(s, p) == u
        assert apply_forest(t, q) == u
        union = set(tree_to_partition(s)) | set(tree_to_partition(t))
        assert set(tree_to_partition(u)) == union


def test_leaf_intervals_round_trip_through_depths():
    assert leaf_intervals(parse_tree("((..).)")) == [(2, 0), (2, 1), (1, 1)]
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert tree_from_depths(k for k, _ in leaf_intervals(t)) == t


def test_depth_helpers_do_not_recurse():
    # A right comb 10,000 levels deep, far past the recursion limit.  The
    # trees are compared through their depths, since Tree.__eq__ recurses.
    depths = list(range(1, 10_001)) + [10_000]
    intervals = leaf_intervals(tree_from_depths(depths))
    assert [k for k, _ in intervals] == depths
    assert intervals[-1] == (10_000, 2**10_000 - 1)


@pytest.mark.parametrize("depths", [[], [1], [1, 1, 1], [2, 1]])
def test_invalid_depth_sequences_rejected(depths):
    with pytest.raises(ValueError):
        tree_from_depths(depths)


def test_catalan_closed_form_matches_recurrence():
    old = [1]
    for n in range(1, 31):
        old.append(sum(old[k] * old[n - 1 - k] for k in range(n)))
    assert [catalan(n) for n in range(31)] == old
    assert catalan(1001) * 1002 == catalan(1000) * 2 * 2001  # C(n+1)/C(n) = 2(2n+1)/(n+2)
    with pytest.raises(ValueError):
        catalan(-1)
    # The sampler weighs its splits with catalan(1599) and below.
    assert random_tree(1600, random.Random(4)).leaves == 1600


def test_random_tree_is_deterministic_and_uniformish():
    assert random_tree(6, random.Random(5)) == random_tree(6, random.Random(5))
    # Exactness of the sampler: every 4-leaf shape appears over many draws.
    rng = random.Random(1)
    seen = {random_tree(4, rng) for _ in range(200)}
    assert seen == set(enumerate_trees(4))


def test_count_forests_consistency():
    assert count_forests(1, 5) == catalan(4)
    assert count_forests(3, 3) == 1
    # Forests (m roots, n leaves) are counted by a Catalan convolution:
    # compare against direct enumeration via compositions.
    total = 0
    for a in range(1, 4):
        for b in range(1, 5 - a):
            c = 5 - a - b
            if c >= 1:
                total += catalan(a - 1) * catalan(b - 1) * catalan(c - 1)
    assert count_forests(3, 5) == total
    rng = random.Random(3)
    f = random_forest(3, 8, rng)
    assert f.roots == 3 and f.leaves == 8


def test_full_tree():
    assert full_tree(0) == LEAF
    assert full_tree(2) == parse_tree("((..)(..))")
    assert full_tree(6).leaves == 64
