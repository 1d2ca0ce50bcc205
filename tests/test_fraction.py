"""Group-of-fractions engine over the forest category."""

from __future__ import annotations

import random

import pytest

from treefrac.fraction import (
    FractionPair,
    fraction_multiply,
    parse_pair,
    reduce_pair,
)
from treefrac.trees import (
    LEAF,
    apply_forest,
    caret,
    common_refinement,
    enumerate_trees,
    parse_tree,
    random_forest,
    random_tree,
)


def rand_pair(rng, leaves=None):
    n = leaves or rng.randrange(1, 9)
    return FractionPair(random_tree(n, rng), random_tree(n, rng))


X0 = parse_pair("((..).)|(.(..))")


def equal(a, b):
    """Equality in the group of fractions: the reduced pairs agree."""
    return reduce_pair(a.num, a.den) == reduce_pair(b.num, b.den)


def test_leaf_count_mismatch_rejected():
    with pytest.raises(ValueError):
        FractionPair(caret(), LEAF)


def test_identity_and_inverse():
    e = FractionPair.identity()
    assert equal(e * X0, X0)
    assert equal(X0 * e, X0)
    assert equal(X0 * ~X0, e)
    assert equal(~X0 * X0, e)


def test_reduce_examples():
    assert reduce_pair(caret(), caret()) == (LEAF, LEAF)
    assert reduce_pair(X0.num, X0.den) == (X0.num, X0.den)
    # ((..)(..)) has carets at leaves (1, 2) and (3, 4); each partner
    # shares exactly one of them, and cancelling it leaves (.(..)) or ((..).).
    t = parse_tree("((..)(..))")
    assert reduce_pair(t, parse_tree("(((..).).)")) == (X0.den, X0.num)
    assert reduce_pair(t, parse_tree("(.(.(..)))")) == (X0.num, X0.den)
    assert reduce_pair(t, t) == (LEAF, LEAF)


def test_equality_examples():
    assert equal(FractionPair(caret(), caret()), FractionPair.identity())
    assert not equal(X0, ~X0)


def test_refinement_invariance_of_equality():
    rng = random.Random(5)
    for _ in range(50):
        g = rand_pair(rng)
        f = random_forest(g.leaves, g.leaves + rng.randrange(0, 5), rng)
        assert equal(g.refine(f), g)


def test_multiplication_well_defined_under_refinement():
    rng = random.Random(6)
    for _ in range(50):
        a, b = rand_pair(rng), rand_pair(rng)
        fa = random_forest(a.leaves, a.leaves + rng.randrange(0, 4), rng)
        fb = random_forest(b.leaves, b.leaves + rng.randrange(0, 4), rng)
        assert equal(a.refine(fa) * b.refine(fb), a * b)


def test_group_axioms_on_random_samples():
    rng = random.Random(7)
    e = FractionPair.identity()
    for _ in range(100):
        a, b, c = rand_pair(rng), rand_pair(rng), rand_pair(rng)
        assert equal((a * b) * c, a * (b * c))
        assert equal(a * ~a, e)
        assert equal(~a * a, e)


def test_products_of_small_reduced_pairs_are_the_defining_formula():
    # Every pair of reduced pairs with at most 4 leaves, against
    # (f1, g1) * (f2, g2) = (p.f1, q.g2) with p.g1 == q.f2 minimal.
    reduced = {
        reduce_pair(num, den)
        for n in range(1, 5)
        for num in enumerate_trees(n)
        for den in enumerate_trees(n)
    }
    for a in reduced:
        for b in reduced:
            _, p, q = common_refinement(a[1], b[0])
            ab = fraction_multiply(FractionPair(*a), FractionPair(*b))
            assert (ab.num, ab.den) == (apply_forest(a[0], p), apply_forest(b[1], q))


def test_x0_squared_has_four_leaf_trees():
    sq = fraction_multiply(X0, X0)
    num, den = reduce_pair(sq.num, sq.den)
    assert num.leaves == den.leaves == 4


def test_pair_literal_round_trip():
    assert parse_pair(str(X0)) == X0
    assert str(FractionPair.identity()) == ".|."
