"""Thompson group elements: reduction, multiplication, PL maps, rotations."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    eval_f,
    eval_pl,
    eval_t,
    eval_t_raw,
    eval_v,
    eval_v_raw,
    fraction_to_pl_map,
    is_dyadic,
    quadratic_compose,
    rescan_reduce,
    sample_points,
)
from treefrac.fraction import cancel_carets, reduce_pair
from treefrac.thompson import (
    FElement,
    PLMap,
    TElement,
    VElement,
    _v_refine_den,
    format_element,
    parse_element,
    random_element,
    random_element_rng,
    rotation_element,
    x_generator,
)
from treefrac.trees import (
    LEAF,
    Tree,
    caret,
    enumerate_trees,
    graft,
    leaf_intervals,
    parse_tree,
    random_forest,
    random_tree,
)

F = Fraction
X0 = x_generator(0)
X1 = x_generator(1)


def rand_f(rng, leaves=None):
    return random_element_rng(leaves or rng.randrange(2, 10), rng)


def rand_t(rng, leaves=None):
    n = leaves or rng.randrange(2, 9)
    return TElement.reduce(random_tree(n, rng), random_tree(n, rng), rng.randrange(n))


def rand_v(rng, leaves=None):
    n = leaves or rng.randrange(2, 9)
    perm = list(range(n))
    rng.shuffle(perm)
    return VElement.reduce(random_tree(n, rng), random_tree(n, rng), tuple(perm))


# ----------------------------------------------------------------- F


def test_reduce_examples():
    assert FElement.reduce(caret(), caret()) == FElement.identity()
    assert FElement.reduce(X0.num, X0.den) == X0


def test_reduce_is_idempotent_under_refinement():
    rng = random.Random(2)
    for _ in range(40):
        g = rand_f(rng)
        f = random_forest(g.leaves, g.leaves + rng.randrange(1, 5), rng)
        refined = g.pair().refine(f)
        assert FElement.from_pair(refined) == g


def test_unreduced_pair_rejected_by_constructor():
    with pytest.raises(ValueError):
        FElement(caret(), caret())


def test_to_pl_map_examples():
    assert FElement.identity().to_pl_map() == PLMap.identity()
    assert X0.to_pl_map().points == (
        (F(0), F(0)),
        (F(1, 2), F(1, 4)),
        (F(3, 4), F(1, 2)),
        (F(1), F(1)),
    )
    g = rand_f(random.Random(3))
    assert (g * ~g).to_pl_map() == PLMap.identity()


def test_to_pl_map_matches_the_fraction_route():
    rng = random.Random(24)
    elements = [random_element_rng(rng.randrange(1, 601), rng) for _ in range(40)]
    elements += [x_generator(i) for i in range(251)]
    for el in elements:
        m, expected = el.to_pl_map(), fraction_to_pl_map(el)
        assert m == expected and hash(m) == hash(expected)
        assert str(m) == str(expected)
        assert m._form == expected._form
        for x, y in m.points:
            assert type(x) is type(y) is F


def test_x_generator_matches_the_checked_stepwise_build():
    # The stepwise build runs every step through the constructor, which
    # checks reducedness.  Leaf intervals compare without recursing down
    # the comb, as == and str would.
    wanted = {0, 1, 2, 7, 250, 1000}
    g = FElement(X0.num, X0.den)
    for i in range(max(wanted) + 1):
        if i:
            g = FElement(Tree(LEAF, g.num), Tree(LEAF, g.den))
        if i in wanted:
            x = x_generator(i)
            assert leaf_intervals(x.num) == leaf_intervals(g.num)
            assert leaf_intervals(x.den) == leaf_intervals(g.den)


def test_x_generator_builds_deep_generators():
    g = x_generator(5000)
    assert FElement(g.num, g.den).leaves == 5003  # passes the reducedness check
    comb = list(range(1, 5001))
    assert [k for k, _ in leaf_intervals(g.num)] == comb + [5002, 5002, 5001]
    assert [k for k, _ in leaf_intervals(g.den)] == comb + [5001, 5002, 5002]


def test_integer_form_is_read_off_the_points():
    k, xs, ys = X0.to_pl_map()._form
    assert (k, xs, ys) == (2, (0, 2, 3, 4), (0, 1, 2, 4))
    assert PLMap.identity()._form == (0, (0, 1), (0, 1))
    assert PLMap(((0, 0), (1, 1)))._form == (0, (0, 1), (0, 1))
    points = [(0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)), (1, 1)]
    assert PLMap.from_breakpoints(points)._form == X0.to_pl_map()._form
    assert PLMap(tuple(points))._form == X0.to_pl_map()._form
    assert X0.to_pl_map().inverse()._form == (2, (0, 1, 2, 4), (0, 2, 3, 4))
    # The constructor keeps a collinear point, and the form keeps it too;
    # from_breakpoints drops it.
    line = ((0, 0), (F(1, 2), F(1, 2)), (1, 1))
    assert PLMap(line)._form == (1, (0, 1, 2), (0, 1, 2))
    assert PLMap.from_breakpoints(line)._form == (0, (0, 1), (0, 1))
    x0 = X0.to_pl_map()
    assert PLMap(line).compose(x0) == x0 == x0.compose(PLMap(line))
    # k is least: the breakpoint 1/8 -> 1/2 needs 2**3.
    points = [(0, 0), (F(2, 16), F(8, 16)), (F(4, 16), F(12, 16)), (F(8, 16), F(14, 16)), (1, 1)]
    assert PLMap(tuple(points))._form == (3, (0, 1, 2, 4, 8), (0, 4, 6, 7, 8))


#: Breakpoints of maps that are not in F: four with coordinates off the
#: dyadic grid, one with dyadic coordinates but slopes 2 and 2/3, and one
#: with float coordinates (slopes 1/2 and 3/2).
NON_F_POINTS = [
    [(0, 0), (F(1, 3), F(2, 5)), (1, 1)],
    [(0, 0), (F(2, 5), F(1, 3)), (F(5, 7), F(4, 5)), (1, 1)],
    [(0, 0), (F(1, 6), F(1, 2)), (F(1, 2), F(3, 5)), (1, 1)],
    [(0, 0), (F(1, 3), F(1, 3)), (F(2, 3), F(1, 2)), (1, 1)],
    [(0, 0), (F(1, 4), F(1, 2)), (1, 1)],
    [(0, 0), (0.5, 0.25), (1, 1)],
]


@pytest.mark.parametrize("points", NON_F_POINTS)
def test_maps_outside_f_are_refused(points):
    with pytest.raises(ValueError):
        PLMap(tuple(points))
    with pytest.raises(ValueError):
        PLMap.from_breakpoints(points)


def test_refusals_name_the_reason():
    with pytest.raises(ValueError, match="dyadic"):
        PLMap(((0, 0), (F(1, 3), F(2, 5)), (1, 1)))
    with pytest.raises(ValueError, match="powers of 2"):
        PLMap(((0, 0), (F(1, 4), F(1, 2)), (1, 1)))
    with pytest.raises(ValueError, match="rationals"):
        PLMap(((0, 0), (0.5, 0.25), (0.75, 0.5), (1, 1)))
    # from_breakpoints hands x that repeats or falls to the constructor,
    # rather than dividing by zero or dropping the point as collinear.
    for points in (
        [(0, 0), (F(1, 2), F(1, 4)), (F(1, 2), F(1, 2)), (1, 1)],
        [(0, 0), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), (1, 1)],
        [(0, 0), (1, 1), (F(1, 2), F(1, 2)), (1, 1)],
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            PLMap.from_breakpoints(points)
    # from_breakpoints converts a float exactly, so X0's map in floats is X0's.
    floats = [(0, 0), (0.5, 0.25), (0.75, 0.5), (1, 1)]
    assert PLMap.from_breakpoints(floats) == X0.to_pl_map()


def test_dyadic_maps_compose_alike_however_built():
    rng = random.Random(25)
    for _ in range(30):
        a, b = rand_f(rng, rng.randrange(2, 80)), rand_f(rng, rng.randrange(2, 80))
        pa, pb = a.to_pl_map(), b.to_pl_map()
        qa, qb = PLMap.from_breakpoints(pa.points), PLMap(pb.points)
        assert qa == pa and hash(qa) == hash(pa) and str(qa) == str(pa)
        assert qa.compose(qb) == pa.compose(pb) == qa.compose(pb) == pa.compose(qb)
        assert hash(qa.compose(qb)) == hash(pa.compose(pb))
        assert qa.inverse() == pa.inverse() and qa.inverse()._form == pa.inverse()._form


@pytest.mark.parametrize(
    "k, xs, ys, message",
    [
        (1, [0], [0], "run from"),
        (1, [0, 2], [1, 2], "run from"),
        (1, [1, 2], [0, 2], "run from"),
        (1, [0, 1], [0, 2], "run from"),
        (2, [0, 2], [0, 2], "run from"),
        (2, [0, 2, 2, 4], [0, 1, 3, 4], "strictly increasing"),
        (2, [0, 3, 2, 4], [0, 1, 3, 4], "strictly increasing"),
        (2, [0, 1, 3, 4], [0, 3, 3, 4], "strictly increasing"),
        (2, [0, 1, 3, 4], [0, 3, 1, 4], "strictly increasing"),
    ],
)
def test_invalid_integer_breakpoints_raise_the_constructor_errors(k, xs, ys, message):
    with pytest.raises(ValueError, match=message) as ours:
        PLMap._from_ints(k, xs, ys)
    with pytest.raises(ValueError) as theirs:
        PLMap(tuple((F(x, 2**k), F(y, 2**k)) for x, y in zip(xs, ys)))
    assert str(ours.value) == str(theirs.value)


def test_pl_homomorphism_and_injectivity():
    rng = random.Random(4)
    for _ in range(100):
        a, b = rand_f(rng), rand_f(rng)
        assert (a * b).to_pl_map() == a.to_pl_map().compose(b.to_pl_map())
        if a != b:
            assert a.to_pl_map() != b.to_pl_map()


def test_pl_maps_are_dyadic_with_power_of_two_slopes():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_f(rng).to_pl_map()
        for x, y in m.points:
            assert is_dyadic(x) and is_dyadic(y)
        for s in m.slopes():
            assert s.numerator == 1 or s.denominator == 1
            assert (s.numerator & (s.numerator - 1)) == 0
            assert (s.denominator & (s.denominator - 1)) == 0


def test_f_group_axioms():
    rng = random.Random(6)
    e = FElement.identity()
    for _ in range(60):
        a, b, c = rand_f(rng), rand_f(rng), rand_f(rng)
        assert (a * b) * c == a * (b * c)
        assert a * ~a == e and ~a * a == e
        assert a * e == a and e * a == a


def test_x0_x1_product_matches_pl_oracle():
    prod = X0 * X1
    pl = X0.to_pl_map().compose(X1.to_pl_map())
    assert prod.to_pl_map() == pl
    assert prod != X1 * X0  # F is not abelian


def test_pl_machinery_matches_pointwise_evaluation():
    # Both the breakpoint representation and its composition are checked
    # against direct interval-by-interval evaluation from the partitions.
    rng = random.Random(18)
    for _ in range(30):
        a, b = rand_f(rng), rand_f(rng)
        pa = a.to_pl_map()
        comp = pa.compose(b.to_pl_map())
        for x in sample_points(rng, 6):
            assert pa(x) == eval_f(a, x)
            assert comp(x) == eval_f(a, eval_f(b, x))


def _hand_built_maps():
    """Maps of F built from breakpoints rather than by ``to_pl_map``."""
    return [
        # The first two have a collinear point, which from_breakpoints drops.
        PLMap.from_breakpoints(
            [(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)), (1, 1)]
        ),
        PLMap.from_breakpoints(
            [(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(5, 8)), (F(3, 4), F(3, 4)), (1, 1)]
        ),
        PLMap(((0, 0), (F(1, 8), F(1, 2)), (F(1, 4), F(3, 4)), (F(1, 2), F(7, 8)), (1, 1))),
        X0.to_pl_map(),
        PLMap.identity(),
    ]


def test_compose_matches_quadratic_oracle_on_random_f_maps():
    rng = random.Random(20)
    for _ in range(60):
        a, b = rand_f(rng, rng.randrange(2, 60)), rand_f(rng, rng.randrange(2, 60))
        pa, pb = a.to_pl_map(), b.to_pl_map()
        assert pa.compose(pb) == quadratic_compose(pa, pb)


def test_integer_compose_matches_quadratic_oracle_with_inverses_and_other_maps():
    others = _hand_built_maps()
    for f in others:
        for g in others:
            assert f.compose(g) == quadratic_compose(f, g)
            assert f.compose(g).inverse() == g.inverse().compose(f.inverse())
    rng = random.Random(26)
    for _ in range(30):
        pa = rand_f(rng, rng.randrange(2, 90)).to_pl_map()
        pb = rand_f(rng, rng.randrange(2, 90)).to_pl_map()
        for f, g in [(pa, pb), (pa, pb.inverse()), (pa.inverse(), pb), (pa, pa.inverse())]:
            assert f.compose(g) == quadratic_compose(f, g)
        other = rng.choice(others)
        assert pa.compose(other) == quadratic_compose(pa, other)
        assert other.compose(pa) == quadratic_compose(other, pa)


def test_compose_with_inverse_and_identity():
    rng = random.Random(21)
    e = PLMap.identity()
    maps = _hand_built_maps() + [rand_f(rng, rng.randrange(2, 40)).to_pl_map() for _ in range(30)]
    for m in maps:
        assert m.compose(m.inverse()) == e
        assert m.inverse().compose(m) == e
        assert m.compose(e) == m
        assert e.compose(m) == m


def test_call_at_breakpoints_ends_and_midpoints():
    rng = random.Random(22)
    maps = _hand_built_maps() + [rand_f(rng, rng.randrange(2, 40)).to_pl_map() for _ in range(30)]
    for m in maps:
        pts = m.points
        assert m(0) == 0 and m(1) == 1
        for x, y in pts:
            assert m(x) == y
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            assert m((x0 + x1) / 2) == (y0 + y1) / 2
        for x in sample_points(rng, 6):
            assert m(x) == eval_pl(pts, x)
        for x in (F(-1, 3), F(4, 3), -1, 2):
            with pytest.raises(ValueError):
                m(x)


def test_compose_at_2048_leaves():
    rng = random.Random(23)
    a, b = random_element_rng(2048, rng), random_element_rng(2048, rng)
    assert a.to_pl_map().compose(b.to_pl_map()) == (a * b).to_pl_map()


# ----------------------------------------------------------------- T


def test_t_reduction_respects_the_mark():
    # Full tree with even mark reduces; odd mark at depth 1 does not.
    assert rotation_element(0, 3) == TElement.identity()
    assert rotation_element(2, 2) == rotation_element(1, 1)
    r = rotation_element(1, 1)
    assert r.leaves == 2 and r.mark == 1


def test_t_reduction_preserves_circle_map():
    rng = random.Random(7)
    for _ in range(60):
        el = rand_t(rng)
        f = random_forest(el.leaves, el.leaves + rng.randrange(1, 5), rng)
        refined = _v_refine_den(el.to_v(), f)
        n, mark = len(refined.perm), refined.perm[0]
        assert refined.perm == tuple((i + mark) % n for i in range(n))
        back = TElement.reduce(refined.num, refined.den, mark)
        assert back == el
        for x in sample_points(rng, 6):
            assert eval_t_raw(refined.num, refined.den, mark, x) == eval_t(el, x)


def test_t_is_the_cyclic_shift_subgroup_of_v():
    rng = random.Random(19)
    for _ in range(60):
        a, b = rand_t(rng), rand_t(rng)
        n = a.leaves
        assert a.to_v().perm == tuple((i + a.mark) % n for i in range(n))
        assert (a * b).to_v() == a.to_v() * b.to_v()
        assert (~a).to_v() == ~(a.to_v())
        f = rand_f(rng)
        assert f.to_t().to_v() == f.to_v()


def test_unreduced_or_mismarked_t_pair_rejected_by_constructor():
    with pytest.raises(ValueError):
        TElement(caret(), caret(), 0)
    with pytest.raises(ValueError):
        TElement(caret(), caret(), 2)
    with pytest.raises(ValueError):
        TElement(caret(), caret(), -1)
    with pytest.raises(ValueError):
        TElement(caret(), caret(caret()), 1)
    # The mark-1 caret pair wraps around the circle, so it is reduced.
    assert TElement(caret(), caret(), 1) == rotation_element(1, 1)


def test_t_multiplication_matches_circle_oracle():
    rng = random.Random(8)
    for _ in range(60):
        a, b = rand_t(rng), rand_t(rng)
        ab = a * b
        for x in sample_points(rng, 6):
            assert eval_t(ab, x) == eval_t(a, eval_t(b, x))


def test_t_group_axioms():
    rng = random.Random(9)
    e = TElement.identity()
    for _ in range(40):
        a, b, c = rand_t(rng), rand_t(rng), rand_t(rng)
        assert (a * b) * c == a * (b * c)
        assert a * ~a == e and ~a * a == e


def test_f_embeds_in_t():
    rng = random.Random(10)
    for _ in range(40):
        a, b = rand_f(rng), rand_f(rng)
        assert a.to_t() * b.to_t() == (a * b).to_t()


def test_rotation_element_examples():
    assert rotation_element(1, 1) ** 2 == TElement.identity()
    assert rotation_element(1, 2) ** 2 == rotation_element(2, 2)
    with pytest.raises(ValueError):
        rotation_element(4, 2)


def test_rotation_orders():
    for n in range(1, 5):
        r = rotation_element(1, n)
        g = r
        for k in range(1, 2**n):
            assert g != TElement.identity()
            g = g * r
        assert g == TElement.identity()


def test_rotation_is_rotation_on_the_circle():
    rng = random.Random(11)
    for n in (1, 2, 3):
        for a in range(2**n):
            r = rotation_element(a, n)
            for x in sample_points(rng, 5):
                assert eval_t(r, x) == (x + F(a, 2**n)) % 1


# ----------------------------------------------------------------- V


def test_v_reduction_requires_order_preserving_adjacent_images():
    # Swapping the two leaves of a caret pair cannot cancel.
    swap = VElement.reduce(caret(), caret(), (1, 0))
    assert swap.leaves == 2
    assert swap * swap == VElement.identity()
    # Identity permutation on matching carets cancels.
    assert VElement.reduce(caret(), caret(), (0, 1)) == VElement.identity()


def test_v_reduction_preserves_map():
    rng = random.Random(12)
    for _ in range(60):
        el = rand_v(rng)
        f = random_forest(el.leaves, el.leaves + rng.randrange(1, 5), rng)
        refined = _v_refine_den(el, f)
        back = VElement.reduce(refined.num, refined.den, refined.perm)
        assert back == el
        for x in sample_points(rng, 6):
            assert eval_v_raw(refined.num, refined.den, refined.perm, x) == eval_v(el, x)


def test_v_multiplication_matches_point_oracle():
    rng = random.Random(13)
    for _ in range(60):
        a, b = rand_v(rng), rand_v(rng)
        ab = a * b
        for x in sample_points(rng, 6):
            assert eval_v(ab, x) == eval_v(a, eval_v(b, x))


def test_v_group_axioms():
    rng = random.Random(14)
    e = VElement.identity()
    for _ in range(40):
        a, b, c = rand_v(rng), rand_v(rng), rand_v(rng)
        assert (a * b) * c == a * (b * c)
        assert a * ~a == e and ~a * a == e


def test_f_embeds_in_v():
    rng = random.Random(15)
    for _ in range(30):
        a, b = rand_f(rng), rand_f(rng)
        assert a.to_v() * b.to_v() == (a * b).to_v()


# ---------------------------------------------------------- reduction


def _check_against_rescan(num, den, perm):
    """VElement.reduce, and TElement.reduce or reduce_pair where perm is a
    cyclic shift or the identity, against the one-caret-at-a-time oracle."""
    want = rescan_reduce(num, den, perm)
    v = VElement.reduce(num, den, perm)
    assert (v.num, v.den, v.perm) == want
    n = len(perm)
    if perm == tuple((i + perm[0]) % n for i in range(n)):
        assert TElement.reduce(num, den, perm[0]).to_v() == v
        if perm[0] == 0:
            assert reduce_pair(num, den) == want[:2]
    return v


def test_reduction_matches_rescan_oracle_on_all_small_pairs():
    # Every pair of trees with at most 5 leaves under every permutation,
    # which includes every T mark and F's identity.
    for n in range(1, 6):
        trees = list(enumerate_trees(n))
        perms = list(itertools.permutations(range(n)))
        for num in trees:
            for den in trees:
                for perm in perms:
                    _check_against_rescan(num, den, perm)


def test_reduction_matches_rescan_oracle_on_grafted_pairs():
    # Grafting the same subtree onto den leaf i and onto its image, num
    # leaf perm[i], gives an un-reduced pair of the same element.
    rng = random.Random(41)
    for trial in range(300):
        n = rng.randrange(1, 21)
        perm = list(range(n))
        if trial % 3 == 1:
            mark = rng.randrange(n)
            perm = perm[mark:] + perm[:mark]
        elif trial % 3 == 2:
            rng.shuffle(perm)
        num, den = random_tree(n, rng), random_tree(n, rng)
        subs = random_forest(n, rng.randrange(n, 41), rng).trees
        images = [None] * n
        for i, j in enumerate(perm):
            images[j] = subs[i]
        starts = [0]
        for sub in images:
            starts.append(starts[-1] + sub.leaves)
        grafted = tuple(
            starts[j] + t for i, j in enumerate(perm) for t in range(subs[i].leaves)
        )
        v = _check_against_rescan(graft(num, tuple(images)), graft(den, subs), grafted)
        assert v == VElement.reduce(num, den, tuple(perm))


def test_products_and_inverses_are_reduced():
    # Products and inverses skip the constructor's check; reducing their
    # pairs again must cancel nothing.
    rng = random.Random(42)
    for _ in range(12):
        n, m = rng.randrange(16, 129), rng.randrange(16, 129)
        for a, b in (
            (rand_f(rng, n), rand_f(rng, m)),
            (rand_t(rng, n), rand_t(rng, m)),
            (rand_v(rng, n), rand_v(rng, m)),
        ):
            for el in (a * b, ~a, ~(a * b), b * ~b):
                v = el if isinstance(el, VElement) else el.to_v()
                assert cancel_carets(v.num, v.den, v.perm)[0] is v.num


@pytest.mark.parametrize(
    "num, den, perm",
    [(caret(), caret(), (0,)), (parse_tree("((..).)"), parse_tree("(.(..))"), (0, 1))],
)
def test_v_reduce_rejects_a_malformed_permutation(num, den, perm):
    with pytest.raises(ValueError):
        VElement.reduce(num, den, perm)


# ----------------------------------------------------------- sampling


def test_random_element_is_deterministic():
    assert random_element(4, 99) == random_element(4, 99)
    assert random_element(2, 0) == FElement.identity()


def test_random_element_identity_frequency():
    rng = random.Random(0)
    hits = sum(random_element_rng(8, rng).is_identity for _ in range(1000))
    # Regression value: identity means both sampled trees coincide, which
    # happens with probability 1/429 at 8 leaves; observed 2/1000.
    assert hits <= 100


def test_random_element_respects_bound():
    rng = random.Random(1)
    for _ in range(50):
        assert random_element_rng(12, rng).leaves <= 12


# ----------------------------------------------------------- literals


def test_element_literals_round_trip():
    rng = random.Random(16)
    for _ in range(30):
        for el in (rand_f(rng), rand_t(rng), rand_v(rng)):
            assert parse_element(format_element(el)) == el
    assert parse_element("((..).)|(.(..))") == X0
    assert parse_element("(..)|(..)@1") == rotation_element(1, 1)
    assert parse_element("(..)|(..)%1 0") == VElement(caret(), caret(), (1, 0))


def test_parse_element_reduces():
    assert parse_element("(..)|(..)") == FElement.identity()
    assert parse_element("((..)(..))|((..)(..))@2") == rotation_element(1, 1)
