"""Coloring counts and closed-diagram values, pinned against brute force."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import (
    brute_chromatic,
    brute_edge_colorings,
    brute_face_colorings,
    deletion_contraction_chromatic,
)
from treefrac import coloring
from treefrac.coloring import (
    SweepLimitError,
    chromatic_value,
    coefficient,
    count_proper_colorings,
    edge_coloring_count,
    face_coloring_count,
    value2_subgroup_test,
)
from treefrac.diagrams import closed_graph
from treefrac.thompson import FElement, parse_element, random_element_rng, x_generator
from treefrac.trees import LEAF, caret, enumerate_trees, random_tree

F = Fraction
X0 = x_generator(0)

LOOP = closed_graph((LEAF, LEAF))
THETA = closed_graph((caret(), caret()))
K4 = closed_graph(X0)


def face_value(g, n: int = 3) -> Fraction:
    """The face model's coefficient as ``coeff --model face:n`` prints it:
    the n-coloring count of the map over n."""
    return F(face_coloring_count(closed_graph(g), n), n)


def small_diagrams(rng, count, max_leaves=6):
    out = []
    for _ in range(count):
        n = rng.randrange(1, max_leaves + 1)
        out.append(closed_graph((random_tree(n, rng), random_tree(n, rng))))
    return out


# ------------------------------------------------------- chromatic engine


def test_chromatic_engine_small_cases():
    tri = [(0, 1), (1, 2), (0, 2)]
    assert count_proper_colorings(range(3), tri, 3) == 6
    assert count_proper_colorings(range(3), tri, 4) == 24
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert count_proper_colorings(range(4), k4, 3) == 0
    assert count_proper_colorings(range(4), k4, 4) == 24
    assert count_proper_colorings(range(2), [(0, 1), (0, 1)], 3) == 6  # parallel
    assert count_proper_colorings(range(1), [(0, 0)], 5) == 0  # loop
    assert count_proper_colorings(range(3), [], 5) == 125


def test_chromatic_engine_matches_brute_force_on_random_multigraphs():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 7)
        edges = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 10))
        ]
        for q in (2, 3, 4):
            assert count_proper_colorings(range(n), edges, q) == brute_chromatic(
                range(n), edges, q
            )


def random_multigraph(rng):
    """Several components, isolated vertices, parallel edges, maybe loops."""
    names = [f"v{i}" for i in range(rng.randrange(1, 9))]
    if rng.random() < 0.5:
        names = [("face", i) for i in range(len(names))]
    pieces = []
    rest = list(names)
    while rest:
        size = rng.randrange(1, len(rest) + 1)
        pieces.append(rest[:size])
        rest = rest[size:]
    edges = []
    for piece in pieces:
        for _ in range(rng.randrange(0, 2 * len(piece) + 1)):
            edges.append((rng.choice(piece), rng.choice(piece)))
    if edges and rng.random() < 0.7:
        edges.append(edges[-1][::-1])  # a parallel edge
    edges = [e for e in edges if e[0] != e[1] or rng.random() < 0.1]
    return names, edges


def test_sweep_matches_oracles_on_random_multigraphs():
    rng = random.Random(39)
    for _ in range(150):
        names, edges = random_multigraph(rng)
        shuffled = names[:]
        rng.shuffle(shuffled)
        for q in (2, 3, 4, F(7, 2), F(13, 4)):
            expected = deletion_contraction_chromatic(names, edges, q)
            if isinstance(q, int):
                assert expected == brute_chromatic(names, edges, q)
            assert count_proper_colorings(names, edges, q) == expected
            assert count_proper_colorings(iter(shuffled), edges, q) == expected


def test_sweep_matches_deletion_contraction_on_duals():
    rng = random.Random(40)
    for i in range(60):
        d = closed_graph(random_element_rng(2 + i % 9, rng))
        faces = list(range(d.face_count))
        rng.shuffle(faces)
        for q in (3, 4, F(13, 4)):
            assert count_proper_colorings(
                faces, d.dual_edges(), q
            ) == deletion_contraction_chromatic(faces, d.dual_edges(), q)


def test_sweep_state_cap_raises_a_value_error(monkeypatch):
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    q = F(7, 2)
    assert count_proper_colorings(range(5), cycle, q) == (q - 1) ** 5 - (q - 1)
    monkeypatch.setattr(coloring, "MAX_SWEEP_STATES", 1)
    with pytest.raises(SweepLimitError) as exc:
        count_proper_colorings(range(5), cycle, q)
    assert isinstance(exc.value, ValueError)


def test_chromatic_engine_is_exact_in_fractions():
    tri = [(0, 1), (1, 2), (0, 2)]
    q = F(7, 2)
    assert count_proper_colorings(range(3), tri, q) == q * (q - 1) * (q - 2)


# ------------------------------------------------------- edge colorings


def test_edge_coloring_examples():
    assert edge_coloring_count(THETA, 3) == 6
    assert edge_coloring_count(K4, 3) == 6
    assert edge_coloring_count(LOOP, 3) == 3


def test_edge_coloring_matches_brute_force():
    rng = random.Random(32)
    for d in small_diagrams(rng, 25, max_leaves=4):
        assert edge_coloring_count(d, 3) == brute_edge_colorings(d, 3)
        assert edge_coloring_count(d, 4) == brute_edge_colorings(d, 4)


def test_edge_coloring_backtracker_matches_brute_force_on_small_pairs():
    for n in (1, 2, 3):
        for num in enumerate_trees(n):
            for den in enumerate_trees(n):
                d = closed_graph((num, den))
                for colors in (4, 5):
                    assert edge_coloring_count(d, colors) == brute_edge_colorings(
                        d, colors
                    )


def test_edge_coloring_matches_line_graph_oracle():
    """k colors on the edges are k colors on the vertices of the line graph."""
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randrange(2, 6)
        d = closed_graph((random_tree(n, rng), random_tree(n, rng)))
        line = [
            (e, f)
            for e in range(d.edge_count)
            for f in range(e + 1, d.edge_count)
            if set(d.edges[e]) & set(d.edges[f])
        ]
        for colors in (4, 5):
            assert edge_coloring_count(d, colors) == deletion_contraction_chromatic(
                range(d.edge_count), line, colors
            )


def test_edge_coloring_positive_and_divisible_by_six():
    rng = random.Random(33)
    for _ in range(40):
        g = random_element_rng(rng.randrange(2, 11), rng)
        if g.is_identity:
            continue
        count = edge_coloring_count(closed_graph(g), 3)
        assert count > 0
        assert count % 6 == 0


# ------------------------------------------------------- face colorings


def test_face_coloring_examples():
    assert face_coloring_count(LOOP, 3) == 6
    assert face_coloring_count(THETA, 3) == 6
    assert face_coloring_count(K4, 3) == 0
    assert face_coloring_count(K4, 4) == 24


@pytest.mark.parametrize("n", [0, -1])
def test_face_coloring_needs_a_color(n):
    with pytest.raises(ValueError):
        face_coloring_count(K4, n)
    with pytest.raises(ValueError):
        face_value(X0, n)


def test_face_coloring_matches_brute_force():
    rng = random.Random(34)
    for d in small_diagrams(rng, 25, max_leaves=5):
        if d.vertex_count == 0:
            continue
        sets = [set(s) for s in d.face_edge_sets()]
        assert face_coloring_count(d, 3) == brute_face_colorings(sets, 3)


def test_face_counts_lie_in_zero_or_six():
    rng = random.Random(35)
    for _ in range(40):
        g = random_element_rng(rng.randrange(2, 10), rng)
        assert face_coloring_count(closed_graph(g), 3) in (0, 6)


def test_face_3_colorable_iff_dual_degrees_even():
    """Heawood: a plane triangulation is 3-colorable iff all degrees are even."""
    rng = random.Random(41)
    sample = [random_element_rng(2 + i % 10, rng) for i in range(1000)]
    sample += value2_sample()
    for g in sample:
        if g.is_identity:
            continue
        d = closed_graph(g)
        degree = [0] * d.face_count
        for u, v in d.dual_edges():
            degree[u] += 1
            degree[v] += 1
        even = all(k % 2 == 0 for k in degree)
        assert (face_coloring_count(d, 3) == 6) == even


# ------------------------------------------------------- chromatic value


def test_chromatic_value_calibration():
    for d in (F(2), F(3), F(9, 4), F(7)):
        assert chromatic_value(LOOP, d) == d
        assert chromatic_value(THETA, d) == d
    assert chromatic_value(K4, F(3)) == F(3, 2)
    with pytest.raises(ValueError):
        chromatic_value(THETA, F(1))


def test_chromatic_value_matches_edge_model_at_d3():
    rng = random.Random(36)
    for _ in range(50):
        g = random_element_rng(rng.randrange(2, 10), rng)
        assert coefficient(g) == chromatic_value(closed_graph(g), F(3)) / 3


# ------------------------------------------------------- coefficients


def test_coefficient_examples():
    assert coefficient(FElement.identity()) == 1
    assert coefficient(X0) == F(1, 2)
    # Unreduced caret pair: theta counts 6, two vertices.
    from treefrac.fraction import FractionPair

    assert coefficient(FractionPair(caret(), caret())) == 1


@pytest.mark.parametrize("literal", ["((..).)|(.(..))@1", "((..).)|(.(..))%1 0 2"])
def test_t_and_v_elements_have_no_coefficient(literal):
    g = parse_element(literal)
    with pytest.raises(ValueError, match="F elements only"):
        coefficient(g)
    with pytest.raises(ValueError, match="F elements only"):
        face_value(g)
    with pytest.raises(ValueError, match="F elements only"):
        chromatic_value(closed_graph(g), F(3))


def test_coefficient_invariant_under_unreduction():
    rng = random.Random(37)
    from treefrac.trees import random_forest

    for _ in range(30):
        g = random_element_rng(rng.randrange(2, 8), rng)
        f = random_forest(g.leaves, g.leaves + rng.randrange(1, 4), rng)
        assert coefficient(g.pair().refine(f)) == coefficient(g)


def test_coefficient_bounded_by_one():
    rng = random.Random(38)
    for _ in range(40):
        g = random_element_rng(rng.randrange(2, 11), rng)
        c = coefficient(g)
        assert 0 < c <= 1


# ------------------------------------------------------- value-2 subgroup


def value2_sample():
    """All reduced pairs with up to 5 leaves plus the identity.

    The value-2 locus is thin: the smallest elements with face-coefficient
    2 besides the identity have 5 leaves (there are eight of them).
    """
    sample = [FElement.identity()]
    for n in (2, 3, 4, 5):
        for num in enumerate_trees(n):
            for den in enumerate_trees(n):
                g = FElement.reduce(num, den)
                if g.leaves == n:
                    sample.append(g)
    return sample


def test_value2_identity_and_x0():
    assert face_value(FElement.identity()) == 2
    assert face_value(X0) == 0


def test_value2_subgroup_report():
    report = value2_subgroup_test(value2_sample())
    assert report.counts_ok
    assert report.counts_seen == (0, 6)
    assert report.member_count > 1  # nontrivial members exist
    assert report.closure_ok
    assert report.inverses_ok
    assert report.ok
