"""Partition-function values of closed diagrams via colorings.

Three evaluations of the same closed diagram:

- edge_coloring_count: proper edge colorings (the three edge colors at
  every vertex pairwise distinct).  For 3 colors this is computed through
  the classical correspondence with proper 4-colorings of the faces:
  #edge-3-colorings = (proper 4-face-colorings) / 4 for connected plane
  cubic graphs, both sides vanishing exactly when a bridge is present.
  For k > 3 colors it is the chromatic value at k of the line graph
  (one vertex per edge, two adjacent when the edges share an end).
- face_coloring_count: proper n-colorings of the map (faces sharing an
  edge receive distinct colors) = chromatic value of the dual multigraph.
- chromatic_value: the closed-diagram value in the quotient planar
  algebra with loop parameter d, namely
      (d-1)^(-V/2) * chi_dual(d+1) / (d+1),
  calibrated so a single loop and the theta graph both evaluate to d and
  any diagram with a bridge (tadpole stem) evaluates to 0.

Every count goes through one chromatic engine, count_proper_colorings, a
frontier sweep (a transfer matrix in the sense of Salas and Sokal,
J. Stat. Phys. 2001).  It places the vertices one at a time, next the
vertex with the most neighbours already placed, ties going to the fewest
neighbours still unplaced and then to the earliest in the input.  The
frontier is the placed vertices that still have an unplaced neighbour.
A state is a partition of the frontier into color classes, carrying the
exact number of colorings of the placed vertices that induce it.  A new
vertex joins a class holding none of its neighbours, or opens a class at
a factor (q - number of classes); a vertex leaves the frontier with its
last unplaced neighbour.  The dual of a glued tree pair keeps a narrow
frontier, so the sweep stays small, and the engine evaluates at any
exact scalar q.  Nothing is cached between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .diagrams import ClosedDiagram, closed_graph
from .thompson import FElement

#: Loop value and unitarity constant of the 3-dimensional vertex model
#: behind the edge-3-coloring count (see treefrac.tensors for the checks).
EDGE3_LOOP_VALUE = 3
EDGE3_UNITARITY = 2

#: Most partition states the coloring sweep holds after placing a vertex.
#: A wider graph raises SweepLimitError rather than exhausting memory.
MAX_SWEEP_STATES = 100_000


class SweepLimitError(ValueError):
    """The coloring sweep needs more than MAX_SWEEP_STATES states."""


def count_proper_colorings(vertices, edges, q):
    """Chromatic value chi_G(q) of a multigraph, exact in q.

    `vertices` is an iterable of hashable vertex names, `edges` an
    iterable of (u, v) pairs; parallel edges are collapsed and a loop
    makes the count zero.  Raises SweepLimitError when the sweep would
    hold more than MAX_SWEEP_STATES partitions at once.
    """
    names = list(dict.fromkeys(vertices))
    neighbours = {v: set() for v in names}
    for u, v in edges:
        if u == v:
            return 0 * q
        neighbours[u].add(v)
        neighbours[v].add(u)

    position = {v: i for i, v in enumerate(names)}
    unplaced_neighbours = {v: len(neighbours[v]) for v in names}
    placed_neighbours = dict.fromkeys(names, 0)
    unplaced = set(names)
    frontier: list = []
    # Restricted-growth labels of the frontier (class i opens before
    # class i + 1) -> number of colorings of the placed vertices that
    # split the frontier into exactly those classes.
    states = {(): q**0}
    limit = MAX_SWEEP_STATES
    while unplaced:
        v = min(
            unplaced,
            key=lambda w: (-placed_neighbours[w], unplaced_neighbours[w], position[w]),
        )
        unplaced.remove(v)
        adjacent = [i for i, w in enumerate(frontier) if w in neighbours[v]]
        for w in neighbours[v]:
            unplaced_neighbours[w] -= 1
            placed_neighbours[w] += 1
        frontier.append(v)
        kept = [i for i, w in enumerate(frontier) if unplaced_neighbours[w]]
        frontier = [frontier[i] for i in kept]

        successors: dict = {}
        for labels, weight in states.items():
            classes = max(labels, default=-1) + 1
            blocked = {labels[i] for i in adjacent}
            choices = [(c, weight) for c in range(classes) if c not in blocked]
            if q != classes:
                choices.append((classes, weight * (q - classes)))
            for c, w in choices:
                placed = labels + (c,)
                key = _relabel([placed[i] for i in kept])
                successors[key] = successors.get(key, 0) + w
            if len(successors) > limit:
                raise SweepLimitError(
                    f"coloring sweep needs more than {limit} partition states"
                )
        states = successors
    return sum(states.values())


def _relabel(labels):
    first_seen: dict = {}
    return tuple(first_seen.setdefault(c, len(first_seen)) for c in labels)


def _dual_chromatic(diagram: ClosedDiagram, q):
    return count_proper_colorings(
        range(diagram.face_count), diagram.dual_edges(), q
    )


def edge_coloring_count(diagram: ClosedDiagram, colors: int = 3) -> int:
    """Number of proper edge colorings with the given palette."""
    if colors < 3:
        raise ValueError("need at least 3 colors at a trivalent vertex")
    factor = colors**diagram.free_loops
    if diagram.vertex_count == 0:
        return factor
    if colors == 3:
        tait = _dual_chromatic(diagram, 4)
        assert tait % 4 == 0
        return factor * (tait // 4)
    incident = [[] for _ in range(diagram.vertex_count)]
    for e, ends in enumerate(diagram.edges):
        for v in ends:
            incident[v].append(e)
    line = [pair for es in incident for pair in combinations(es, 2)]
    return factor * count_proper_colorings(range(diagram.edge_count), line, colors)


def face_coloring_count(diagram: ClosedDiagram, n: int) -> int:
    """Number of proper n-colorings of the map defined by the diagram."""
    if n < 1:
        raise ValueError(f"face colorings need at least one color, got {n}")
    return _dual_chromatic(diagram, n)


def chromatic_value(diagram: ClosedDiagram, d: Fraction) -> Fraction:
    """Value of the closed diagram in the loop-parameter-d planar algebra."""
    d = Fraction(d)
    if d == 1:
        raise ValueError("the evaluation is singular at d = 1")
    chi = _dual_chromatic(diagram, d + 1)
    return chi / (d + 1) / (d - 1) ** (diagram.vertex_count // 2)


def coefficient(g) -> Fraction:
    """Vacuum coefficient of a group element in the 3-coloring vertex model.

    This is the edge-coloring count of the glued diagram, divided by the
    loop value 3 and by the unitarity constant 2 once per pair of
    vertices.  The value is invariant under un-reduction of the pair,
    equals 1 on the identity, and is bounded by 1 in absolute value.
    """
    diagram = closed_graph(g)
    return coefficient_from_count(diagram, edge_coloring_count(diagram, 3))


def coefficient_from_count(diagram: ClosedDiagram, count: int) -> Fraction:
    """The vertex-model coefficient from the diagram's edge 3-coloring count."""
    return Fraction(
        count, EDGE3_LOOP_VALUE * EDGE3_UNITARITY ** (diagram.vertex_count // 2)
    )


@dataclass(frozen=True)
class Value2Report:
    sample_size: int
    counts_seen: tuple[int, ...]
    counts_ok: bool
    member_count: int
    products_checked: int
    closure_ok: bool
    inverses_ok: bool

    @property
    def ok(self) -> bool:
        return self.counts_ok and self.closure_ok and self.inverses_ok


def value2_subgroup_test(sample: list[FElement], max_products: int = 200) -> Value2Report:
    """Check the face-model value-2 locus behaves like a subgroup.

    Face counts at n = 3 must lie in {0, 6}; elements of face-coefficient
    2 must be closed under inverse and (pairwise, up to max_products)
    under multiplication.
    """
    counts = {g: face_coloring_count(closed_graph(g), 3) for g in sample}
    counts_ok = all(c in (0, 6) for c in counts.values())
    members = [g for g, c in counts.items() if c == 6]
    inverses_ok = all(
        face_coloring_count(closed_graph(~g), 3) == 6 for g in members
    )
    checked = 0
    closure_ok = True
    for a in members:
        for b in members:
            if checked >= max_products:
                break
            checked += 1
            if face_coloring_count(closed_graph(a * b), 3) != 6:
                closure_ok = False
        if checked >= max_products or not closure_ok:
            break
    return Value2Report(
        sample_size=len(sample),
        counts_seen=tuple(sorted(set(counts.values()))),
        counts_ok=counts_ok,
        member_count=len(members),
        products_checked=checked,
        closure_ok=closure_ok,
        inverses_ok=inverses_ok,
    )
