"""Closed trivalent diagrams obtained by gluing a tree pair.

Gluing (num, den) draws den below with its root edge hanging down, num
above reflected with its root edge going up, matches leaf strand i of den
to leaf strand i of num, and joins the two root edges around one side.
For n >= 2 leaves this gives a connected cubic planar multigraph with
V = 2(n-1) vertices, E = 3(n-1) edges and F = n + 1 faces; one leaf gives
a single free loop (V = E = 0, two faces).

Face i is the gap before strand i in planar order (faces 0 and n are the
outer regions, split by the root edge).  The edge above a tree node with
leaves [a, b) separates faces a and b: strand i has dual edge (i, i+1),
the root edge (0, n), and each tree's other edges are the diagonals of a
triangulation of the (n+1)-gon on the gaps 0..n (cf. Jones,
arXiv:1412.7740).  ``closed_graph`` builds both in one stack pass per
tree over the leaf depths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .thompson import TElement, VElement
from .trees import leaf_intervals


@dataclass(frozen=True)
class ClosedDiagram:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    dual: tuple[tuple[int, int], ...]  # per edge, the faces on its two sides
    free_loops: int = 0

    def __post_init__(self):
        if self.vertex_count and self.free_loops:
            raise ValueError("mixed diagrams with vertices and free loops unsupported")
        if len(self.dual) != len(self.edges):
            raise ValueError("a closed diagram has one dual edge per edge")
        degrees = Counter(chain.from_iterable(self.edges))
        if degrees != Counter(dict.fromkeys(range(self.vertex_count), 3)):
            raise ValueError("every vertex of a closed diagram is trivalent")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        if self.vertex_count == 0:
            # L concentric loops cut the sphere into L + 1 faces.
            return self.free_loops + 1
        return self.vertex_count // 2 + 2

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def face_edge_sets(self) -> tuple[frozenset[int], ...]:
        sets = [set() for _ in range(self.face_count)]
        for e, ends in enumerate(self.dual):
            for f in ends:
                sets[f].add(e)
        return tuple(map(frozenset, sets))

    def dual_edges(self) -> tuple[tuple[int, int], ...]:
        """One dual edge per primal edge, joining the faces on its two sides.

        For a pure-loop diagram the faces are nested concentric rings and
        each loop separates consecutive rings.
        """
        if self.vertex_count == 0:
            return tuple((i, i + 1) for i in range(self.free_loops))
        return self.dual


def _glue_tree(depths: list[int], first_vertex: int):
    """Tree edges, their dual edges and each leaf's vertex, from leaf depths.

    Adjacent stack entries of equal depth are siblings, as in
    ``trees.tree_from_depths``; each merge makes the next vertex.  An entry
    is (depth, first leaf, vertex), with vertex None for a leaf; while leaf
    i is pushed, the entry being built ends at leaf i + 1.
    """
    edges: list[tuple[int, int]] = []
    dual: list[tuple[int, int]] = []
    owner = [0] * len(depths)
    vertex = first_vertex - 1
    stack: list[tuple[int, int, int | None]] = []
    for i, d in enumerate(depths):
        a, node = i, None
        while stack and stack[-1][0] == d:
            _, left_a, left = stack.pop()
            vertex += 1
            for child, lo, hi in ((left, left_a, a), (node, a, i + 1)):
                if child is None:
                    owner[lo] = vertex
                else:
                    edges.append((vertex, child))
                    dual.append((lo, hi))
            a, node, d = left_a, vertex, d - 1
        stack.append((d, a, node))
    return edges, dual, owner


def closed_graph(g) -> ClosedDiagram:
    """Glue an F tree pair (FElement, FractionPair, or (num, den)) shut."""
    if isinstance(g, (TElement, VElement)):
        raise ValueError("closed diagrams are defined for F elements only")
    num, den = g if isinstance(g, tuple) else (g.num, g.den)
    den_depths = [k for k, _ in leaf_intervals(den)]
    num_depths = [k for k, _ in leaf_intervals(num)]
    n = len(den_depths)
    if len(num_depths) != n:
        raise ValueError("leaf counts differ")
    if n == 1:
        return ClosedDiagram(0, (), (), free_loops=1)

    edges, dual, den_owner = _glue_tree(den_depths, 0)
    num_edges, num_dual, num_owner = _glue_tree(num_depths, n - 1)
    # Each tree's root is its last vertex; the root edge joins them.
    edges += num_edges + [(n - 2, 2 * n - 3)] + list(zip(den_owner, num_owner))
    dual += num_dual + [(0, n)] + [(i, i + 1) for i in range(n)]
    return ClosedDiagram(2 * (n - 1), tuple(edges), tuple(dual))
