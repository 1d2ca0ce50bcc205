"""Vertex tensors and the functor filling tree vertices with them.

A vertex tensor R of dimension k assigns an exact scalar R[i][j][r] to a
trivalent vertex whose child edges carry colors (i, j) and whose parent
edge carries r.  The functor sends a tree to the linear map obtained by
contracting one copy of R per vertex: a matrix with k**leaves rows and k
columns, leaf multi-indices flattened in planar order (leftmost leaf most
significant).  ``_phi_columns`` stores it by columns, each a dict {flat
leaf index: exact value} with no zero entry, so a tree costs time and
memory in its admissible leaf colorings only.

The functor is kept unnormalized: phi of a tree with V vertices satisfies
phi(t)* phi(t) = c**V * identity, where c is the tensor's unitarity
constant (c = 2 for the 3-coloring tensor).  ``vacuum_coefficient``
divides out the power of c, so every value stays rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .thompson import TElement, VElement
from .trees import Tree, leaf_intervals


@dataclass(frozen=True)
class VertexTensor:
    """Exact 3-index tensor with a unitarity constant."""

    dimension: int
    entries: tuple[tuple[tuple[object, ...], ...], ...]  # R[i][j][r]

    @classmethod
    def three_coloring(cls) -> VertexTensor:
        """R[i][j][r] = 1 when i, j, r are pairwise distinct, else 0."""
        k = 3
        entries = tuple(
            tuple(
                tuple(1 if len({i, j, r}) == 3 else 0 for r in range(k))
                for j in range(k)
            )
            for i in range(k)
        )
        return cls(k, entries)

    def __getitem__(self, idx):
        i, j, r = idx
        return self.entries[i][j][r]

    @cached_property
    def nonzero(self) -> tuple[tuple[int, int, int, object], ...]:
        """The entries (i, j, r, R[i][j][r]) with R[i][j][r] != 0."""
        k = self.dimension
        return tuple(
            (i, j, r, self.entries[i][j][r])
            for i in range(k)
            for j in range(k)
            for r in range(k)
            if self.entries[i][j][r]
        )

    @cached_property
    def matrix(self) -> dict[int, list]:
        """Sparse rows: k*k rows, one per child pair (i, j) at index i*k + j,
        k columns; zero rows are absent."""
        k = self.dimension
        rows = {}
        for i, j, r, x in self.nonzero:
            rows.setdefault(i * k + j, [0] * k)[r] = x
        return rows

    @cached_property
    def unitarity_constant(self) -> object:
        """c with sum_{i,j} R[i][j][a] R[i][j][b] == c * delta_ab."""
        k = self.dimension
        rows = self.matrix.values()
        gram = [[sum(row[a] * row[b] for row in rows) for b in range(k)] for a in range(k)]
        c = gram[0][0]
        for a in range(k):
            for b in range(k):
                expected = c if a == b else 0
                if gram[a][b] != expected:
                    raise ValueError("tensor fails the unitarity condition")
        if c == 0:
            raise ValueError("degenerate tensor")
        return c


def _phi_columns(tree: Tree, tensor: VertexTensor) -> list[dict[int, object]]:
    """The functor on a tree in column form: for each root color c, the
    nonzero entries {flat leaf index: value} of column c.

    Built without recursion from the leaf depths, left to right: adjacent
    subtrees of equal depth on the stack are siblings and merge into their
    parent, whose column r sums R[i][j][r] * (left[:, i] kron right[:, j])
    over the nonzero entries of R.
    """
    k = tensor.dimension
    stack: list[tuple[int, int, list[dict[int, object]]]] = []  # (depth, row count, columns)
    for depth, _ in leaf_intervals(tree):
        n_rows, right = k, [{c: 1} for c in range(k)]
        while stack and stack[-1][0] == depth:
            _, left_rows, left = stack.pop()
            cols: list[dict[int, object]] = [{} for _ in range(k)]
            for i, j, r, x in tensor.nonzero:
                col, right_j = cols[r], right[j].items()
                for a, u in left[i].items():
                    base, ux = a * n_rows, u * x
                    for b, v in right_j:
                        col[base + b] = col.get(base + b, 0) + ux * v
            # Entries of a general tensor can cancel: keep only nonzero ones.
            right = [
                {a: x for a, x in col.items() if x} if 0 in col.values() else col
                for col in cols
            ]
            n_rows *= left_rows
            depth -= 1
        stack.append((depth, n_rows, right))
    return stack[0][2]


def vacuum_coefficient(g, tensor: VertexTensor) -> Fraction:
    """<pi(g) vacuum, vacuum> by direct tensor contraction.

    Contracts phi(num) against phi(den) over matched leaves and the root
    pair, then divides by the loop value (= dimension) and the unitarity
    constant once per vertex pair.  Agrees with the closed-diagram count
    route in treefrac.coloring for the 3-coloring tensor.  Defined for F
    elements only: the leaf-by-leaf match ignores a T mark or V permutation.
    """
    if isinstance(g, (TElement, VElement)):
        raise ValueError("closed diagrams are defined for F elements only")
    trace = sum(
        x * den_col[a]
        for num_col, den_col in zip(_phi_columns(g.num, tensor), _phi_columns(g.den, tensor))
        for a, x in num_col.items()
        if a in den_col
    )
    n = g.num.leaves
    return Fraction(trace, tensor.dimension * tensor.unitarity_constant ** (n - 1))
