"""Vertex tensors and the functor filling forest vertices with them.

A vertex tensor R of dimension k assigns an exact scalar R[i][j][r] to a
trivalent vertex whose child edges carry colors (i, j) and whose parent
edge carries r.  The functor sends a forest to the linear map obtained by
contracting one copy of R per vertex; matrices are stored dense with
exact integer/Fraction entries of shape (k**leaves, k**roots), leaf
multi-indices flattened in planar order (leftmost leaf most significant).

The functor is kept unnormalized: phi of a tree with V vertices satisfies
phi(t)* phi(t) = c**V * identity, where c is the tensor's unitarity
constant (c = 2 for the 3-coloring tensor).  Downstream inner products
divide out the appropriate power of c, so every value stays rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fraction import LimitVector, limit_inner
from .trees import LEAF, Forest, Tree


def _object_array(rows) -> np.ndarray:
    arr = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            arr[i, j] = x
    return arr


def _identity(k: int) -> np.ndarray:
    return _object_array([[1 if i == j else 0 for j in range(k)] for i in range(k)])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.empty((ra * rb, ca * cb), dtype=object)
    for i in range(ra):
        for j in range(ca):
            out[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb] = a[i, j] * b
    return out


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
    def matrix(self) -> np.ndarray:
        """Shape (k*k, k): rows are child pairs (i, j), columns parents."""
        k = self.dimension
        return _object_array(
            [
                [self.entries[i][j][r] for r in range(k)]
                for i in range(k)
                for j in range(k)
            ]
        )

    @cached_property
    def unitarity_constant(self) -> object:
        """c with sum_{i,j} R[i][j][a] R[i][j][b] == c * delta_ab."""
        k = self.dimension
        gram = self.matrix.T.dot(self.matrix)
        c = gram[0, 0]
        for a in range(k):
            for b in range(k):
                expected = c if a == b else 0
                if gram[a, b] != expected:
                    raise ValueError("tensor fails the unitarity condition")
        if c == 0:
            raise ValueError("degenerate tensor")
        return c


def phi_tree(tree: Tree, tensor: VertexTensor) -> np.ndarray:
    """Matrix of the functor on a single tree: (k**leaves, k)."""
    k = tensor.dimension
    if tree.is_leaf:
        return _identity(k)
    left = phi_tree(tree.left, tensor)
    right = phi_tree(tree.right, tensor)
    # Column r is sum R[i][j][r] * (left[:, i] kron right[:, j]); only the
    # nonzero entries of R contribute.
    out = np.zeros((left.shape[0] * right.shape[0], k), dtype=object)
    for i in range(k):
        for j in range(k):
            for r in range(k):
                x = tensor[i, j, r]
                if x:
                    out[:, r] += x * np.outer(left[:, i], right[:, j]).ravel()
    return out


def phi_forest(forest: Forest, tensor: VertexTensor) -> np.ndarray:
    """Matrix of the functor on a forest: (k**leaves, k**roots)."""
    out = phi_tree(forest.trees[0], tensor)
    for t in forest.trees[1:]:
        out = _kron(out, phi_tree(t, tensor))
    return out


def make_phi(tensor: VertexTensor):
    """Functor handle for the direct-limit machinery."""

    def phi(forest: Forest) -> np.ndarray:
        return phi_forest(forest, tensor)

    return phi


def vacuum(tensor: VertexTensor) -> LimitVector:
    """The unit vector anchored at the trivial tree."""
    return LimitVector(LEAF, _identity(tensor.dimension))


def vacuum_coefficient(g, tensor: VertexTensor) -> Fraction:
    """<pi(g) vacuum, vacuum> by direct tensor contraction.

    Contracts phi(num) against phi(den) over matched leaves and the root
    pair, then divides by the loop value (= dimension) and the unitarity
    constant once per vertex pair.  Agrees with the closed-diagram count
    route in treefrac.coloring for the 3-coloring tensor.
    """
    a = phi_tree(g.num, tensor)
    b = phi_tree(g.den, tensor)
    trace = (a * b).sum()
    n = g.num.leaves
    return Fraction(int(trace), tensor.dimension * int(tensor.unitarity_constant) ** (n - 1))


def inner_product(v: LimitVector, w: LimitVector, tensor: VertexTensor) -> Fraction:
    return limit_inner(
        v, w, make_phi(tensor), tensor.dimension, int(tensor.unitarity_constant)
    )
