"""Independent oracles shared by the test suite.

These deliberately avoid the library's own composition/reduction and
counting machinery: element oracles evaluate maps pointwise straight from
partitions, the PL oracles build maps from `Fraction` partitions and
compose breakpoint lists by sorting and linear scans, the rescan
reduction cancels one caret at a time, coloring oracles enumerate
assignments exhaustively or run the deletion-contraction recursion the
library no longer uses, the dual oracle traces the faces of
a glued pair's rotation system, and the tensor oracle sums over colorings
of a forest's internal edges.  The orbit oracle iterates the
renormalization map on Fraction vectors, reducing every coordinate at
every step, the decimal-exponent oracle steps one power of ten at a
time, the bound-sampling oracle draws each coordinate with its own
`randrange` call, and the square-forms oracle draws all its points before
its loop.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from treefrac.renorm import B1, B2, B3, Q4Vector, SquareFormsReport, _Coeffs
from treefrac.thompson import PLMap
from treefrac.trees import LEAF, Tree, tree_to_partition


def is_dyadic(x: Fraction) -> bool:
    """Whether the denominator of x is a power of two."""
    d = x.denominator
    return d & (d - 1) == 0


def eval_f(el, x: Fraction) -> Fraction:
    """Evaluate an F element as a PL map of [0, 1], straight from partitions."""
    xs = tree_to_partition(el.den)
    ys = tree_to_partition(el.num)
    if x == 1:
        return Fraction(1)
    i = max(k for k in range(len(xs) - 1) if xs[k] <= x)
    return ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])


def eval_pl(points, x: Fraction) -> Fraction:
    """Evaluate a breakpoint list at x by a linear scan of its segments."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError("argument outside [0, 1]")


def fraction_to_pl_map(el):
    """`FElement.to_pl_map` by the library's former route: zip the two
    trees' partitions into breakpoints and drop the collinear ones on
    `Fraction` slopes."""
    return PLMap.from_breakpoints(list(zip(tree_to_partition(el.den), tree_to_partition(el.num))))


def quadratic_compose(f, g):
    """f after g, the library's former route: sort g's breakpoints with g^-1
    of f's, then evaluate both maps by linear scan at every merged point."""
    inverse = [(y, x) for x, y in g.points]
    xs = sorted({x for x, _ in g.points} | {eval_pl(inverse, x) for x, _ in f.points})
    return type(f).from_breakpoints([(x, eval_pl(f.points, eval_pl(g.points, x))) for x in xs])


def eval_t_raw(num, den, mark: int, x: Fraction) -> Fraction:
    """Evaluate a marked pair as a circle map of [0, 1), reducing mod 1."""
    n = num.leaves
    xs = tree_to_partition(den)
    ys = tree_to_partition(num)
    i = max(k for k in range(n) if xs[k] <= x)
    j = (i + mark) % n
    y = ys[j] + (ys[j + 1] - ys[j]) * (x - xs[i]) / (xs[i + 1] - xs[i])
    return y % 1


def eval_t(el, x: Fraction) -> Fraction:
    return eval_t_raw(el.num, el.den, el.mark, x)


def eval_v_raw(num, den, perm, x: Fraction) -> Fraction:
    """Evaluate a permuted pair as a right-continuous map of [0, 1)."""
    xs = tree_to_partition(den)
    ys = tree_to_partition(num)
    i = max(k for k in range(num.leaves) if xs[k] <= x)
    j = perm[i]
    return ys[j] + (ys[j + 1] - ys[j]) * (x - xs[i]) / (xs[i + 1] - xs[i])


def eval_v(el, x: Fraction) -> Fraction:
    return eval_v_raw(el.num, el.den, el.perm, x)


def rescan_reduce(num, den, perm):
    """Reduce a permuted tree pair one caret at a time, rescanning after each.

    Den leaf i goes to num leaf perm[i].  A den caret at leaves (i, i+1)
    cancels when perm sends them to (j, j+1) and those form a num caret.
    """
    perm = list(perm)
    while True:
        num_carets = set(_caret_lefts(num, 0))
        hit = next(
            (i for i in _caret_lefts(den, 0) if perm[i + 1] == perm[i] + 1 and perm[i] in num_carets),
            None,
        )
        if hit is None:
            return num, den, tuple(perm)
        j = perm[hit]
        num, den = _collapse(num, j), _collapse(den, hit)
        perm = [p - (p > j) for i, p in enumerate(perm) if i != hit + 1]


def _caret_lefts(t, base):
    """0-based index of the left leaf of every caret of t, offset by base."""
    if t.is_leaf:
        return []
    if t.left.is_leaf and t.right.is_leaf:
        return [base]
    return _caret_lefts(t.left, base) + _caret_lefts(t.right, base + t.left.leaves)


def _collapse(t, i):
    """t with the caret whose left leaf is leaf i (0-based) made a leaf."""
    if t.left.is_leaf and t.right.is_leaf:
        return LEAF
    if i < t.left.leaves:
        return Tree(_collapse(t.left, i), t.right)
    return Tree(t.left, _collapse(t.right, i - t.left.leaves))


def sample_points(rng, count=12):
    """Random dyadic points in [0, 1)."""
    out = []
    for _ in range(count):
        e = rng.randrange(1, 10)
        out.append(Fraction(rng.randrange(0, 2**e), 2**e))
    return out


def traced_dual(num, den):
    """Dual edges of the glued pair (n >= 2 leaves) by tracing faces.

    Vertices are numbered in preorder, den's first.  Each vertex has three
    ports in counterclockwise order: a den vertex (parent, right, left), a
    num vertex, drawn reflected, (parent, left, right).  Edge e owns darts
    2e and 2e+1; a face is an orbit of "cross to the twin dart, then turn
    to the next port counterclockwise".  Returns one (face, face) pair per
    edge, the n strands last and in order, with faces named by a dart.
    """
    ports = {}  # (vertex, slot) -> dart
    vertices = itertools.count()

    def join(a, b):
        ports[a] = len(ports)
        ports[b] = len(ports)

    def walk(tree, slots, leaves):
        v = next(vertices)
        for side, sub in enumerate((tree.left, tree.right)):
            if sub.is_leaf:
                leaves.append((v, slots[side]))
            else:
                join((v, slots[side]), (walk(sub, slots, leaves), 0))
        return v

    den_leaves, num_leaves = [], []
    join((walk(den, (2, 1), den_leaves), 0), (walk(num, (1, 2), num_leaves), 0))
    for a, b in zip(den_leaves, num_leaves):
        join(a, b)
    port_of = {d: port for port, d in ports.items()}
    face = {}
    for start in ports.values():
        d = start
        while d not in face:
            face[d] = start
            v, slot = port_of[d ^ 1]
            d = ports[(v, (slot + 1) % 3)]
    return [(face[2 * e], face[2 * e + 1]) for e in range(len(ports) // 2)]


def brute_edge_colorings(diagram, colors: int) -> int:
    """Count proper edge colorings by exhaustive enumeration."""
    edges = diagram.edges
    total = 0
    incident = [[] for _ in range(diagram.vertex_count)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    for assignment in itertools.product(range(colors), repeat=len(edges)):
        ok = all(
            len({assignment[e] for e in inc}) == len(inc) for inc in incident
        )
        if ok:
            total += 1
    return total * colors**diagram.free_loops


def brute_face_colorings(faces_edges, colors: int) -> int:
    """Count proper face colorings given each face's incident edge set."""
    nfaces = len(faces_edges)
    total = 0
    for assignment in itertools.product(range(colors), repeat=nfaces):
        ok = True
        for i in range(nfaces):
            for j in range(i, nfaces):
                shared = faces_edges[i] & faces_edges[j] if i != j else set()
                if shared and assignment[i] == assignment[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def brute_chromatic(vertices, edges, q: int) -> int:
    """Count proper vertex colorings of a multigraph by enumeration."""
    vs = sorted(vertices)
    idx = {v: i for i, v in enumerate(vs)}
    total = 0
    for assignment in itertools.product(range(q), repeat=len(vs)):
        if all(assignment[idx[u]] != assignment[idx[v]] for u, v in edges):
            total += 1
    return total


def deletion_contraction_chromatic(vertices, edges, q):
    """Chromatic value of a multigraph by memoized deletion-contraction.

    Loops force 0 and parallel edges collapse.  Isolated vertices, pendant
    vertices and components split off before an edge at a vertex of
    maximum degree is deleted and contracted.  Vertex names must be
    mutually comparable.
    """
    vs = frozenset(vertices)
    simple = set()
    for u, v in edges:
        if u == v:
            return 0 * q
        simple.add(frozenset((u, v)))
    return _chromatic(vs, frozenset(simple), q, {})


def _canonical(vertices, edges):
    rank = {v: i for i, v in enumerate(sorted(vertices))}
    return (
        len(vertices),
        frozenset(frozenset(rank[w] for w in e) for e in edges),
    )


def _chromatic(vertices, edges, q, memo):
    if not edges:
        return q ** len(vertices)
    key = _canonical(vertices, edges)
    if key in memo:
        return memo[key]

    degree = {v: 0 for v in vertices}
    for e in edges:
        for v in e:
            degree[v] += 1

    isolated = {v for v, d in degree.items() if d == 0}
    if isolated:
        value = q ** len(isolated) * _chromatic(vertices - isolated, edges, q, memo)
        memo[key] = value
        return value

    pendant = next((v for v, d in degree.items() if d == 1), None)
    if pendant is not None:
        rest = frozenset(e for e in edges if pendant not in e)
        value = (q - 1) * _chromatic(vertices - {pendant}, rest, q, memo)
        memo[key] = value
        return value

    component = _component(vertices, edges)
    if len(component) < len(vertices):
        inside = frozenset(e for e in edges if e <= component)
        outside = edges - inside
        value = _chromatic(component, inside, q, memo) * _chromatic(
            vertices - component, outside, q, memo
        )
        memo[key] = value
        return value

    u = max(vertices, key=lambda v: (degree[v], v))
    edge = next(e for e in edges if u in e)
    (v,) = edge - {u}
    deleted = _chromatic(vertices, edges - {edge}, q, memo)
    contracted_edges = set()
    for e in edges - {edge}:
        f = frozenset(u if w == v else w for w in e)
        if len(f) == 2:
            contracted_edges.add(f)
    contracted = _chromatic(vertices - {v}, frozenset(contracted_edges), q, memo)
    value = deleted - contracted
    memo[key] = value
    return value


def _component(vertices, edges):
    start = next(iter(vertices))
    seen = {start}
    frontier = [start]
    adj: dict = {v: [] for v in vertices}
    for e in edges:
        u, v = tuple(e)
        adj[u].append(v)
        adj[v].append(u)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def brute_phi_forest(forest, entries, k: int) -> list[list]:
    """Dense matrix of the vertex-tensor functor on a forest, by state sum.

    Entry [leaf colors][root colors] (both flattened with the leftmost
    index most significant) is the sum, over every coloring of the
    internal edges, of the product of entries[i][j][r] over the vertices,
    where i, j are the colors of the vertex's child edges and r that of
    its parent edge.  Every tree edge gets a number: leaf edges first, in
    planar order, then root edges, then internal edges.
    """
    n_leaves = sum(t.leaves for t in forest.trees)
    n_roots = len(forest.trees)
    vertices = []  # (left edge, right edge, parent edge)
    wires = []  # (leaf edge, root edge) of each single-leaf tree
    counter = itertools.count(n_leaves + n_roots)
    leaf_ids = itertools.count()

    def label(tree, edge):
        if tree.is_leaf:
            return next(leaf_ids)
        left = label(tree.left, None)
        right = label(tree.right, None)
        own = next(counter) if edge is None else edge
        vertices.append((left, right, own))
        return own

    for root, tree in enumerate(forest.trees):
        top = label(tree, n_leaves + root)
        if tree.is_leaf:
            wires.append((top, n_leaves + root))
    n_edges = next(counter)

    out = [[0] * k**n_roots for _ in range(k**n_leaves)]
    for leaf_colors in itertools.product(range(k), repeat=n_leaves):
        row = _flat(leaf_colors, k)
        for root_colors in itertools.product(range(k), repeat=n_roots):
            col = _flat(root_colors, k)
            if any(leaf_colors[a] != root_colors[b - n_leaves] for a, b in wires):
                continue
            for inner in itertools.product(range(k), repeat=n_edges - n_leaves - n_roots):
                colors = leaf_colors + root_colors + inner
                weight = 1
                for a, b, c in vertices:
                    weight *= entries[colors[a]][colors[b]][colors[c]]
                    if not weight:
                        break
                out[row][col] += weight
    return out


def _flat(colors, k: int) -> int:
    index = 0
    for c in colors:
        index = index * k + c
    return index


def fraction_orbit(x0: Q4Vector, d, steps: int, max_bits: int = 1 << 20):
    """(n, |map^n(x0)|_1) for n = 1..steps, the library's former route:
    `_Coeffs.apply` on Fraction vectors.  Stops before the first norm whose
    numerator or denominator passes `max_bits` bits."""
    coeffs = _Coeffs.at(Fraction(d))
    x, out = x0, []
    for n in range(1, steps + 1):
        x = coeffs.apply(x)
        norm = x.l1()
        if max(norm.numerator.bit_length(), norm.denominator.bit_length()) > max_bits:
            break
        out.append((n, norm))
    return out


def stepping_exponent(num: int, den: int) -> int:
    """floor(log10(num / den)), the library's former search: from 0, one
    power of ten at a time."""

    def at_least(t: int) -> bool:
        return num * (10**-t if t < 0 else 1) >= den * (10**t if t > 0 else 1)

    e10 = 0
    while at_least(e10 + 1):
        e10 += 1
    while not at_least(e10):
        e10 -= 1
    return e10


def randrange_bound_violations(d, m: Fraction, sample_count: int, seed: int) -> int:
    """How many sampled triples a have |map(a)|_1 > m |a|_1^2, the library's
    former loop: three `randrange(-10**6, 10**6 + 1)` calls per sample."""
    w, (c_p, c_pr, c_qp, c_inv, c_rp) = _Coeffs.at(Fraction(d)).integral()
    mk_num, mk_den = m.numerator, m.denominator
    rng = random.Random(seed)
    violations = 0
    for _ in range(sample_count):
        i = rng.randrange(-(10**6), 10**6 + 1)
        j = rng.randrange(-(10**6), 10**6 + 1)
        k = rng.randrange(-(10**6), 10**6 + 1)
        s = abs(i) + abs(j) + abs(k)
        if s == 0:
            continue
        pp = i * i
        cross = 2 * i * j + j * j
        n1 = c_p * pp + w * (2 * i * j) + c_pr * i * k + w * (j * j + k * k)
        n2 = -(c_qp * pp + c_inv * cross)
        n3 = c_rp * pp + c_inv * cross
        if (abs(n1) + abs(n2) + abs(n3)) * mk_den > mk_num * s * s * w:
            violations += 1
    return violations


def listed_square_forms(d, sample_count: int, seed: int) -> SquareFormsReport:
    """`compare_square_forms` by the library's former route: the list of
    every point is drawn before the loop."""
    dd = Fraction(d)
    e = dd - 1
    alpha = (dd - 2) / e
    beta = (dd + 1) * (dd - 2) / (e * e)
    coeffs = _Coeffs.at(dd)
    rng = random.Random(seed)
    points = [B1, B2, B3, Q4Vector(Fraction(0), Fraction(0), Fraction(1))]
    for _ in range(sample_count):
        points.append(
            Q4Vector(*(Fraction(rng.randrange(-64, 65), rng.randrange(1, 17)) for _ in range(3)))
        )
    maxes = [Fraction(0)] * 4
    for a in points:
        p, q, r = a.p, a.q, a.r
        raw = coeffs.apply(a)
        square = (p + q) ** 2 + (r + alpha * p) ** 2 - beta * p * p
        b2_printed = -((p + q) ** 2 / e - dd * (dd - 2) / (e * e) * p * p)
        b2_corrected = -((p + q) ** 2 / e - dd * (dd - 2) / (e * e * e) * p * p)
        deltas = (
            abs(square - raw.p),
            abs(b2_printed - raw.q),
            abs(b2_corrected - raw.q),
            abs(square - raw.r),
        )
        maxes = [max(m, x) for m, x in zip(maxes, deltas)]
    return SquareFormsReport(dd, len(points), *maxes)
