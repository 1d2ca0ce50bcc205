"""Seeded workload inputs, built with the standard library only.

The program under test receives nothing but the strings made here, so a
rewrite of treefrac's own samplers (``random_tree``, ``random_element``)
cannot change what the benchmark feeds it.  Trees are uniform planar
binary trees drawn with Remy's algorithm and written in the literal
grammar ``T ::= "." | "(" T T ")"``.

Every workload is an endless stream of rounds.  A round is a fixed
template (which op kinds, how many, which size strata) filled with fresh
random content, so any whole number of rounds has the same mix of work,
and no run ever sees the same input twice.
"""

from __future__ import annotations

import hashlib
import random

#: coeff: reduced F pairs of 7-10 leaves, four queries each.  A query costs
#: about 2.8x more per leaf, so a round holds round(2.8 ** (10 - n)) pairs
#: of n leaves (22, 8, 3, 1), and each leaf count takes about the same
#: share of the time.
COEFF_PAIRS = {n: round(2.8 ** (10 - n)) for n in range(7, 11)}

CLI_COMMANDS = (
    ("group", "mul", "((..).)|(.(..))", "(.(..))|((..).)"),
    ("plmap", "((..).)|(.(..))"),
    ("coeff", "--model", "edge3", "((..).)|(.(..))"),
    ("coeff", "--model", "face:3", "((..).)|(.(..))"),
    ("coeff", "--model", "chromatic", "--d", "3", "((..).)|(.(..))"),
    ("tree", "refine", "((..).)", "(.(..))"),
    ("renorm", "iterate", "--d", "3", "--steps", "6"),
    ("renorm", "certify", "--d", "3"),
    ("renorm", "scan", "--variant", "both", "--m-from", "5", "--m-to", "20", "--d3"),
    ("renorm", "decay", "--d", "3", "--steps", "9"),
)


def random_tree(leaves: int, rng: random.Random) -> str:
    """Uniform random planar binary tree with `leaves` leaves (Remy)."""
    size = 2 * leaves - 1
    left = [-1] * size
    right = [-1] * size
    parent = [-1] * size
    root = 0
    for k in range(1, leaves):
        x = rng.randrange(2 * k - 1)
        node, leaf = 2 * k - 1, 2 * k
        p = parent[x]
        if p < 0:
            root = node
        elif left[p] == x:
            left[p] = node
        else:
            right[p] = node
        parent[node] = p
        if rng.getrandbits(1):
            left[node], right[node] = x, leaf
        else:
            left[node], right[node] = leaf, x
        parent[x] = parent[leaf] = node
    out = []
    stack = [root]
    while stack:
        x = stack.pop()
        if x == -2:
            out.append(")")
        elif left[x] < 0:
            out.append(".")
        else:
            out.append("(")
            stack += (-2, right[x], left[x])
    return "".join(out)


def carets(tree: str) -> set[int]:
    """0-based leaf indices i such that leaves i and i+1 form a caret."""
    out = set()
    leaf = 0
    for i, ch in enumerate(tree):
        if ch == ".":
            if tree.startswith("(..)", i - 1):
                out.add(leaf)
            leaf += 1
    return out


def _leaves(tree: str) -> int:
    return (len(tree) + 2) // 3


def graft(tree: str, subtrees: list[str]) -> str:
    """Replace the leaves of `tree` by `subtrees` in planar order."""
    parts = tree.split(".")
    out = [parts[0]]
    for sub, part in zip(subtrees, parts[1:]):
        out += (sub, part)
    return "".join(out)


def random_forest(roots: int, extra: int, rng: random.Random) -> list[str]:
    """`roots` random trees holding `roots + extra` leaves in all."""
    sizes = [1] * roots
    for _ in range(extra):
        sizes[rng.randrange(roots)] += 1
    return [random_tree(s, rng) for s in sizes]


def log_strata(lo: int, hi: int, count: int) -> list[int]:
    """The log-midpoint of each of `count` equal log-width strata of [lo, hi].

    Sizes are fixed rather than drawn within each stratum: the heaviest ops
    cost up to n**2, and with drawn sizes the quartile spread of group's
    p90 over ten seeds was 0.18 of its median."""
    ratio = hi / lo
    return [round(lo * ratio ** ((j + 0.5) / count)) for j in range(count)]


def random_element(kind: str, leaves: int, rng: random.Random) -> str:
    """Literal of a random F, T (random mark) or V (random permutation) element."""
    pair = f"{random_tree(leaves, rng)}|{random_tree(leaves, rng)}"
    if kind == "F":
        return pair
    if kind == "T":
        return f"{pair}@{rng.randrange(leaves)}"
    perm = list(range(leaves))
    rng.shuffle(perm)
    return f"{pair}%{' '.join(map(str, perm))}"


def unreduced(kind: str, leaves: int, extra: int, rng: random.Random) -> tuple[str, str]:
    """(base literal, the same element with one random forest grafted on).

    The forest tree on den leaf i also goes on the num leaf that i maps
    to, so the grafted literal denotes the base element.
    """
    num, den = random_tree(leaves, rng), random_tree(leaves, rng)
    forest = random_forest(leaves, extra, rng)
    if kind == "F":
        return f"{num}|{den}", f"{graft(num, forest)}|{graft(den, forest)}"
    if kind == "T":
        mark = rng.randrange(leaves)
        image = [(i + mark) % leaves for i in range(leaves)]
    else:
        image = list(range(leaves))
        rng.shuffle(image)
    on_num = [""] * leaves
    for i, j in enumerate(image):
        on_num[j] = forest[i]
    new_num, new_den = graft(num, on_num), graft(den, forest)
    if kind == "T":
        new_mark = sum(_leaves(t) for t in forest[leaves - mark :])
        return f"{num}|{den}@{mark}", f"{new_num}|{new_den}@{new_mark}"
    starts = [0]
    for t in on_num:
        starts.append(starts[-1] + _leaves(t))
    new_perm = [starts[j] + k for i, j in enumerate(image) for k in range(_leaves(forest[i]))]
    return (
        f"{num}|{den}%{' '.join(map(str, image))}",
        f"{new_num}|{new_den}%{' '.join(map(str, new_perm))}",
    )


def x_literal(i: int, inverse: bool) -> str:
    """The generator x_i of F, or its inverse."""
    num = "(." * i + "((..).)" + ")" * i
    den = "(." * i + "(.(..))" + ")" * i
    return f"{den}|{num}" if inverse else f"{num}|{den}"


def reduced_pair(leaves: int, rng: random.Random) -> str:
    """Uniform reduced F pair with exactly `leaves` leaves (rejection)."""
    while True:
        num, den = random_tree(leaves, rng), random_tree(leaves, rng)
        if not carets(num) & carets(den):
            return f"{num}|{den}"


def _coeff_round(rng):
    specs = [{"n": n, "lit": reduced_pair(n, rng)} for n, k in COEFF_PAIRS.items() for _ in range(k)]
    rng.shuffle(specs)
    return specs


def _group_round(rng):
    ops = []
    for j, n in enumerate(log_strata(64, 512, 9)):
        kind = "FTV"[j % 3]
        ops += [
            {"kind": "mul", "type": kind, "n": n,
             "a": random_element(kind, n, rng), "b": random_element(kind, n, rng)},
            {"kind": "plmap", "n": n, "a": random_element("F", n, rng), "b": random_element("F", n, rng)},
            {"kind": "refine", "n": n, "a": random_tree(n, rng), "b": random_tree(n, rng)},
        ]
    return ops


def _cancel_round(rng):
    ops = []
    for j, n in enumerate(log_strata(64, 256, 9)):
        kind = "FTV"[j % 3]
        ops.append({"kind": "quotient", "type": kind, "n": n,
                    "a": random_element(kind, n, rng), "b": random_element(kind, n, rng)})
    for j, n in enumerate(log_strata(32, 128, 9)):
        kind = "FTV"[j % 3]
        base, lit = unreduced(kind, n, n, rng)
        ops.append({"kind": "reduce", "type": kind, "n": 2 * n, "base": base, "lit": lit})
    for k in log_strata(8, 200, 3):
        length = rng.randint(8, 32)
        word = [(rng.randint(0, k), rng.random() < 0.5) for _ in range(length)]
        ops.append({"kind": "word", "n": k, "letters": [x_literal(i, inv) for i, inv in word]})
    rng.shuffle(ops)
    return ops


def _near_two(rng):
    b = rng.randint(64, 256)
    return f"{2 * b + 1}/{b}"


def _grid_point(rng):
    while True:
        q = rng.randint(2, 64)
        p = rng.randint(2 * q + 1, 5 * q)
        if 64 * p > 129 * q:  # beyond 2 + 1/64
            return f"{p}/{q}"


def _certify_round(rng):
    ops = [{"kind": "decay_exact", "d": d, "steps": s}
           for d in ("3", "9/4", "17/8") for s in range(8, 16)]
    ops += [{"kind": "bound", "d": d} for d in ("9/4", "3", "4")]
    ops += [{"kind": "scan", "m_to": 8 + 8 * j + rng.randint(0, 8)} for j in range(4)]
    ops += [{"kind": "certify", "grid": [_near_two(rng) for _ in range(3)]
             + [_grid_point(rng) for _ in range(9)]} for _ in range(8)]
    ops += [{"kind": "decay_interval", "m": rng.randint(7, 40),
             "variant": rng.choice(("plus", "minus")), "steps": s} for s in range(6, 11)]
    rng.shuffle(ops)
    return ops


def _cli_round(rng):
    order = list(range(len(CLI_COMMANDS)))
    rng.shuffle(order)
    return [{"kind": "cli", "cmd": i} for i in order]


_ROUNDS = {
    "coeff": _coeff_round,
    "group": _group_round,
    "cancel": _cancel_round,
    "certify": _certify_round,
    "cli": _cli_round,
}


def stream(workload: str, seed: int):
    """The rounds of this workload and seed, one after another, without end."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    make = _ROUNDS[workload]
    while True:
        yield make(rng)


def digest(value) -> str:
    import json

    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
