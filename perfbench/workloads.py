"""The five workloads: their ops, the checks on every output, and the
per-layer counters of the traced run.

An op is one user task.  Its ``run`` calls into treefrac through
``Tracer.call``, which names a span after the module and function.  Each
output is checked right after its op, outside the op's timed span and off
the phase clock; the checks use ``oracle`` (which never calls treefrac)
where an independent answer is cheap, and treefrac's own laws otherwise.
Then ``observe`` feeds the traced run's counters and the output is
dropped, so memory does not grow with the number of ops.

At module level only ``os``, ``sys`` and ``time`` are imported, which
every interpreter has loaded at start-up, so the set-up timer in
``child.py`` sees the full cost of ``import treefrac``.
"""

import os
import sys
from time import perf_counter

#: d = 9/4 is the non-integer q = d + 1 = 13/4 path of the chromatic engine.
FRAC_D = "9/4"
BOUND_SAMPLES = 100_000
#: From this row on the decay log-ratios have settled near 2 for every d
#: the certify workload uses (each certifies within four steps).
SETTLED_ROW = 5
PAPER_D3 = {"n": 2, "K": "7/32", "MK": "105/128"}
#: Pieces or breakpoints per output that the oracle evaluates.
CHECK_POINTS = 64


class Mismatch(Exception):
    """An op returned a wrong answer."""


class Op:
    __slots__ = ("kind", "spec", "run", "out", "error", "why", "text", "latency", "scaled", "id")

    def __init__(self, kind: str, spec: dict, run):
        self.kind, self.spec, self.run = kind, spec, run
        self.out = self.error = self.why = self.text = self.latency = self.scaled = self.id = None


def _product(a, b):
    return a * b


def _raiser(err: Exception):
    def run():
        raise err

    return run


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _fingerprint(x) -> str:
    """Short exact text of a rational whose digits could run to millions."""
    p = (1 << 61) - 1
    return f"{x.numerator % p}/{x.denominator % p}"


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _spread(items: list, count: int = CHECK_POINTS) -> list:
    """At most `count` items, evenly spaced, first and last included."""
    if len(items) <= count:
        return items
    return [items[i * (len(items) - 1) // (count - 1)] for i in range(count)]


def _same_action(literal: str, *factors: str) -> None:
    """`literal` acts as the product of `factors` at the start and
    midpoint of pieces spread over its domain."""
    import oracle

    el = oracle.Element(literal)
    fs = [oracle.Element(f) for f in reversed(factors)]
    ends = el.den[1:] + [1]
    for a, b in _spread(list(zip(el.den, ends))):
        for x in (a, (a + b) / 2):
            y = x
            for f in fs:
                y = f(y)
            _expect(el(x) == y, f"action differs at {x}")


def _cancel_share(left, right, product) -> float | None:
    """(refinement leaves - product leaves) / (refinement leaves - 1)."""
    import oracle

    den = str(left).partition("|")[2].partition("@")[0].partition("%")[0]
    num = str(right).partition("|")[0]
    r = oracle.refinement_leaves(den, num)
    return None if r == 1 else (r - product.leaves) / (r - 1)


class Workload:
    def __init__(self, tracer):
        self.tr = tracer

    def setup(self) -> float | None:
        """Import treefrac; a workload may return its own set-up time."""
        import treefrac

        self.tf = treefrac

    def ops(self, round_specs):
        raise NotImplementedError

    def check(self, op: Op) -> None:
        raise NotImplementedError

    def exact(self, op: Op) -> str:
        return str(op.out)

    def observe(self, op: Op) -> None:
        """Record what the traced run's derived counters need."""

    def layers(self, factor: float) -> dict:
        """Derived per-layer counters; times are multiplied by `factor`."""
        return {}

    def known_defects(self) -> list:
        """Calls outside the measured phase that show a known defect."""
        return []


class Coeff(Workload):
    """Coefficient queries on glued diagrams of reduced F pairs."""

    def setup(self):
        super().setup()
        tf, call = self.tf, self.tr.call
        self.queries = (
            ("edge3", lambda D: call("coloring.edge_coloring_count", tf.edge_coloring_count, D, 3)),
            ("face3", lambda D: call("coloring.face_coloring_count", tf.face_coloring_count, D, 3)),
            ("chrom_int", lambda D: call("coloring.chromatic_value.int", tf.chromatic_value, D, 3)),
            ("chrom_frac", lambda D: call("coloring.chromatic_value.frac", tf.chromatic_value, D, FRAC_D)),
        )
        self.leaves_of_op: dict[int, int] = {}
        self.vertices: list[int] = []

    def ops(self, round_specs):
        tf = self.tf
        for spec in round_specs:
            element = dict(spec, results={})
            try:
                element["g"] = tf.parse_element(spec["lit"])
                element["D"] = self.tr.call("diagrams.closed_graph", tf.closed_graph, element["g"])
            except Exception as err:  # the element's queries all fail with it
                for kind, _ in self.queries:
                    yield Op(kind, element, _raiser(err))
                continue
            for kind, query in self.queries:
                yield Op(kind, element, lambda q=query, D=element["D"]: q(D))

    def check(self, op):
        from fractions import Fraction

        el = op.spec
        el["results"][op.kind] = op.out
        half_v = el["D"].vertex_count // 2
        if op.kind == "edge3":
            _expect(op.out > 0 and op.out % 6 == 0, f"edge3 count {op.out}")
        elif op.kind == "face3":
            _expect(op.out in (0, 6), f"face:3 count {op.out}")
        elif op.kind == "chrom_frac":
            # chi(13/4) of the dual has denominator dividing 4**faces.
            scaled = op.out * Fraction(13, 4) * Fraction(5, 4) ** half_v * 4 ** (el["n"] + 1)
            _expect(scaled.denominator == 1, f"chromatic value {op.out} at d={FRAC_D}")
        else:
            coefficient = op.out / 3
            edge3 = el["results"].get("edge3")
            if edge3 is not None:
                _expect(coefficient == Fraction(edge3, 3 * 2**half_v), "chromatic(3)/3 != coefficient")
            if el["n"] <= 8:
                tensor = self.tf.VertexTensor.three_coloring()
                vac = self.tr.call("tensors.vacuum_coefficient", self.tf.vacuum_coefficient, el["g"], tensor)
                _expect(vac == coefficient, "tensor contraction disagrees")

    def observe(self, op):
        self.leaves_of_op[op.id] = op.spec["n"]
        if op.kind == "edge3":
            self.vertices.append(op.spec["D"].vertex_count)

    def layers(self, factor):
        import math
        import statistics

        by_n: dict[int, list[float]] = {}
        for op_id, seconds in self.tr.by_op("coloring.").items():
            if op_id in self.leaves_of_op:
                by_n.setdefault(self.leaves_of_op[op_id], []).append(seconds)
        points = [(n, math.log(statistics.median(ts))) for n, ts in by_n.items()]
        growth = 0.0
        if len(points) > 1:
            mx = _mean(n for n, _ in points)
            my = _mean(y for _, y in points)
            slope = sum((n - mx) * (y - my) for n, y in points) / sum((n - mx) ** 2 for n, _ in points)
            growth = math.exp(slope)
        return {"coloring.growth_per_leaf": growth, "diagrams.vertices": _mean(self.vertices)}


class Group(Workload):
    """Products, PL maps and refinements of large F, T and V elements."""

    def setup(self):
        super().setup()
        self.growth: list[float] = []
        self.shares: list[float] = []

    def ops(self, round_specs):
        for spec in round_specs:
            kind = spec["kind"]
            if kind == "mul":
                yield Op(f"mul_{spec['type']}", spec, lambda s=spec: self._mul(s))
                continue
            parse = self.tf.parse_element if kind == "plmap" else self.tf.parse_tree
            try:
                inputs = parse(spec["a"]), parse(spec["b"])
            except Exception as err:
                yield Op(kind, spec, _raiser(err))
                continue
            run = self._plmap if kind == "plmap" else self._refine
            yield Op(kind, spec, lambda i=inputs, r=run: r(*i))

    def _mul(self, spec):
        tf, call = self.tf, self.tr.call
        a = call("thompson.parse_element", tf.parse_element, spec["a"])
        b = call("thompson.parse_element", tf.parse_element, spec["b"])
        ab = call(f"thompson.mul_{spec['type']}", _product, a, b)
        return a, b, ab, call("thompson.format_element", tf.thompson.format_element, ab)

    def _plmap(self, a, b):
        call = self.tr.call
        pa = call("thompson.to_pl_map", a.to_pl_map)
        pb = call("thompson.to_pl_map", b.to_pl_map)
        return a, b, call("thompson.PLMap.compose", pa.compose, pb)

    def _refine(self, s, t):
        tf, call = self.tf, self.tr.call
        u, p, q = call("trees.common_refinement", tf.common_refinement, s, t)
        return s, t, u, p, q, call("trees.format_tree", tf.trees.format_tree, u)

    def check(self, op):
        import oracle

        if op.kind.startswith("mul"):
            _same_action(op.out[3], op.spec["a"], op.spec["b"])
        elif op.kind == "plmap":
            a, b, composed = op.out
            _expect(composed == (a * b).to_pl_map(), "to_pl_map(a*b) != compose")
            fa, fb = oracle.Element(op.spec["a"]), oracle.Element(op.spec["b"])
            for x, y in _spread(composed.points[:-1]):
                _expect(fa(fb(x)) == y, f"composed map wrong at {x}")
        else:
            apply_forest = self.tf.trees.apply_forest
            s, t, u, p, q, text = op.out
            _expect(apply_forest(s, p) == u == apply_forest(t, q), "forests do not refine to u")
            union = set(oracle.leaf_starts(op.spec["a"])[0]) | set(oracle.leaf_starts(op.spec["b"])[0])
            _expect(oracle.leaf_starts(text)[0] == sorted(union), "refinement is not the overlay")

    def exact(self, op):
        return str(op.out[2]) if op.kind == "plmap" else op.out[-1]

    def observe(self, op):
        if op.kind == "refine":
            self.growth.append(op.out[2].leaves / op.spec["n"])
        elif op.kind.startswith("mul"):
            share = _cancel_share(*op.out[:3])
            if share is not None:
                self.shares.append(share)

    def layers(self, factor):
        return {"trees.refine_growth": _mean(self.growth), "thompson.cancel_share": _mean(self.shares)}


class Cancel(Workload):
    """Quotients, reductions of un-reduced literals and generator words."""

    def setup(self):
        super().setup()
        self.cancelled: list[float] = []
        self.shares: list[float] = []

    def ops(self, round_specs):
        runs = {"quotient": self._quotient, "reduce": self._reduce, "word": self._word}
        for spec in round_specs:
            kind = spec["kind"]
            label = kind if kind == "word" else f"{kind}_{spec['type']}"
            yield Op(label, spec, lambda s=spec, r=runs[kind]: r(s))

    def _quotient(self, spec):
        tf, call = self.tf, self.tr.call
        a = call("thompson.parse_element", tf.parse_element, spec["a"])
        b = call("thompson.parse_element", tf.parse_element, spec["b"])
        ab = call(f"thompson.mul_{spec['type']}", _product, a, b)
        b_inv = call("thompson.inverse", b.inverse)
        q = call("thompson.mul_cancel", _product, ab, b_inv)
        return a, b, ab, b_inv, q, call("thompson.format_element", tf.thompson.format_element, q)

    def _reduce(self, spec):
        tf, call = self.tf, self.tr.call
        if spec["type"] != "F":
            return call("thompson.parse_element", tf.parse_element, spec["lit"])
        pair = call("fraction.parse_pair", tf.parse_pair, spec["lit"])
        return call("fraction.reduce_pair", tf.reduce_pair, pair.num, pair.den)

    def _word(self, spec):
        tf, call = self.tf, self.tr.call
        w = call("thompson.parse_element", tf.parse_element, spec["letters"][0])
        for letter in spec["letters"][1:]:
            x = call("thompson.parse_element", tf.parse_element, letter)
            w = call("thompson.mul_F", _product, w, x)
        return w

    def check(self, op):
        if op.kind.startswith("quotient"):
            a, *_, q, text = op.out
            _expect(q == a and text == str(a), "(a*b)*b^-1 != a")
            _same_action(text, op.spec["a"])
        elif op.kind.startswith("reduce"):
            text = self.exact(op)
            _expect(text == str(self.tf.parse_element(op.spec["base"])), "not the known element")
            _same_action(text, op.spec["base"])
        else:
            _expect((op.out * op.out.inverse()).is_identity, "w * w^-1 is not the identity")
            _same_action(str(op.out), *op.spec["letters"])

    def exact(self, op):
        if op.kind.startswith("quotient"):
            return op.out[-1]
        if op.kind == "reduce_F":
            num, den = op.out
            return f"{num}|{den}"
        return str(op.out)

    def observe(self, op):
        if op.kind == "reduce_F":
            self.cancelled.append(1 - op.out[0].leaves / op.spec["lit"].count(".") * 2)
        elif op.kind.startswith("quotient"):
            a, b, ab, b_inv, q, _ = op.out
            for share in (_cancel_share(a, b, ab), _cancel_share(ab, b_inv, q)):
                if share is not None:
                    self.shares.append(share)

    def layers(self, factor):
        return {"fraction.cancel_ratio": _mean(self.cancelled), "thompson.cancel_share": _mean(self.shares)}


class Certify(Workload):
    """Renormalization: scans, exact certificates, decay profiles, bound sampling."""

    #: Interval decay profiles that fail with ValueError: the norm bound
    #: underflows in ``renorm._log_value`` and ``log(0)`` follows.  It hits
    #: every cosine parameter the ops use from 11 steps on (from 12 for
    #: m = 7..9 minus), so the measured ops stop at 10 steps, and these
    #: calls run once per run after the measured phase, to record it.
    DEFECT_STEPS = range(11, 15)
    DEFECT_PARAMS = ((7, "minus"), (12, "minus"), (9, "plus"), (40, "plus"))

    def setup(self):
        super().setup()
        self.bits = 0
        self.cert_steps: list[int] = []
        self.bound_ops = 0
        self.defects: list[dict] = []

    def ops(self, round_specs):
        for spec in round_specs:
            yield Op(spec["kind"], spec, lambda s=spec: self._run(s))

    def _run(self, spec):
        tf, call = self.tf, self.tr.call
        kind = spec["kind"]
        if kind == "decay_exact":
            return call("renorm.decay_profile.exact", tf.decay_profile, spec["d"], spec["steps"])
        if kind == "decay_interval":
            param = tf.LoopParameter.cosine(spec["m"], spec["variant"])
            return call("renorm.decay_profile.interval", tf.decay_profile, param, spec["steps"])
        if kind == "bound":
            return call("renorm.bound_check", tf.bound_check, spec["d"], BOUND_SAMPLES)
        if kind == "scan":
            return call("renorm.scan", tf.scan, 5, spec["m_to"], "both", True)
        return [call("renorm.find_certificate.exact", tf.find_certificate, d) for d in spec["grid"]]

    def _is_paper_d3(self, cert) -> bool:
        return isinstance(cert, self.tf.Certificate) and {
            "n": cert.n, "K": str(cert.norm_bound), "MK": str(cert.product)
        } == PAPER_D3

    def check(self, op):
        from fractions import Fraction

        kind, spec, out = op.kind, op.spec, op.out
        if kind.startswith("decay"):
            _expect([r.n for r in out] == list(range(1, spec["steps"] + 1)), "wrong rows")
            _expect(out[-1].log_ratio is None, "last row has a ratio")
            for r in out[SETTLED_ROW:-1]:
                _expect(1.75 <= r.log_ratio <= 2.25, f"log ratio {r.log_ratio} at n={r.n}")
        elif kind == "bound":
            _expect(out.ok and out.violations == 0 and out.samples == BOUND_SAMPLES, "bound fails")
        elif kind == "scan":
            minus = {r.m: r.certified for r in out.rows if r.variant == "minus"}
            _expect(minus == {m: m >= 7 for m in range(5, spec["m_to"] + 1)}, "minus pattern")
            _expect(self._is_paper_d3(out.rows[-1].outcome), "d=3 row is not (2, 7/32, 105/128)")
        else:
            for d, cert in zip(spec["grid"], out):
                d = Fraction(d)
                e = d - 1
                m = (d + 1) / e + ((d - 2) / e) ** 2 + d * (d + 1) * (d - 2) / e**3
                _expect(isinstance(cert, self.tf.Certificate) and cert.exact, f"no certificate at {d}")
                _expect(cert.m_bound == m, f"M({d}) = {cert.m_bound}")
                _expect(cert.product == m * cert.norm_bound < 1, f"MK at {d}")
                _expect(d != 3 or self._is_paper_d3(cert), "d=3 is not (2, 7/32, 105/128)")

    def exact(self, op):
        def value(x):
            return _fingerprint(x) if hasattr(x, "denominator") else repr(x)

        kind, out = op.kind, op.out
        if kind.startswith("decay"):
            return ";".join(f"{value(r.norm)},{r.log_norm!r},{r.log_ratio!r}" for r in out)
        if kind == "bound":
            return f"{out.samples},{out.violations},{out.ok}"
        if kind == "scan":
            return ";".join(
                f"{r.m},{r.variant},{r.certified},{getattr(r.outcome, 'n', None)},"
                f"{value(getattr(r.outcome, 'product', None) or r.outcome.best_product)}"
                for r in out.rows
            )
        return ";".join(f"{c.n},{value(c.norm_bound)},{value(c.product)}" for c in out)

    def observe(self, op):
        exact = []
        if op.kind == "decay_exact":
            exact = [r.norm for r in op.out]
        elif op.kind == "certify":
            exact = [c.norm_bound for c in op.out]
            self.cert_steps += [c.n for c in op.out]
        elif op.kind == "bound":
            self.bound_ops += 1
        for x in exact:
            self.bits = max(self.bits, x.numerator.bit_length(), x.denominator.bit_length())

    def known_defects(self):
        tf = self.tf
        self.defects = []
        for m, variant in self.DEFECT_PARAMS:
            for steps in self.DEFECT_STEPS:
                try:
                    tf.decay_profile(tf.LoopParameter.cosine(m, variant), steps)
                except Exception as err:
                    self.defects.append({"op": "decay_interval", "m": m, "variant": variant,
                                         "steps": steps, "error": type(err).__name__})
        return self.defects

    def layers(self, factor):
        busy = factor * sum(e - s for name, s, e, *_ in self.tr.spans if name == "renorm.bound_check")
        return {
            "renorm.bound_samples_per_s": self.bound_ops * BOUND_SAMPLES / busy if busy else 0.0,
            "renorm.exact_bits_max": self.bits,
            "renorm.cert_steps": _mean(self.cert_steps),
            "renorm.decay_profile.interval.failed": len(self.defects),
        }


class Cli(Workload):
    """The README's commands, each in its own interpreter, one at a time."""

    EXPECTED = {
        0: lambda r: r["element"] == ".|.",
        1: lambda r: r["breakpoints"] == ["0->0", "1/2->1/4", "3/4->1/2", "1->1"],
        2: lambda r: r["coefficient"] == "1/2",
        3: lambda r: r["count"] == 0,
        4: lambda r: r["value"] == "3/2",
        5: lambda r: r["refinement"] == "((..)(..))",
        6: lambda r: [s["n"] for s in r["steps"]] == [1, 2, 3, 4, 5, 6],
        7: lambda r: r["certificate"] == PAPER_D3,
        8: lambda r: r["rows"][-1]["certificate"] == PAPER_D3 and all(
            ("certificate" in row) == (row["m"] >= 7)
            for row in r["rows"] if row["variant"] == "minus"
        ),
        9: lambda r: [row["n"] for row in r["rows"]] == list(range(1, 10)),
    }

    def setup(self):
        import subprocess

        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.run_child = subprocess.run
        self.first_stdout: dict[int, str] = {}
        self.startup: list[float] = []
        self.run_s: list[float] = []
        start = perf_counter()
        self._child(["-c", "import treefrac.cli"])
        return perf_counter() - start

    def _child(self, args):
        proc = self.run_child(
            [sys.executable, *args], env=self.env, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc

    def ops(self, round_specs):
        for spec in round_specs:
            yield Op("cli", spec, lambda s=spec: self._command(s["cmd"]))

    def _command(self, index):
        import gen

        start = perf_counter()
        argv = ["-m", "treefrac.cli", *gen.CLI_COMMANDS[index]]
        proc = self.tr.call("cli.main", self._child, argv)
        wall = perf_counter() - start
        completed = float(proc.stderr.rsplit("completed in ", 1)[1].rstrip().rstrip("s"))
        return index, proc.stdout, wall, completed

    def check(self, op):
        import json

        index, stdout, _, _ = op.out
        first = self.first_stdout.setdefault(index, stdout)
        _expect(stdout == first, "stdout differs between repeats")
        _expect(self.EXPECTED[index](json.loads(stdout)["result"]), "not the README's value")

    def exact(self, op):
        return op.out[1]

    def observe(self, op):
        _, _, wall, completed = op.out
        self.startup.append(wall - completed)
        self.run_s.append(completed)

    def layers(self, factor):
        import statistics

        samples: dict[str, list[float]] = {"numpy": [], "mpmath": [], "treefrac": []}
        for _ in range(3):
            proc = self._child(["-X", "importtime", "-c", "import treefrac.cli"])
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in samples:
                    samples[parts[2].strip()].append(int(parts[1]) / 1000)
        out = {f"cli.import_ms.{k}": statistics.median(v) * factor for k, v in samples.items() if v}
        if self.run_s:
            out["cli.startup_s"] = statistics.median(self.startup) * factor
            out["cli.run_s"] = statistics.median(self.run_s) * factor
        out["cli.stdout_bytes"] = sum(len(s.encode()) for s in self.first_stdout.values())
        return out


WORKLOADS = {"coeff": Coeff, "group": Group, "cancel": Cancel, "certify": Certify, "cli": Cli}
