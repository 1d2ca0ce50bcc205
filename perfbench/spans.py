"""In-memory spans around the benchmark's calls into treefrac.

A span is (name, start, end, parent, op id, ok).  The name is
``<module>.<function>``; root spans of ops are ``op.<kind>``.  With
tracing off, ``call`` is a plain call, so the untraced run pays nothing.
"""

from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        ok = False
        start = perf_counter()
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id, ok)

    def aggregate(self, factor: float = 1.0) -> dict[str, dict]:
        """Per span name: calls, busy seconds, self seconds and failures.

        Seconds are multiplied by `factor` (see ``calib``)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, ok) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
            row["calls"] += 1
            row["busy_s"] += (end - start) * factor
            row["self_s"] += (end - start - child_time[i]) * factor
            row["failed"] += not ok
        return out

    def by_op(self, prefix: str) -> dict[int, float]:
        """Summed duration of spans whose name starts with `prefix`, per op id."""
        out: dict[int, float] = {}
        for name, start, end, _, op, _ in self.spans:
            if name.startswith(prefix):
                out[op] = out.get(op, 0.0) + end - start
        return out

    def write(self, path: str) -> None:
        import json

        keys = ("name", "start", "end", "parent", "op", "ok")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
