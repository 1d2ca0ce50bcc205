"""Host-speed calibration of the benchmark's timings.

On a shared host, other tenants slow every instruction of a pure-Python
process by up to about 1.7x, in spells that come and go over seconds and
drift over minutes.  A fixed probe, run between ops, measures that
slowdown while it happens.  Every timing the benchmark reports is scaled
by REFERENCE_S / (probe time), so it reads as the time the same work
takes when the probe runs at REFERENCE_S.  The probe is benchmark code;
a change to treefrac cannot make it faster or slower.

The probe mixes the kinds of work treefrac does: an integer loop, tuple
keys in a dict, string scanning and Fraction arithmetic.  Import this
module only after the set-up clock has stopped: it loads ``fractions``,
which treefrac also imports.
"""

from fractions import Fraction
from time import perf_counter

#: The reference speed: the probe takes 1 ms.  On the 2-CPU x86-64 host
#: the benchmark was built on (Python 3.11) its best time was 0.95 ms and
#: its tenth percentile 1.02 ms, so scaled times are close to the times
#: of a quiet host there.
REFERENCE_S = 0.001
#: Op time between two probes; at about 1 ms a probe, this costs ~5%.
EVERY_S = 0.02

_TEXT = "((..)(.(..)))" * 60


def probe() -> float:
    """Seconds taken by one run of the fixed probe."""
    start = perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    counts: dict = {}
    depth = 0
    for i, ch in enumerate(_TEXT):
        depth += (ch == "(") - (ch == ")")
        key = (depth, ch)
        counts[key] = counts.get(key, 0) + i
    x = Fraction(0)
    for k in range(1, 80):
        x += Fraction(k, k * k + 1)
    if acc < 0 or not counts or x <= 0:
        raise AssertionError("probe")
    return perf_counter() - start


def setup_factor(samples: int = 9) -> float:
    """Scale for a set-up time measured just before this call."""
    times = sorted(probe() for _ in range(samples))
    return REFERENCE_S / times[len(times) // 2]


class Calibration:
    """Probes between ops, and a scale for each op's time.

    An op's scale comes from the probes just before and just after it, so
    a heavy op that runs through a slow spell is scaled by that spell."""

    def __init__(self):
        self.probes: list[float] = []
        self._op_probe: list[int] = []
        self._since = EVERY_S

    def before_op(self) -> None:
        """Run the probe if EVERY_S of op time has passed since the last one."""
        if self._since >= EVERY_S:
            self.probes.append(probe())
            self._since = 0.0
        self._op_probe.append(len(self.probes) - 1)

    def after_op(self, seconds: float) -> None:
        self._since += seconds

    def op_factors(self) -> list[float]:
        """REFERENCE_S over the mean of the probes around each op, in op order."""
        self.probes.append(probe())
        p = self.probes
        return [2 * REFERENCE_S / (p[k] + p[k + 1]) for k in self._op_probe]
