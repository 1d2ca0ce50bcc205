"""One fresh workload process.

    python3 perfbench/child.py <workload> <seed> <seconds> <trace 0|1> <setup-only 0|1>

Run from the repository root with ``PYTHONPATH=src``; ``run.py`` does
that.  The process starts the set-up clock, lets the workload import
treefrac and prepare, and stops the clock.  Until then it has loaded only
``spans`` and ``workloads``, which import nothing beyond ``os``, ``sys``
and ``time``, so ``setup_s`` holds the whole cost of ``import treefrac``.
It then runs the ``calib`` probe and scales that time to the reference
speed.  In set-up-only mode the process reports it and exits.

Otherwise it runs whole rounds of ops one after another (one client,
closed loop) until `seconds` of op time have passed and at least MIN_OPS
ops are done.  The inputs of each round are generated just before it,
and each output is checked right after its op, both with the phase clock
stopped; so is the calibration probe that runs between ops.  At the end
it prints one JSON object, with every time scaled by the calibration
factor and the raw times under ``calibration``.
"""

import sys
import time

import spans
import workloads

#: Every run has at least this many ops, so ten samples lie beyond p90.
MIN_OPS = 100


def settle(workload, op, tracer) -> None:
    """Check one op's output, feed the counters, keep its exact text, drop it."""
    if op.error is None:
        try:
            workload.check(op)
        except Exception as err:
            op.error, op.why = type(err).__name__, str(err)[:200]
    op.text = f"{op.kind}:" + (f"!{op.error}" if op.error else workload.exact(op))
    if tracer.enabled and op.error is None:
        workload.observe(op)
    op.out = op.spec = op.run = None


def measure(workload, stream, seconds, tracer, cal):
    """Run whole rounds; return (ops, phase seconds, rounds).

    The phase clock stops while a round's inputs are generated, while the
    calibration probe runs and while an output is checked.  Each round is
    reported as (phase seconds, successful ops, ops, input digest, output
    digest).  All times here are raw; ``main`` scales them.
    """
    import gen

    perf_counter = time.perf_counter
    done = []
    rounds = []
    elapsed = 0.0
    while True:
        specs = next(stream)
        input_digest = gen.digest(specs)
        round_ops = []
        round_s = 0.0
        clock = perf_counter()
        for op in workload.ops(specs):
            round_s += perf_counter() - clock
            cal.before_op()
            op.id = tracer.op_id = len(done) + len(round_ops)
            start = perf_counter()
            try:
                op.out = tracer.call(f"op.{op.kind}", op.run) if tracer.enabled else op.run()
            except Exception as err:  # a failing op is counted, never fatal
                op.error = type(err).__name__
            end = perf_counter()
            op.latency = end - start
            round_s += op.latency
            cal.after_op(op.latency)
            settle(workload, op, tracer)
            round_ops.append(op)
            clock = perf_counter()
        round_s += perf_counter() - clock
        done += round_ops
        elapsed += round_s
        rounds.append((round_s, sum(op.error is None for op in round_ops), len(round_ops),
                       input_digest, gen.digest([op.text for op in round_ops])))
        for op in round_ops:
            op.text = None
        if elapsed >= seconds and len(done) >= MIN_OPS:
            return done, elapsed, rounds


def digests(rounds) -> tuple[str, str, int]:
    """Input and output digests of the fewest leading rounds that hold
    MIN_OPS ops, which every run completes, and how many rounds that is."""
    import gen

    count = ops = 0
    while ops < MIN_OPS:
        ops += rounds[count][2]
        count += 1
    head = rounds[:count]
    return gen.digest([r[3] for r in head]), gen.digest([r[4] for r in head]), count


def environment() -> dict:
    import os
    import platform

    import mpmath
    import mpmath.libmp
    import numpy

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main(argv) -> int:
    name, seed, seconds, trace, setup_only = argv
    tracer = spans.Tracer(trace == "1")
    workload = workloads.WORKLOADS[name](tracer)

    t0 = time.perf_counter()
    own_setup = workload.setup()
    setup_raw_s = time.perf_counter() - t0 if own_setup is None else own_setup

    import json

    import calib

    setup_factor = calib.setup_factor()
    setup_s = setup_raw_s * setup_factor
    if setup_only == "1":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    import resource
    import statistics

    import gen

    cal = calib.Calibration()
    ops, phase_s, rounds = measure(workload, gen.stream(name, int(seed)), float(seconds), tracer, cal)
    for op, f in zip(ops, cal.op_factors()):
        op.scaled = op.latency * f
    busy = sum(op.latency for op in ops)
    factor = sum(op.scaled for op in ops) / busy
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    failures = [
        {"op": op.id, "kind": op.kind, "error": op.error, **({"why": op.why} if op.why else {})}
        for op in ops if op.error
    ]
    ok = len(ops) - len(failures)
    latencies_ms = [op.latency * 1000 for op in ops]
    scaled_ms = [op.scaled * 1000 for op in ops]
    p50_ms = statistics.median(latencies_ms)
    p90_ms = statistics.quantiles(latencies_ms, n=10)[8]
    input_digest, output_digest, digest_rounds = digests(rounds)
    result = {
        "setup_s": setup_s,
        "phase_s": phase_s * factor,
        "attempted": len(ops),
        "failed": len(failures),
        "ops_per_s": ok / (phase_s * factor),
        "op_p50_ms": statistics.median(scaled_ms),
        "op_p90_ms": statistics.quantiles(scaled_ms, n=10)[8],
        "ok_ratio": ok / len(ops),
        "peak_rss_mb": peak_rss_mb,
        "calibration": {
            "factor": factor,
            "probes": len(cal.probes),
            "setup_factor": setup_factor,
            "raw": {"setup_s": setup_raw_s, "phase_s": phase_s, "ops_per_s": ok / phase_s,
                    "op_p50_ms": p50_ms, "op_p90_ms": p90_ms},
        },
        "known_defects": workload.known_defects(),
        "rounds": len(rounds),
        "round_s": [round(r[0], 6) for r in rounds],
        "round_ok": [r[1] for r in rounds],
        "ops_by_kind": _count(op.kind for op in ops),
        "fail": _count(f["error"] for f in failures),
        "fail_by_kind": _count(f"{f['kind']}.{f['error']}" for f in failures),
        "failures": failures[:50],
        "mismatches": sum("why" in f for f in failures),
        "input_digest": input_digest,
        "output_digest": output_digest,
        "digest_rounds": digest_rounds,
        "round_digests": [[r[3], r[4]] for r in rounds],
        "env": environment(),
    }
    if tracer.enabled:
        result["spans"] = tracer.aggregate(factor)
        result["layers"] = workload.layers(factor)
        result["span_count"] = len(tracer.spans)
    print(json.dumps(result))
    if tracer.enabled:
        tracer.write(f".perfbench_out/spans-{name}-{seed}.jsonl")
    return 0


def _count(keys) -> dict:
    out: dict = {}
    for k in keys:
        out[k] = out.get(k, 0) + 1
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
