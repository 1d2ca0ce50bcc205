"""treefrac benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload coeff --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both runs

Run from the repository root; treefrac is imported from ``src`` (it need
not be installed).  Each run starts fresh workload processes (see
``child.py``): a few that only set up, for a median ``setup_s``, and one
that also runs the measured phase and checks every output.  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run.  Details (digests, failures
by op, the environment, span totals) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
#: Fresh processes timed for the set-up median (the measured one included).
SETUP_SAMPLES = 7
#: A run must end within 180 s; keep a margin for the parent's own work.
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


#: One thread per process, as the load model says: numpy's BLAS pool (which
#: treefrac never uses) would otherwise start one thread per CPU at import,
#: and on a busy host that start-up measures the scheduler.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), **ONE_THREAD)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process {args} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process {args} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(name: str, child: dict) -> float:
    layers, spans = child["layers"], child["spans"]
    if name in layers:
        return layers[name]
    if name == "trace.ops_per_s":
        return child["ops_per_s"]
    if name == "trace.spans":
        return child["span_count"]
    if name.startswith("self_s."):
        module = name.split(".", 1)[1]
        return sum(row["self_s"] for span, row in spans.items() if span.split(".")[0] == module)
    span, _, field = name.rpartition(".")
    return spans[span][field] if span in spans else 0


def run_one(bench: dict, workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    args = [workload, str(seed), str(seconds), str(trace)]
    # Half the set-up samples run before the measured process and half
    # after it, so their median spans the run rather than one moment.
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [spawn([*args, "1"], deadline)["setup_s"] for _ in range(extra // 2)]
    child = spawn([*args, "0"], deadline)
    setups.append(child["setup_s"])
    setups += [spawn([*args, "1"], deadline)["setup_s"] for _ in range(extra - extra // 2)]
    if trace:
        metrics = {m["name"]: {"value": per_layer(m["name"], child), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = dict(child, setup_s=statistics.median(setups))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    summary = {
        "correct": child["mismatches"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = dict(summary, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  git_sha=git_sha(), setup_samples=setups,
                  **{k: v for k, v in child.items() if k not in ("spans", "layers")},
                  spans=child.get("spans"))
    with open(os.path.join(OUT_DIR, f"result-{workload}-{seed}-{trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return dict(summary, record=record)


def report(workload: str, result: dict) -> None:
    rec = result["record"]
    print(f"== {workload} (seed {rec['seed']}, trace {rec['trace']}): {rec['attempted']} ops "
          f"in {rec['rounds']} rounds, {rec['phase_s']:.2f} s measured, "
          f"latency samples {rec['attempted']}, set-up samples {len(rec['setup_samples'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  failures {rec['fail_by_kind'] or 'none'}; mismatches {rec['mismatches']}")
    cal = rec["calibration"]
    print(f"  host calibration factor {cal['factor']:.4f} from {cal['probes']} probes "
          f"(set-up {cal['setup_factor']:.4f}); raw {cal['raw']}")
    if rec["known_defects"]:
        calls = ", ".join(f"{d['m']} {d['variant']} {d['steps']}:{d['error']}" for d in rec["known_defects"])
        print(f"  known defect, run outside the measured phase: decay_interval (m variant steps) {calls}")
    print(f"  inputs {rec['input_digest'][:16]}  outputs {rec['output_digest'][:16]}  env {rec['env']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "treefrac", "__init__.py")):
        print("perfbench: src/treefrac not found; run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        if args.workload != "all":
            if args.workload not in names:
                parser.error(f"--workload must be one of {names} or all")
            result = run_one(bench, args.workload, args.seed, seconds, args.trace,
                             started + DEADLINE_S)
            report(args.workload, result)
            print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        summary = {}
        for name in names:
            plain = run_one(bench, name, args.seed, seconds, 0, time.monotonic() + DEADLINE_S)
            traced = run_one(bench, name, args.seed, seconds, 1, time.monotonic() + DEADLINE_S)
            report(name, plain)
            report(name, traced)
            same = plain["record"]["input_digest"] == traced["record"]["input_digest"]
            untraced_rate = plain["metrics"]["ops_per_s"]["value"]
            traced_rate = traced["metrics"]["trace.ops_per_s"]["value"]
            overhead = (untraced_rate - traced_rate) / untraced_rate if same else None
            print(f"  tracing overhead on ops_per_s: "
                  f"{'inputs differ, not compared' if overhead is None else f'{overhead:.2%}'}")
            summary[name] = {"end_to_end": plain["metrics"], "per_layer": traced["metrics"],
                             "trace_overhead": overhead}
        print(json.dumps(summary))
        return 0
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
