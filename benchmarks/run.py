"""Benchmark of the shpqm library and CLI.

    python3 benchmarks/run.py --workload transport --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run of a workload starts fresh interpreters: SETUP_PROBES that only
import shpqm and load the inputs (for setup_s), then one worker that runs the
closed loop and checks every output (see worker.py).  Times are gated as
scaled to a reference CPU speed (worker.REFERENCE_UNIT_S); the raw times
are printed beside them.  The last line printed
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics BENCHMARK.json declares with --trace 0, the
per-layer metrics of a traced run with --trace 1.  Workload and metric
names and units are read from BENCHMARK.json.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import REFERENCE_UNIT_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6           # plus the worker itself: setup_s is a median of 7
DEADLINE_S = 170.0         # a run of one workload must end within this
# Printed for every run but not gated: the unscaled times, whose run-to-run
# spread on a shared machine exceeds any bound BENCHMARK.json may hold, and
# the calibration unit they were scaled by.
PRINTED = {"raw.setup_s": "s", "raw.throughput_per_s": "1/s", "raw.latency_p50_ms": "ms",
           "raw.latency_p99_ms": "ms", "speed.unit_ms": "ms"}
SCALED = {"setup_s", "throughput_per_s", "latency_p50_ms", "latency_p99_ms"}
# one caller, no extra threads: pin every BLAS pool the worker might start
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def start_worker(args, deadline):
    """Start worker.py and wait for it; return the seconds until it printed
    `ready` and the calibration unit length it measured next."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - t0
        unit = proc.stdout.readline()
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    return ready_s, float(unit)


def run_workload(name, seed, seconds, trace):
    """Run one workload; return the worker's result with setup_s added."""
    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setup = [] if trace else [start_worker([*common, "--probe"], deadline)
                              for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{name}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    setup.append(start_worker([*common, "--seconds", str(seconds), "--trace", str(trace),
                               "--result", str(result_path)], deadline))
    result = json.loads(result_path.read_text())
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            ready_s * REFERENCE_UNIT_S / unit_s for ready_s, unit_s in setup)
        result["metrics"]["raw.setup_s"] = statistics.median(s for s, _ in setup)
    return result


def report(result, units):
    """Human-readable lines for one workload's result."""
    ops, raised, wrong = result["ops"], result["raised"], result["wrong"]
    lines = [f"env {json.dumps(result['env'], sort_keys=True)}",
             f"{result['workload']}: {ops} ops, {raised} raised, {wrong} wrong output, "
             f"failed_frac {(raised + wrong) / ops:.4f}"]
    lines += [f"  note: {n}" for n in result["notes"]]
    for key in sorted(result["metrics"]):
        value, unit = result["metrics"][key], units[key]
        extra = ""
        base = key.removeprefix("raw.")
        if base == "throughput_per_s":
            extra = f"  ({result['unit']} per second)"
        elif base.startswith("latency_"):
            few = base.endswith("p99_ms") and ops < 1000
            extra = f"  (n={ops}{', under 10 ops beyond p99' if few else ''})"
        elif base == "setup_s":
            extra = f"  (median of {SETUP_PROBES + 1} fresh interpreters)"
        if key in PRINTED:
            extra += "  [not gated]"
        elif key in SCALED:
            extra += "  [at reference speed]"
        lines.append(f"  {key:48s} {value:.6g} {unit}{extra}")
    if "spans" in result:
        lines.append(f"  spans recorded: {result['spans']} "
                     f"(.bench_out/spans-{result['workload']}.npz)")
    return lines


def summary(result, units, prefix=""):
    """The JSON line: the gated metrics only."""
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["ops"],
        "failed": result["raised"] + result["wrong"],
        "metrics": {prefix + k: {"value": v, "unit": units[k]}
                    for k, v in sorted(result["metrics"].items()) if k in units},
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="shpqm benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "shpqm" / "cli.py", ROOT / "configs" / "evolve_quantum.cfg"):
        if not needed.is_file():
            print(f"benchmark: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    gated = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    units = gated if args.trace else {**gated, **PRINTED}
    names = workloads if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace))
            print("\n".join(report(results[-1], units)), flush=True)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(summary(results[0], gated)))
        return 0
    parts = [summary(r, gated, prefix=f"{r['workload']}.") for r in results]
    for part in parts:
        print(json.dumps(part))
    print(json.dumps({"correct": all(p["correct"] for p in parts),
                      "attempted": sum(p["attempted"] for p in parts),
                      "failed": sum(p["failed"] for p in parts),
                      "metrics": {k: v for p in parts for k, v in p["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
