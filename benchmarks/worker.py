"""One run of one workload in a fresh interpreter; started by run.py.

The worker imports numpy and shpqm (timing each), draws the workload's
inputs from the seed and prints `ready`, the mark run.py times set-up by,
then the present length of a calibration unit (see `calibrate`).  With
--probe it stops there.  Otherwise it runs one warm-up op, then the closed
loop until the ops have taken --seconds (transport: a fixed number of ops),
and writes its figures as JSON to --result.  Each op's output is checked as
soon as the op returns, outside the op's time, and then dropped, so memory
does not grow with the number of ops.

The CPUs of a shared machine change speed often, by up to 2x, for spans
from a fraction of a second to tens of seconds.  While the ops run, a timer
times one small calibration unit every PROBE_PERIOD_S (see SpeedProbe); the
ticks' own time is taken out of the op times, and each op's time is also
given scaled to the reference speed, at which one unit takes
REFERENCE_UNIT_S: op seconds * REFERENCE_UNIT_S / the mean unit length of
the ticks during the op (or, for an op shorter than PROBE_WINDOW_S, within
that window around it).  Raw times are kept too.

With --trace 1 the tracer is installed for each op and removed before its
output is checked (the oracles call the library too).  Each op is then run
again untraced, which gives the tracing overhead and a check that tracing
does not change any output.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
REFERENCE_UNIT_S = 2e-4  # the speed scaled times refer to: 0.2 ms per calibration unit
SETUP_UNITS = 50         # calibration units after `ready`
PROBE_PERIOD_S = 0.025   # a calibration tick every 25 ms while the ops run
PROBE_WINDOW_S = 0.5     # the ticks that give a short op's speed: within 0.25 s of it


@dataclass
class Record:
    index: int
    seconds: float
    output: object     # whatever the op returned, or the exception it raised
    start: float       # perf_counter when the op began and ended
    end: float


@dataclass
class Outcome:
    """What is kept of an op once its output has been checked."""

    index: int
    seconds: float
    raised: str | None
    problems: list
    digest: str | None
    cli_bytes: int
    start: float
    end: float
    unit_s: float | None = None    # calibration unit length while the op ran

    def scaled_seconds(self):
        return self.seconds * REFERENCE_UNIT_S / self.unit_s


def calibration_unit():
    """A fixed amount of interpreter arithmetic and small numpy calls, the
    kind of work the ops do, so that its length follows the speed the CPU
    runs at just then."""
    import numpy as np

    acc, a = 0.0, np.full((4, 4), 0.05)
    for k in range(1000):
        acc += k * 0.5
    for _ in range(20):
        a = a @ a + 0.05
        np.linalg.norm(a)


def calibrate(units):
    """Median seconds of one calibration unit over `units` runs of it."""
    times = []
    for _ in range(units):
        t0 = perf_counter()
        calibration_unit()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Times one calibration unit every PROBE_PERIOD_S while it is entered.
    The SIGALRM handler runs on the thread that runs the ops, so the ticks
    meet the CPU speed the ops meet.  Python runs it between bytecodes: a
    long numpy call delays a tick but is never cut into.  Each tick runs the
    unit once untimed first, so that the timed run finds its code and data
    in cache whatever the op left there: the ticks follow the CPU's speed,
    not the op's use of memory."""

    def __init__(self):
        self.start, self.length, self.cost = [], [], []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        calibration_unit()
        t1 = perf_counter()
        calibration_unit()
        t2 = perf_counter()
        self.start.append(t0)
        self.length.append(t2 - t1)
        self.cost.append(t2 - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, t0, t1):
        return slice(bisect_left(self.start, t0), bisect_right(self.start, t1))

    def spent(self, t0, t1):
        """Seconds the ticks took between t0 and t1."""
        return sum(self.cost[self._span(t0, t1)])

    def unit_s(self, t0, t1):
        """Mean unit length during [t0, t1], widened to PROBE_WINDOW_S."""
        half, mid = max(t1 - t0, PROBE_WINDOW_S) / 2, (t0 + t1) / 2
        ticks = self.length[self._span(mid - half, mid + half)]
        return statistics.fmean(ticks) if ticks else statistics.median(self.length)


def run_op(wl, inputs, out_dir, i):
    """Run op `i` of the pool and time it."""
    x = inputs.ops[i % len(inputs.ops)]
    t0 = perf_counter()
    try:
        output = wl.op(x, str(out_dir / f"op{i}"))
    except (Exception, SystemExit) as exc:
        output = exc
    t1 = perf_counter()
    return Record(i, t1 - t0, output, t0, t1)


def run_ops(wl, inputs, out_dir, seconds, tracer=None, probe=None):
    """Closed loop with one caller: each op starts when the previous one has
    returned.  Yields a Record after each op; what the caller does with it is
    outside the op's time.  Stops once the ops have taken `seconds` in all,
    or, for a workload with a fixed op rate, after ops_per_s * seconds ops.
    A tracer is installed for the duration of each op only.  The time of the
    ticks of a running SpeedProbe is taken out of each op's time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    count = max(1, round(wl.ops_per_s * seconds)) if wl.ops_per_s else None
    busy, i = 0.0, 0
    while True:
        if tracer is not None:
            tracer.op = i
            tracer.install()
        try:
            record = run_op(wl, inputs, out_dir, i)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if probe is not None:
            record.seconds -= probe.spent(record.start, record.end)
        busy += record.seconds
        yield record
        i += 1
        if (i >= count) if count else busy >= seconds:
            break


def settle(wl, inputs, record, with_digest=False):
    """Check an op's output against its oracle, then delete its files."""
    import workloads                   # main() imports it after timing shpqm's import

    out = record.output
    raised, problems = None, []
    if isinstance(out, BaseException):
        # group messages that differ only in their numbers
        text = re.sub(r"\d[\d.e+-]*", "#", str(out))
        raised = f"{type(out).__name__}: {text}"
    else:
        try:
            problems = wl.check(inputs.ops[record.index % len(inputs.ops)], out)
        except Exception as exc:       # unreadable output is a wrong output
            problems = [f"oracle could not read the output: {exc!r}"]
    outcome = Outcome(record.index, record.seconds, raised, problems,
                      workloads.digest(out) if with_digest else None,
                      workloads.cli_bytes(out), record.start, record.end)
    for run in workloads.cli_runs(out):
        if run.path is not None:
            os.remove(run.path)
    return outcome


def tally(outcomes):
    """Ops that raised, ops with a wrong output, and notes on both."""
    wrong = [f"op {o.index}: {o.problems[0]}" for o in outcomes if o.problems]
    raised = collections.Counter(o.raised for o in outcomes if o.raised and not o.problems)
    notes = [f"raised {n}x {text}" for text, n in raised.most_common(3)] + wrong[:5]
    return raised.total(), len(wrong), notes


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(np, seed, sizes):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": git_commit(), "seed": seed, "input_sizes": sizes,
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    t = perf_counter()
    import numpy as np
    import_numpy_s = perf_counter() - t
    sys.path.insert(0, str(ROOT / "src"))
    t = perf_counter()
    import shpqm.cli
    import_shpqm_s = perf_counter() - t
    if not Path(shpqm.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"shpqm imported from {shpqm.cli.__file__}, not from {ROOT / 'src'}")
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    inputs = wl.generate(args.seed, work_dir / "inputs")
    print("ready", flush=True)
    print(calibrate(SETUP_UNITS), flush=True)
    if args.probe:
        return 0

    t = perf_counter()
    try:
        wl.op(inputs.warmup, str(work_dir / "warmup"))
    except (Exception, SystemExit):
        pass                            # the warm-up op is neither timed nor judged
    warmup_s = perf_counter() - t

    result = {"workload": wl.name, "unit": wl.unit,
              "env": environment(np, args.seed, inputs.sizes)}
    if args.trace:
        tr = tracing.Tracer()
        outcomes, replay = [], []
        ops_dir = work_dir / "ops"
        for record in run_ops(wl, inputs, ops_dir, args.seconds, tracer=tr):
            outcomes.append(settle(wl, inputs, record, with_digest=True))
            # the same op untraced right after, so that both runs of it meet
            # the same load on a shared machine
            replay.append(settle(wl, inputs, run_op(wl, inputs, ops_dir, record.index),
                                 with_digest=True))
        traced_s = sum(o.seconds for o in outcomes)
        metrics = tr.layer_metrics(len(outcomes), traced_s)
        metrics.update({
            "cli.bytes_out": statistics.fmean(o.cli_bytes for o in outcomes),
            "setup.import_numpy_s": import_numpy_s,
            "setup.import_shpqm_s": import_shpqm_s,
            "setup.warmup_s": warmup_s,
            "trace.overhead_frac": traced_s / sum(o.seconds for o in replay) - 1.0,
        })
        for o, u in zip(outcomes, replay):
            if o.digest != u.digest:
                o.problems.append("tracing changed the output")
        raised, wrong, notes = tally(outcomes)
        tr.save(OUT / f"spans-{wl.name}.npz")
        result["spans"] = len(tr.start)
    else:
        with SpeedProbe() as probe:
            outcomes = [settle(wl, inputs, r)
                        for r in run_ops(wl, inputs, work_dir / "run", args.seconds,
                                         probe=probe)]
        for o in outcomes:
            o.unit_s = probe.unit_s(o.start, o.end)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        work = sum(wl.work(inputs.ops[o.index % len(inputs.ops)]) for o in outcomes)
        metrics = {"peak_rss_mb": peak_rss_mb,
                   "speed.unit_ms": statistics.median(o.unit_s for o in outcomes) * 1e3}
        for prefix, seconds in (("", [o.scaled_seconds() for o in outcomes]),
                                ("raw.", [o.seconds for o in outcomes])):
            metrics.update({
                prefix + "throughput_per_s": work / sum(seconds),
                prefix + "latency_p50_ms": statistics.median(seconds) * 1e3,
                prefix + "latency_p99_ms": percentile(seconds, 0.99) * 1e3,
            })
        raised, wrong, notes = tally(outcomes)
        result["op_seconds"] = [o.seconds for o in outcomes]
        result["op_unit_seconds"] = [o.unit_s for o in outcomes]
    shutil.rmtree(work_dir, ignore_errors=True)
    result.update({"ops": len(outcomes), "raised": raised, "wrong": wrong,
                   "notes": notes, "metrics": metrics})
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
