"""Per-kernel and per-suite timings of shpqm checkouts, written to a JSON file.

    python tools/kernel_timings.py --out BENCH_6.json change=src parent=../parent/src

Each LABEL=SRC argument names a directory holding a `shpqm` package; with
none, the package of this repository is timed as `change`.  All checkouts are
loaded side by side in one interpreter (each under its own module name), and
every figure is taken by alternating between them, a short block of calls at
a time, and keeping each one's best block: the speed of a shared machine
drifts by tens of percent within seconds, and alternating exposes the
checkouts to the same drift.

For each kernel it times one call on N = 1, 100 and 10,000 samples: a single
(2, 2) or (4,) input at N = 1, one batched call on a leading sample axis
otherwise.  A kernel that rejects a batched input (code from before the
kernels were batch-first) is timed as a Python loop of N single calls, and
the entry says so; a kernel that a checkout lacks is recorded as absent.
Then it times each verification suite as `run_all` calls
it at 1000 samples, and the tau-evolution path of `shpqm evolve`: µs per
step of `evolution.classical_integrate` over 20,000 free RK4 steps, and µs
per row of the CLI's CSV writer on that trajectory (20,001 rows of 10
values) and on an interference scan (100,001 rows of 4 values), each
written to a file.  Last, the interference scan of
`configs/interference_example.cfg` at 400,001 samples: the fringe-period
estimator alone (`interference._dtft_period`, or `_fourier_period` in a
checkout that has only that), and `shpqm interference --format csv` end to
end through `cli.main`, written to a file.  Uses only the standard library
and numpy.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

SIZES = (1, 100, 10_000)
SUITE_SAMPLES = 1000
EVOLVE_STEPS = 20_000
SCAN_ROWS = 100_001
PERIOD_SAMPLES = 400_001
EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "interference_example.cfg"
KERNELS = ("sl2c.spinor_map", "sl2c.canonical_boost", "little_group.wigner_d",
           "little_group.transport", "dirac.sigma_n_all", "dirac.s_lambda")


def load(src, alias):
    """Import the shpqm package under `src` as the module `alias`."""
    init = Path(src) / "shpqm" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{alias}.cli")     # imports every module
    return package


def best_seconds(calls, repeats, number):
    """{label: best over `repeats` of the mean time of `number` calls}, the
    labels' blocks alternating."""
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(repeats):
        for label, fn in calls.items():
            t0 = perf_counter()
            for _ in range(number):
                fn()
            best[label] = min(best[label], (perf_counter() - t0) / number)
    return best


def kernel_inputs(package, count, seed=0):
    """`count` SL(2,C) elements and unit timelike vectors, stacked."""
    rng = np.random.default_rng(seed)
    a = np.array([package.sl2c.random_sl2c(rng, 1.0) for _ in range(count)])
    n = np.array([package.minkowski.random_unit_timelike(rng, 1.5) for _ in range(count)])
    return a, n


def kernel(package, name, a, n):
    """A kernel of `package` (None if it lacks one) with its arguments for
    the inputs a, n."""
    module, fn = name.split(".")
    args = {"spinor_map": (a,), "canonical_boost": (n,), "wigner_d": (a, n),
            "transport": (a, n), "sigma_n_all": (n,), "s_lambda": (a,)}[fn]
    return getattr(getattr(package, module), fn, None), args


def accepts_batch(fn, args, size):
    try:
        out = fn(*args)
        return np.shape(out[0] if isinstance(out, tuple) else out)[:1] == (size,)
    except (ValueError, IndexError, TypeError):
        return False


def kernel_table(packages, inputs):
    table = {label: {name: {} for name in KERNELS} for label in packages}
    for size in SIZES:
        for name in KERNELS:
            calls, modes = {}, {}
            for label, package in packages.items():
                fn, args = kernel(package, name, *(x[:size] for x in inputs))
                if fn is None:
                    table[label][name] = "absent"
                elif size == 1:
                    single = tuple(x[0] for x in args)
                    calls[label], modes[label] = (lambda f=fn, s=single: f(*s)), "single"
                elif accepts_batch(fn, args, size):
                    calls[label], modes[label] = (lambda f=fn, s=args: f(*s)), "batched"
                else:
                    calls[label] = lambda f=fn, s=args: [f(*x) for x in zip(*s)]
                    modes[label] = "loop of single calls"
            number = 1000 if size == 1 else max(1, 10_000 // size)
            repeats = 15 if size == 1 else 5
            if any(mode.startswith("loop") for mode in modes.values()):
                number, repeats = 1, 3
            for label, seconds in best_seconds(calls, repeats, number).items():
                us = seconds * 1e6
                table[label][name][f"N={size}"] = {
                    "us_per_call": round(us, 3), "us_per_sample": round(us / size, 4),
                    "mode": modes[label]}
    return table


def suite_table(packages):
    table = {label: {} for label in packages}
    for name in next(iter(packages.values())).verification.SUITES:
        if name == "rest_frame":
            kwargs = {}
        elif name == "coupling":     # run_all's share for this suite
            kwargs = {"seed": 42, "samples": max(10, SUITE_SAMPLES // 5)}
        else:
            kwargs = {"seed": 42, "samples": SUITE_SAMPLES}
        calls = {label: (lambda f=p.verification.SUITES[name]: f(**kwargs))
                 for label, p in packages.items()}
        for label, seconds in best_seconds(calls, 3, 1).items():
            table[label][name] = {"seconds": round(seconds, 5),
                                  "samples": kwargs.get("samples", 0)}
    calls = {label: (lambda p=p: p.verification.run_all(42, SUITE_SAMPLES))
             for label, p in packages.items()}
    for label, seconds in best_seconds(calls, 3, 1).items():
        table[label]["run_all"] = {"seconds": round(seconds, 5), "samples": SUITE_SAMPLES}
    return table


def evolve_calls(package, path):
    """{name: (callable, work units)} for the `shpqm evolve` path of `package`,
    the CSV writers writing to `path`."""
    ev, cli = package.evolution, package.cli
    model = ev.FreeModel(2.0)
    start = ev.PhasePoint(np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 0.4, -0.2, 0.7]))
    traj = ev.classical_integrate(start, model, 0.01, EVOLVE_STEPS)
    emission = package.interference.EmissionConfig(35.0, 39.2, 0.0, 0.75, 0.5)
    scan = package.interference.scan_interference(emission, -4.0, 4.0, SCAN_ROWS)
    if hasattr(cli, "_write_csv"):
        write_traj = lambda: cli._write_csv(path, "tau,t,x,y,z,E,px,py,pz,K",
                                            [traj.tau, traj.x, traj.p, traj.k])
        write_scan = lambda: cli._write_csv(
            path, "delta_t_fs,probability,envelope,interference_term",
            [scan.dt_grid_fs, scan.probability, scan.envelope, scan.interference])
    else:   # checkouts from before the shared writer: one writer per table
        write_traj = lambda: cli._write_text(path, cli._classical_csv(traj, model))
        write_scan = lambda: cli._write_text(path, cli._interference_csv(scan))
    return {"classical_integrate": (lambda: ev.classical_integrate(
                start, model, 0.01, EVOLVE_STEPS), EVOLVE_STEPS),
            "evolve_csv": (write_traj, EVOLVE_STEPS + 1),
            "scan_csv": (write_scan, SCAN_ROWS)}


def evolve_table(packages):
    table = {label: {} for label in packages}
    with tempfile.TemporaryDirectory() as tmp:
        calls = {label: evolve_calls(p, str(Path(tmp) / f"{label}.csv"))
                 for label, p in packages.items()}
        for name, unit in (("classical_integrate", "step"), ("evolve_csv", "row"),
                           ("scan_csv", "row")):
            count = next(iter(calls.values()))[name][1]
            best = best_seconds({label: c[name][0] for label, c in calls.items()}, 5, 1)
            for label, seconds in best.items():
                table[label][name] = {f"us_per_{unit}": round(seconds * 1e6 / count, 4),
                                      f"{unit}s": count, "seconds": round(seconds, 5)}
    return table


def period_calls(package, path):
    """{name: (callable, what it times)} for the fringe period and the CSV
    scan of the example config at PERIOD_SAMPLES samples, the CSV going to
    `path`."""
    itf, cli = package.interference, package.cli
    values = cli.load_config(EXAMPLE_CONFIG)
    emission = itf.EmissionConfig(*(float(values[k]) for k in (
        "e1_ev", "e2_ev", "t_emit1_fs", "t_emit2_fs", "sigma_t_fs")))
    scan = itf.scan_interference(emission, float(values["dt_min_fs"]),
                                 float(values["dt_max_fs"]), PERIOD_SAMPLES)
    name = "_dtft_period" if hasattr(itf, "_dtft_period") else "_fourier_period"
    estimator = getattr(itf, name)
    argv = ["interference", "--config", str(EXAMPLE_CONFIG), "--format", "csv",
            "--samples", str(PERIOD_SAMPLES), "--out", path]
    return {"period_estimator": (lambda: estimator(scan.dt_grid_fs, scan.interference),
                                 f"interference.{name}"),
            "scan_cli_csv": (lambda: cli.main(argv), "shpqm interference --format csv")}


def period_table(packages):
    table = {label: {} for label in packages}
    with tempfile.TemporaryDirectory() as tmp:
        calls = {label: period_calls(p, str(Path(tmp) / f"{label}.csv"))
                 for label, p in packages.items()}
        for name in ("period_estimator", "scan_cli_csv"):
            best = best_seconds({label: c[name][0] for label, c in calls.items()}, 5, 1)
            for label, seconds in best.items():
                table[label][name] = {"seconds": round(seconds, 5),
                                      "samples": PERIOD_SAMPLES, "timed": calls[label][name][1]}
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="LABEL=SRC",
                        help="checkouts to time (default: change=<this repository>/src)")
    parser.add_argument("--out", default="BENCH_6.json", help="JSON file to write")
    args = parser.parse_args(argv)

    repo_src = Path(__file__).resolve().parents[1] / "src"
    checkouts = dict(item.split("=", 1) for item in args.checkouts or [f"change={repo_src}"])
    packages = {label: load(src, f"shpqm_{label}") for label, src in checkouts.items()}
    inputs = kernel_inputs(next(iter(packages.values())), max(SIZES))
    kernels, suites = kernel_table(packages, inputs), suite_table(packages)
    evolve, period = evolve_table(packages), period_table(packages)
    data = {"environment": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "method": "checkouts loaded side by side; best block, blocks alternating"}}
    for label in packages:
        data[label] = {"kernels": kernels[label], "suites_s": suites[label],
                       "evolve": evolve[label], "scan_period": period[label]}
    Path(args.out).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
