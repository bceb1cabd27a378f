"""Per-kernel and per-suite timings of shpqm checkouts, written to a JSON file.

    python tools/kernel_timings.py --out BENCH_16.json change=src parent=../parent/src

Each LABEL=SRC argument names a directory holding a `shpqm` package; with
none, the package of this repository is timed as `change`.  All checkouts are
loaded side by side in one interpreter (each under its own module name), and
every figure is taken by alternating between them, a short block of calls at
a time, and keeping each one's best block: the speed of a shared machine
drifts by tens of percent within seconds, and alternating exposes the
checkouts to the same drift.

Every checkout must be from commit b6fd038 on, the first to have every
function timed below (the last added was `dirac.sigma_n_pairs`).

For each kernel it times one call on N = 1, 100 and 10,000 samples: a single
(2, 2) or (4,) input at N = 1, one batched call on a leading sample axis
otherwise.  Then it times each verification suite as `run_all` calls it at
1000 samples, and `run_all` itself; it prints to stderr how far `run_all` is
from the sum of its suites, since on a shared machine the two, timed apart, can
disagree by ~1.3x.  Then the tau-evolution path of `shpqm evolve`: µs per
step of `evolution.classical_integrate` over 20,000 free steps, and µs
per row of the CLI's CSV writer on that trajectory (20,001 rows of 10
values) and on an interference scan (100,001 rows of 4 values), each
written to a file.  Then the quantum tau sweep: µs per tau step, one
`free_evolve` of the packet of `configs/evolve_quantum.cfg` one `dtau` into
its sweep, then `mass_moments` and `time_energy_uncertainty` of the new
packet, as each step of the sweep makes them (timing the calls one by one on
a single packet would time only its cached facts).  Last, the interference scan of
`configs/interference_example.cfg` at 400,001 samples: the fringe-period
estimator alone (`interference._dtft_period`), and `shpqm interference
--format csv` end to end through `cli.main`, written to a file.  Last,
`csv_format`: µs per value of the CLI's CSV writer (`cli._write_csv`) on
three tables, each written to a file: the interference scan and the
trajectory above, and 100,000 rows of 4 random float64 bit patterns, whose
nan, inf and extreme values send most blocks to the writer's %-formatting
fallback (its worst case).  Last, `cli_dispatch`: µs per
`cli.main(["wigner", ...])` call with stdout captured, per
`cli.build_parser()` call as `main` makes it, per parser build (the function
under its cache), and per transport op: the benchmark's N = 1 op of one
`induced_transform`, one `transform_pair` with `assemble_spinor` and
`sector_norm`, and that wigner query.  Uses only the standard library and
numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
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
SUITE_REPEATS = 9     # a suite is one call; a best of 3 was seen off by 1.7x
EVOLVE_STEPS = 20_000
SCAN_ROWS = 100_001
PERIOD_SAMPLES = 400_001
RANDOM_ROWS = 100_000
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EXAMPLE_CONFIG = CONFIGS / "interference_example.cfg"
QUANTUM_CONFIG = CONFIGS / "evolve_quantum.cfg"
WIGNER_ARGV = ["wigner", "--boost1", "x:1.3", "--boost2", "y:2.2"]
KERNELS = ("sl2c.spinor_map", "sl2c.canonical_boost", "little_group.wigner_d",
           "little_group.transport", "dirac.sigma_n_pairs", "dirac.sigma_n_all",
           "dirac.s_lambda")


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
    """A kernel of `package` with its arguments for the inputs a, n."""
    module, fn = name.split(".")
    args = {"spinor_map": (a,), "canonical_boost": (n,), "wigner_d": (a, n),
            "transport": (a, n), "sigma_n_pairs": (n,), "sigma_n_all": (n,),
            "s_lambda": (a,)}[fn]
    return getattr(getattr(package, module), fn), args


def kernel_table(packages, inputs):
    table = {label: {name: {} for name in KERNELS} for label in packages}
    for size in SIZES:
        for name in KERNELS:
            calls = {}
            for label, package in packages.items():
                fn, args = kernel(package, name, *(x[:size] for x in inputs))
                if size == 1:
                    args = tuple(x[0] for x in args)
                calls[label] = lambda f=fn, s=args: f(*s)
            number = 1000 if size == 1 else max(1, 10_000 // size)
            repeats = 15 if size == 1 else 5
            for label, seconds in best_seconds(calls, repeats, number).items():
                us = seconds * 1e6
                table[label][name][f"N={size}"] = {
                    "us_per_call": round(us, 3), "us_per_sample": round(us / size, 4)}
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
        for label, seconds in best_seconds(calls, SUITE_REPEATS, 1).items():
            table[label][name] = {"seconds": round(seconds, 5),
                                  "samples": kwargs.get("samples", 0)}
    calls = {label: (lambda p=p: p.verification.run_all(42, SUITE_SAMPLES))
             for label, p in packages.items()}
    for label, seconds in best_seconds(calls, SUITE_REPEATS, 1).items():
        gap = seconds - sum(entry["seconds"] for entry in table[label].values())
        table[label]["run_all"] = {"seconds": round(seconds, 5), "samples": SUITE_SAMPLES,
                                   "minus_suites_seconds": round(gap, 5)}
        print(f"{label}: run_all {seconds:.5f} s, minus the sum of its suites {gap:+.5f} s",
              file=sys.stderr)
    return table


def sample_tables(package):
    """(start, model, trajectory, scan): the free trajectory of EVOLVE_STEPS
    steps, with its start and model, and the interference scan of SCAN_ROWS
    rows that the CSV writers are timed on."""
    ev, itf = package.evolution, package.interference
    model = ev.FreeModel(2.0)
    start = ev.PhasePoint(np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 0.4, -0.2, 0.7]))
    traj = ev.classical_integrate(start, model, 0.01, EVOLVE_STEPS)
    scan = itf.scan_interference(itf.EmissionConfig(35.0, 39.2, 0.0, 0.75, 0.5),
                                 -4.0, 4.0, SCAN_ROWS)
    return start, model, traj, scan


def evolve_calls(package, path):
    """{name: (callable, work units)} for the `shpqm evolve` path of `package`,
    the CSV writers writing to `path`."""
    ev, cli = package.evolution, package.cli
    start, model, traj, scan = sample_tables(package)
    write_traj = lambda: cli._write_csv(path, "tau,t,x,y,z,E,px,py,pz,K",
                                        [traj.tau, traj.x, traj.p, traj.k])
    write_scan = lambda: cli._write_csv(
        path, "delta_t_fs,probability,envelope,interference_term",
        [scan.dt_grid_fs, scan.probability, scan.envelope, scan.interference])
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


def tau_step_call(package):
    """One tau step of the quantum sweep from the packet of QUANTUM_CONFIG
    after one step of its dtau: free_evolve, then mass_moments and
    time_energy_uncertainty of the new packet.  The packet has had one whole
    step, so it carries what a sweep carries from step to step."""
    ev, values = package.evolution, package.cli.load_config(QUANTUM_CONFIG)
    get = lambda key: float(values.get(key, 0.0))
    dtau = get("dtau")

    def step(packet):
        evolved = ev.free_evolve(packet, dtau)
        ev.mass_moments(evolved)
        ev.time_energy_uncertainty(evolved)
        return evolved

    packet = step(ev.MomentumPacket.gaussian_energy_axis(
        get("e_center"), get("e_width"), [get("px"), get("py"), get("pz")],
        get("mass_param"), num=int(values.get("num", 256))))
    return lambda: step(packet)


def tau_step_table(packages):
    calls = {label: tau_step_call(p) for label, p in packages.items()}
    return {label: {"us_per_step": round(seconds * 1e6, 3)}
            for label, seconds in best_seconds(calls, 15, 300).items()}


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
    argv = ["interference", "--config", str(EXAMPLE_CONFIG), "--format", "csv",
            "--samples", str(PERIOD_SAMPLES), "--out", path]
    return {"period_estimator": (lambda: itf._dtft_period(scan.dt_grid_fs, scan.interference),
                                 "interference._dtft_period"),
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


def csv_format_calls(package, path):
    """{table: (callable, values written)} for `cli._write_csv` of `package`
    writing each table of `csv_format` to `path`."""
    cli = package.cli
    _, _, traj, scan = sample_tables(package)
    bits = np.random.default_rng(8).integers(0, 2**64, (RANDOM_ROWS, 4), dtype=np.uint64)
    tables = {"scan": [scan.dt_grid_fs, scan.probability, scan.envelope, scan.interference],
              "trajectory": [traj.tau, traj.x, traj.p, traj.k],
              "random_bits": [bits.view(np.float64)]}
    return {name: (lambda c=columns: cli._write_csv(path, "header", c),
                   np.column_stack(columns).size)
            for name, columns in tables.items()}


def csv_format_table(packages):
    table = {label: {} for label in packages}
    with tempfile.TemporaryDirectory() as tmp:
        calls = {label: csv_format_calls(p, str(Path(tmp) / f"{label}.csv"))
                 for label, p in packages.items()}
        for name in ("scan", "trajectory", "random_bits"):
            best = best_seconds({label: c[name][0] for label, c in calls.items()}, 5, 1)
            for label, seconds in best.items():
                count = calls[label][name][1]
                table[label][name] = {"us_per_value": round(seconds * 1e6 / count, 4),
                                      "values": count, "seconds": round(seconds, 5)}
    return table


def dispatch_calls(package):
    """{name: callable} for the N = 1 CLI path of `package`: a wigner query
    through `cli.main`, the parser as `main` gets it and as built, and one
    transport op on fixed inputs."""
    cli, lg, dirac, sl2c = package.cli, package.little_group, package.dirac, package.sl2c
    rng = np.random.default_rng(9)
    n = package.minkowski.random_unit_timelike(rng, 1.5)
    center_x, center_p = rng.normal(size=4), rng.normal(size=4)
    spin = np.array([0.6, 0.8j])
    a = sl2c.sl2c_rotation([0.0, 0.6, 0.8], 1.1) @ sl2c.sl2c_boost([0.8, 0.0, 0.6], 0.9)

    def wigner():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(WIGNER_ARGV)

    def transport():
        lg.induced_transform(lg.InducedPacketState(n, spin, center_x, center_p, 1.0), a)
        pair = dirac.transform_pair(dirac.TwoSpinorPair(spin, spin[::-1], n), a)
        dirac.sector_norm(dirac.assemble_spinor(pair))
        wigner()

    return {"main_wigner": wigner, "build_parser": cli.build_parser,
            "parser_build": cli.build_parser.__wrapped__,
            "transport_op": transport}


def dispatch_table(packages):
    table = {label: {} for label in packages}
    calls = {label: dispatch_calls(p) for label, p in packages.items()}
    for name in ("main_wigner", "build_parser", "parser_build", "transport_op"):
        best = best_seconds({label: c[name] for label, c in calls.items()}, 15, 200)
        for label, seconds in best.items():
            table[label][name] = {"us_per_call": round(seconds * 1e6, 3)}
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="LABEL=SRC",
                        help="checkouts to time (default: change=<this repository>/src)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    repo_src = Path(__file__).resolve().parents[1] / "src"
    checkouts = dict(item.split("=", 1) for item in args.checkouts or [f"change={repo_src}"])
    packages = {label: load(src, f"shpqm_{label}") for label, src in checkouts.items()}
    inputs = kernel_inputs(next(iter(packages.values())), max(SIZES))
    kernels, suites = kernel_table(packages, inputs), suite_table(packages)
    evolve, tau_step = evolve_table(packages), tau_step_table(packages)
    period, csv_format = period_table(packages), csv_format_table(packages)
    dispatch = dispatch_table(packages)
    data = {"environment": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "method": "checkouts loaded side by side; best block, blocks alternating"}}
    for label in packages:
        data[label] = {"kernels": kernels[label], "suites_s": suites[label],
                       "evolve": evolve[label], "tau_step": tau_step[label],
                       "scan_period": period[label], "csv_format": csv_format[label],
                       "cli_dispatch": dispatch[label]}
    Path(args.out).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
