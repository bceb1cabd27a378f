"""Per-kernel and per-suite timings of shpqm checkouts, written to a JSON file.

    python tools/kernel_timings.py --out BENCH_16.json change=src parent=../parent/src

Each LABEL=SRC argument names a directory holding a `shpqm` package; with
none, the package of this repository is timed as `change`.  The checkouts
are loaded side by side in one interpreter, each under its own module name.
Every checkout must be from commit b6fd038 on, the first to have every
function timed below.

One protocol times every entry.  Each checkout's callable runs in BLOCKS
blocks, the checkouts' blocks alternating, so that all of them see the same
drift of a shared machine.  A block repeats the call as often as the slowest
checkout needs to fill BLOCK_SECONDS.  Every figure is given as the best,
median and quartiles (q1, q3) of its blocks, in the entry's unit.  A callable
may also return {part: seconds}, clocked inside it; each part then gets the
same four figures.

The sections of each checkout's JSON:
- `kernels`: one call on N = 1, 100 and 10,000 samples (a single input at
  N = 1, one batched call otherwise) of `spinor_map`, `canonical_boost`,
  `wigner_d`, `transport`, `sigma_n_pairs`, `sigma_n_all`, `s_lambda`,
  `gamma_dot`, `k_t`, `helicity_operator`, `projections` and
  `sector_metric`.
- `suites_s`: `verification.run_all` at 1000 samples, with each entry of
  `verification.SUITES` clocked inside that same call, and `run_all` less
  the sum of its suites.
- `evolve`: `classical_integrate` over 20,000 free steps, and the CLI's CSV
  writer on that trajectory and on a 100,001-row interference scan.
- `tau_step`: one tau step of the sweep of `configs/evolve_quantum.cfg`
  (`free_evolve`, then `mass_moments` and `time_energy_uncertainty` of the
  new packet), with each of the three calls clocked inside the step.
- `tau_sweep`: a whole sweep of 2,000 such steps from a fresh packet, as the
  benchmark's evolve op runs it.
- `scan_period`: the fringe-period estimator (`interference._dtft_period`)
  and `shpqm interference --format csv` through `cli.main`, on the scan of
  `configs/interference_example.cfg` at 400,001 samples.
- `csv_format`: `cli._write_csv` on the scan and the trajectory above, and
  on 100,000 rows of 4 random float64 bit patterns, whose nan, inf and
  extreme values send most blocks to the writer's %-formatting fallback.
- `cli_dispatch`: a `shpqm wigner` query through `cli.main`, the parser as
  `main` gets it and as built, and the benchmark's N = 1 transport op.
Files are written to a temporary directory.  Uses only the standard library
and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

BLOCKS = 9
BLOCK_SECONDS = 0.01
SIZES = (1, 100, 10_000)
SUITE_SEED, SUITE_SAMPLES = 42, 1000
EVOLVE_STEPS = 20_000
SCAN_ROWS = 100_001
PERIOD_SAMPLES = 400_001
RANDOM_ROWS = 100_000
SWEEP_STEPS = 2000
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EXAMPLE_CONFIG = CONFIGS / "interference_example.cfg"
QUANTUM_CONFIG = CONFIGS / "evolve_quantum.cfg"
WIGNER_ARGV = ["wigner", "--boost1", "x:1.3", "--boost2", "y:2.2"]
KERNELS = ("sl2c.spinor_map", "sl2c.canonical_boost", "little_group.wigner_d",
           "little_group.transport", "dirac.sigma_n_pairs", "dirac.sigma_n_all",
           "dirac.s_lambda", "dirac.gamma_dot", "dirac.k_t", "dirac.helicity_operator",
           "dirac.projections", "dirac.sector_metric")


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


def calls_per_block(calls):
    """The number of calls that fills BLOCK_SECONDS for the slowest of
    `calls`, doubled from 1; the trials warm each callable up."""
    def fill(fn):
        number = 1
        while True:
            t0 = perf_counter()
            for _ in range(number):
                fn()
            if perf_counter() - t0 >= BLOCK_SECONDS:
                return number
            number *= 2
    return min(fill(fn) for fn in calls)


def time_blocks(calls, blocks, number):
    """{label: {part: seconds per call in each block}} for the callables
    `calls`, each run `number` times a block for `blocks` blocks, the labels'
    blocks alternating.  Part "" is the block's own clock; a callable that
    returns {part: seconds}, clocked inside it, adds those parts."""
    times = {label: {} for label in calls}
    for _ in range(blocks):
        for label, fn in calls.items():
            clocked = []
            t0 = perf_counter()
            for _ in range(number):
                got = fn()
                if type(got) is dict:
                    clocked.append(got)
            block = Counter({"": perf_counter() - t0})
            for got in clocked:
                block.update(got)
            for part, seconds in block.items():
                times[label].setdefault(part, []).append(seconds / number)
    return {label: {part: np.array(s) for part, s in parts.items()}
            for label, parts in times.items()}


def summary(values):
    """{best, median, q1, q3} of `values`, to 4 significant digits."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {name: float(f"{value:.4g}") for name, value in
            (("best", np.min(values)), ("median", median), ("q1", q1), ("q3", q3))}


def kernel_inputs(package, count, seed=0):
    """`count` SL(2,C) elements, unit timelike vectors and four-momenta, stacked."""
    rng = np.random.default_rng(seed)
    a = np.array([package.sl2c.random_sl2c(rng, 1.0) for _ in range(count)])
    n = np.array([package.minkowski.random_unit_timelike(rng, 1.5) for _ in range(count)])
    return a, n, rng.normal(scale=2.0, size=(count, 4))


def kernel(package, name, a, n, p):
    """A kernel of `package` with its arguments for the inputs a, n, p."""
    module, fn = name.split(".")
    args = {"spinor_map": (a,), "canonical_boost": (n,), "wigner_d": (a, n),
            "transport": (a, n), "sigma_n_pairs": (n,), "sigma_n_all": (n,),
            "s_lambda": (a,), "gamma_dot": (n,), "k_t": (p, n),
            "helicity_operator": (p, n), "projections": (p, n), "sector_metric": (n,)}[fn]
    return getattr(getattr(package, module), fn), args


def dropped(fn, *args):
    """Call fn, dropping its result: time_blocks reads a dict as clocked
    parts, and `projections` returns one."""
    fn(*args)


def suite_call(verification, samples):
    """A call of `verification.run_all` that returns {suite: seconds} for each
    entry of `verification.SUITES`, clocked inside that call, with "run_all"
    and "minus_suites" (run_all less the sum of its suites).  Each suite's
    `samples` argument goes into `samples`.  The suites are wrapped in place
    for the call and restored after it, also when one raises."""
    def clocked(name, fn, clock):
        def suite(*args, **kwargs):
            samples[name] = kwargs.get("samples", 0)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            clock[name] = perf_counter() - t0
            return result
        return suite

    def call():
        clock, originals = {}, dict(verification.SUITES)
        verification.SUITES.update(
            {name: clocked(name, fn, clock) for name, fn in originals.items()})
        try:
            t0 = perf_counter()
            verification.run_all(SUITE_SEED, SUITE_SAMPLES)
            clock["run_all"] = perf_counter() - t0
        finally:
            verification.SUITES.update(originals)
        return {**clock, "minus_suites": clock["run_all"] - sum(clock[n] for n in originals)}
    return call


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


def quantum_start(package):
    """(fresh packet, dtau) of QUANTUM_CONFIG, the packet built afresh on
    each call of the first."""
    ev, values = package.evolution, package.cli.load_config(QUANTUM_CONFIG)
    get = lambda key: float(values.get(key, 0.0))
    return (lambda: ev.MomentumPacket.gaussian_energy_axis(
                get("e_center"), get("e_width"), [get("px"), get("py"), get("pz")],
                get("mass_param"), num=int(values.get("num", 256))),
            get("dtau"))


def tau_step_call(package):
    """One tau step from the packet of QUANTUM_CONFIG after one step of its
    dtau, so that it carries what a sweep carries from step to step,
    returning the seconds of each of its three calls."""
    ev = package.evolution
    fresh, dtau = quantum_start(package)

    def step(packet):
        t0 = perf_counter()
        evolved = ev.free_evolve(packet, dtau)
        t1 = perf_counter()
        ev.mass_moments(evolved)
        t2 = perf_counter()
        ev.time_energy_uncertainty(evolved)
        return evolved, {"free_evolve": t1 - t0, "mass_moments": t2 - t1,
                         "time_energy_uncertainty": perf_counter() - t2}

    packet = step(fresh())[0]
    return lambda: step(packet)[1]


def tau_sweep_call(package):
    """A sweep of SWEEP_STEPS tau steps from a fresh packet of QUANTUM_CONFIG."""
    ev = package.evolution
    fresh, dtau = quantum_start(package)

    def sweep():
        packet = fresh()
        for _ in range(SWEEP_STEPS):
            packet = ev.free_evolve(packet, dtau)
            ev.mass_moments(packet)
            ev.time_energy_uncertainty(packet)
    return sweep


def transport_call(package, wigner):
    """The benchmark's N = 1 transport op on fixed inputs: one
    `induced_transform`, one `transform_pair` with `assemble_spinor` and
    `sector_norm`, and the wigner query `wigner`."""
    lg, dirac, sl2c = package.little_group, package.dirac, package.sl2c
    rng = np.random.default_rng(9)
    n = package.minkowski.random_unit_timelike(rng, 1.5)
    center_x, center_p = rng.normal(size=4), rng.normal(size=4)
    spin = np.array([0.6, 0.8j])
    a = sl2c.sl2c_rotation([0.0, 0.6, 0.8], 1.1) @ sl2c.sl2c_boost([0.8, 0.0, 0.6], 0.9)

    def transport():
        lg.induced_transform(lg.InducedPacketState(n, spin, center_x, center_p, 1.0), a)
        pair = dirac.transform_pair(dirac.TwoSpinorPair(spin, spin[::-1], n), a)
        dirac.sector_norm(dirac.assemble_spinor(pair))
        wigner()
    return transport


def per(unit, count):
    """(figures, fields) of an entry that does `count` units of work a call."""
    return {f"us_per_{unit}": ("", 1e6 / count), "seconds": ("", 1.0)}, {f"{unit}s": count}


def entries(package, inputs, path):
    """Yield the timed entries of `package` as (where, callable, figures,
    fields): `where` is the entry's place in the JSON, `figures` maps each
    figure's name to (part, scale), the part's seconds per call times scale
    giving the figure in its unit, and `fields` are fixed values.  Files go
    to `path`."""
    ev, itf, cli = package.evolution, package.interference, package.cli
    for size in SIZES:
        for name in KERNELS:
            fn, args = kernel(package, name, *(x[:size] for x in inputs))
            if size == 1:
                args = tuple(x[0] for x in args)
            yield (f"kernels/{name}/N={size}", functools.partial(dropped, fn, *args),
                   {"us_per_call": ("", 1e6), "us_per_sample": ("", 1e6 / size)}, {})

    samples = {}
    run_all = suite_call(package.verification, samples)
    run_all()       # fills `samples` with what run_all passes each suite
    yield ("suites_s", run_all,
           {**{f"{name}/seconds": (name, 1.0) for name in samples},
            "run_all/seconds": ("run_all", 1.0),
            "run_all/minus_suites_seconds": ("minus_suites", 1.0)},
           {**{f"{name}/samples": count for name, count in samples.items()},
            "run_all/samples": SUITE_SAMPLES})

    start, model, traj, scan = sample_tables(package)
    trajectory = [traj.tau, traj.x, traj.p, traj.k]
    scan_columns = [scan.dt_grid_fs, scan.probability, scan.envelope, scan.interference]
    yield ("evolve/classical_integrate",
           lambda: ev.classical_integrate(start, model, 0.01, EVOLVE_STEPS),
           *per("step", EVOLVE_STEPS))
    yield ("evolve/evolve_csv",
           lambda: cli._write_csv(path, "tau,t,x,y,z,E,px,py,pz,K", trajectory),
           *per("row", EVOLVE_STEPS + 1))
    yield ("evolve/scan_csv",
           lambda: cli._write_csv(path, "delta_t_fs,probability,envelope,interference_term",
                                  scan_columns),
           *per("row", SCAN_ROWS))

    # us_per_step_blocks repeats us_per_step, for readers of older files
    yield ("tau_step", tau_step_call(package),
           {"us_per_step": ("", 1e6), "us_per_step_blocks": ("", 1e6),
            **{f"{part}_us": (part, 1e6)
               for part in ("free_evolve", "mass_moments", "time_energy_uncertainty")}}, {})
    yield ("tau_sweep", tau_sweep_call(package), *per("step", SWEEP_STEPS))

    values = cli.load_config(EXAMPLE_CONFIG)
    emission = itf.EmissionConfig(*(float(values[k]) for k in (
        "e1_ev", "e2_ev", "t_emit1_fs", "t_emit2_fs", "sigma_t_fs")))
    period_scan = itf.scan_interference(emission, float(values["dt_min_fs"]),
                                        float(values["dt_max_fs"]), PERIOD_SAMPLES)
    figures, fields = per("sample", PERIOD_SAMPLES)
    yield ("scan_period/period_estimator",
           lambda: itf._dtft_period(period_scan.dt_grid_fs, period_scan.interference),
           figures, {**fields, "timed": "interference._dtft_period"})
    argv = ["interference", "--config", str(EXAMPLE_CONFIG), "--format", "csv",
            "--samples", str(PERIOD_SAMPLES), "--out", path]
    yield ("scan_period/scan_cli_csv", lambda: cli.main(argv),
           figures, {**fields, "timed": "shpqm interference --format csv"})

    bits = np.random.default_rng(8).integers(0, 2**64, (RANDOM_ROWS, 4), dtype=np.uint64)
    for name, columns in (("scan", scan_columns), ("trajectory", trajectory),
                          ("random_bits", [bits.view(np.float64)])):
        yield (f"csv_format/{name}", functools.partial(cli._write_csv, path, "header", columns),
               *per("value", np.column_stack(columns).size))

    def wigner():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(WIGNER_ARGV)

    for name, fn in (("main_wigner", wigner), ("build_parser", cli.build_parser),
                     ("parser_build", cli.build_parser.__wrapped__),
                     ("transport_op", transport_call(package, wigner))):
        yield f"cli_dispatch/{name}", fn, {"us_per_call": ("", 1e6)}, {}


def put(tree, where, value):
    """Set tree[a][b]...[z] = value for `where` = "a/b/.../z"."""
    *parents, leaf = where.split("/")
    for key in parents:
        tree = tree.setdefault(key, {})
    tree[leaf] = value


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
    data = {"environment": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "method": f"checkouts loaded side by side; {BLOCKS} alternating blocks of"
                  f" about {BLOCK_SECONDS} s; best, median and quartiles of the blocks"}}
    with tempfile.TemporaryDirectory() as tmp:
        timed = zip(*(entries(package, inputs, str(Path(tmp) / f"{label}.csv"))
                      for label, package in packages.items()))
        for row in timed:
            calls = {label: fn for label, (_, fn, _, _) in zip(packages, row)}
            times = time_blocks(calls, BLOCKS, calls_per_block(calls.values()))
            for label, (where, _, figures, fields) in zip(packages, row):
                table = data.setdefault(label, {})
                for key, (part, scale) in figures.items():
                    put(table, f"{where}/{key}", summary(times[label][part] * scale))
                for key, value in fields.items():
                    put(table, f"{where}/{key}", value)
    Path(args.out).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
