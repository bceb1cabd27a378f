"""Command-line interface: verification suites, induced-rotation queries,
interference scans, evolution demos, and physical constants.

Config files are flat ``key = value`` text with ``#`` comments.  Exit codes:
0 success, 1 verification failure, 2 configuration error.  All numeric output
uses 17 significant digits so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import (constants, evolution, interference, little_group, minkowski,
               sl2c, verification)

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    pass


def fmt(x):
    """17-significant-digit decimal representation."""
    return format(float(x), ".17g")


def load_config(path):
    """Parse a flat key = value config file with # comments."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def cfg_get(cfg, key, cast=float, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing config key {key!r}")
    try:
        value = cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    if cast is float and not np.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {cfg[key]!r}")
    return value


@contextlib.contextmanager
def _output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


CSV_BLOCK_ROWS = 4096


def _write_csv(path, header, columns):
    """Write equal-length columns under `header`, every value as fmt(x).

    Rows are %-formatted a block at a time, which bounds the Python floats
    alive at once to one block.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with _output(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _json_ready(obj):
    """obj with every float written as fmt(x), through dicts, lists, tuples
    and arrays."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    return obj


def _write_json(path, payload):
    with _output(path) as fh:
        fh.write(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n")


def cmd_constants(args):
    out = {
        "schema_version": SCHEMA_VERSION,
        "hbar_ev_fs": constants.HBAR_EV_FS,
        "h_ev_fs": constants.H_EV_FS,
        "electron_mass_ev": constants.ELECTRON_MASS_EV,
        "examples": {
            "energy_spread_for_0.75_fs_ev": constants.energy_spread_for_time_width(0.75),
            "fringe_period_for_4.2_ev_fs": constants.fringe_period_fs(4.2),
        },
    }
    _write_json(args.out, out)
    return 0


def cmd_verify(args):
    if args.samples <= 0:
        raise ConfigError("sample count must be positive")
    report = verification.run_all(seed=args.seed, samples=args.samples)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "samples": args.samples,
        "suites": {name: [r.to_dict() for r in results]
                   for name, results in report.items()},
        "all_passed": verification.all_passed(report),
    }
    _write_json(args.out, payload)
    return 0 if payload["all_passed"] else 1


def _parse_boost(text):
    try:
        axis, _, rap = text.partition(":")
        rapidity = float(rap)
    except ValueError as exc:
        raise ConfigError(f"boost spec {text!r}: expected axis:rapidity") from exc
    if axis not in ("x", "y", "z"):
        raise ConfigError(f"boost axis must be x, y, or z, got {axis!r}")
    if not np.isfinite(rapidity):
        raise ConfigError(f"boost spec {text!r}: rapidity must be finite")
    return axis, rapidity


def _parse_four_vector(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"four-vector {text!r}: expected t,x,y,z")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"four-vector {text!r}: {exc}") from exc


def cmd_wigner(args):
    ax1, w1 = _parse_boost(args.boost1)
    ax2, w2 = _parse_boost(args.boost2)
    if args.n is not None:
        n = _parse_four_vector(args.n)
        try:
            minkowski.check_unit_timelike_future(n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        n = minkowski.N0
    a = sl2c.sl2c_boost(ax1, w1) @ sl2c.sl2c_boost(ax2, w2)
    try:
        d = little_group.transport(a, n)[2]
    except ValueError as exc:   # e.g. rapidities beyond the supported range
        raise ConfigError(f"induced rotation: {exc}") from exc
    angle, axis = little_group.su2_angle_axis(d)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "boost1": {"axis": ax1, "rapidity": w1},
        "boost2": {"axis": ax2, "rapidity": w2},
        "n": n,
        "rotation": {"matrix_real": d.real, "matrix_imag": d.imag,
                     "angle": angle, "axis": axis},
    }
    _write_json(args.out, payload)
    return 0


def cmd_interference(args):
    cfg = load_config(args.config)
    samples = args.samples if args.samples is not None else cfg_get(
        cfg, "samples", cast=int, default=4001)
    try:
        emission = interference.EmissionConfig(
            e1_ev=cfg_get(cfg, "e1_ev"),
            e2_ev=cfg_get(cfg, "e2_ev"),
            t_emit1_fs=cfg_get(cfg, "t_emit1_fs"),
            t_emit2_fs=cfg_get(cfg, "t_emit2_fs"),
            sigma_t_fs=cfg_get(cfg, "sigma_t_fs"),
        )
        result = interference.scan_interference(
            emission, cfg_get(cfg, "dt_min_fs"), cfg_get(cfg, "dt_max_fs"), samples)
        if args.format == "json":   # the period is estimated here, when read
            payload = {
                "schema_version": SCHEMA_VERSION,
                "fringe_period_fs": result.fringe_period_fs,
                "predicted_period_fs": result.predicted_period_fs,
                "visibility": result.visibility,
                "flat_oscillation": result.flat_oscillation,
                "feasibility": interference.feasibility_report(emission),
            }
    except ValueError as exc:    # AliasingError too; a ConfigError keeps its message
        raise ConfigError(str(exc)) from exc
    if args.format == "csv":
        _write_csv(args.out, "delta_t_fs,probability,envelope,interference_term",
                   [result.dt_grid_fs, result.probability, result.envelope,
                    result.interference])
    else:
        _write_json(args.out, payload)
    return 0


def cmd_evolve(args):
    cfg = load_config(args.config)
    mode = cfg_get(cfg, "mode", cast=str)
    if mode == "classical":
        model = evolution.FreeModel(cfg_get(cfg, "mass_param"))
        x0 = np.array([cfg_get(cfg, k) for k in ("t0", "x0", "y0", "z0")])
        p0 = np.array([cfg_get(cfg, k) for k in ("E0", "px0", "py0", "pz0")])
        dtau = cfg_get(cfg, "dtau")
        steps = cfg_get(cfg, "steps", cast=int)
        try:
            traj = evolution.classical_integrate(
                evolution.PhasePoint(x0, p0), model, dtau, steps)
        except evolution.StepRejectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _write_csv(args.out, "tau,t,x,y,z,E,px,py,pz,K",
                   [traj.tau, traj.x, traj.p, traj.k])
        return 0
    if mode == "quantum":
        try:
            packet = evolution.MomentumPacket.gaussian_energy_axis(
                e_center=cfg_get(cfg, "e_center"),
                e_width=cfg_get(cfg, "e_width"),
                spatial_p=[cfg_get(cfg, k, default=0.0)
                           for k in ("px", "py", "pz")],
                mass_param=cfg_get(cfg, "mass_param"),
                num=cfg_get(cfg, "num", cast=int, default=256),
            )
        except ValueError as exc:    # a ConfigError keeps its message
            raise ConfigError(str(exc)) from exc
        packet = evolution.free_evolve(packet, cfg_get(cfg, "dtau"))
        # abs(a) ** 2 one amplitude at a time: the vectorised np.abs rounds
        # some values differently in the last digit
        _write_csv(args.out, "p0,prob_density,phase",
                   [packet.momenta[:, 0], [abs(a) ** 2 for a in packet.amplitudes],
                    np.angle(packet.amplitudes)])
        return 0
    raise ConfigError(f"mode must be 'classical' or 'quantum', got {mode!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shpqm",
        description="Relativistic quantum toolkit: verification suites, "
                    "induced-rotation queries, interference scans, and "
                    "evolution demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(func=func)
        return p

    p_verify = command("verify", cmd_verify, "run the identity suites")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=1000)

    p_wigner = command("wigner", cmd_wigner,
                       "induced rotation of two composed boosts")
    p_wigner.add_argument("--boost1", required=True, help="axis:rapidity")
    p_wigner.add_argument("--boost2", required=True, help="axis:rapidity")
    p_wigner.add_argument("--n", default=None,
                          help="foliation vector t,x,y,z (default rest)")

    p_itf = command("interference", cmd_interference,
                    "two-electron coincidence scan")
    p_itf.add_argument("--config", required=True, help="key=value config file")
    p_itf.add_argument("--samples", type=int, default=None,
                       help="scan samples (default: config 'samples', else 4001)")
    p_itf.add_argument("--format", choices=("csv", "json"), default="json")

    p_ev = command("evolve", cmd_evolve, "classical or quantum evolution dump")
    p_ev.add_argument("--config", required=True, help="key=value config file")
    p_ev.add_argument("--format", choices=("csv",), default="csv")

    command("constants", cmd_constants, "print physical constants")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
