"""Command-line interface: verification suites, induced-rotation queries,
interference scans, evolution demos, and physical constants.

Config files are flat ``key = value`` text with ``#`` comments.  Exit codes:
0 success, 1 verification failure, 2 bad input (a configuration error or a
refused integration step) or output that cannot be written.  All numeric
output uses 17 significant digits so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
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
    except (OSError, UnicodeDecodeError) as exc:
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
    """The value of `key`, cast; a key read is removed from cfg."""
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing config key {key!r}")
    text = cfg.pop(key)
    try:
        value = cast(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    if cast is float and not np.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {text!r}")
    return value


def _refuse_unread(cfg):
    """Raise on the first key of cfg that no cfg_get has read."""
    for key in cfg:
        raise ConfigError(f"unknown config key {key!r}")


@contextlib.contextmanager
def _output(path):
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()      # a reader that closed stdout early raises here
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                yield fh
        except OSError as exc:  # a missing directory, a directory, a full disk
            raise ConfigError(f"cannot write {path}: {exc}") from exc


CSV_BLOCK_ROWS = 1024   # per block of a table up to 4 columns wide; fewer if wider
MAX_ROWS = 10_000_000   # CSV rows (steps, energy or scan samples), identity samples


def _row_count(cfg, key, default=None, flag=None):
    """The int command-line value `flag` if given, else the int config value
    `key`; refused above MAX_ROWS before any array of that length is
    allocated.  A flag overrides the key, which is then read but not parsed."""
    value = cfg_get(cfg, key, cast=int, default=default) if flag is None else flag
    cfg.pop(key, None)
    if value > MAX_ROWS:
        source = f"config key {key!r}" if flag is None else f"--{key}"
        raise ConfigError(f"{source} must be at most {MAX_ROWS}, got {value}")
    return value


# -- "%.17g" of a block of float64 values, in numpy ----------------------
#
# The 17-digit significand q of x comes from y = |x| 10^(16-E), E the decimal
# exponent, computed as a double-double: Dekker's exact product of |x| and
# the double nearest 10^k, plus |x| times the rest of 10^k.  y >= 1e16 > 2^53,
# so its high part is an integer and q = hi + rint(lo), which is right unless
# lo's fraction lies within G17_TIE of 1/2 (lo is good to about 1e-14).  This
# is the fast path of Grisu (Loitsch, PLDI 2010) for fixed 17-digit output
# (Adams, "Ryu revisited", OOPSLA 2019); a block holding a value it cannot
# decide is left to the % formatting it replaces.
#
# Each value is laid out in a slot template of six 8-byte words,
#     sign 0.000 d0 . | d1 . d2 . d3 . d4 . | ... | d13 . .. d16 . | e+ddd sep
# and the slots %.17g does not print are zeroed and then dropped by one
# bytes.translate (np.compress would take 8 bytes of index per byte kept).
# Which slots are kept depends only on the notation class of the exponent X
# (fixed point for each X in -4..16, scientific, scientific with |X| >= 100)
# and on the index of the last nonzero digit, so the keep mask is a lookup
# in a table.

G17_MIN, G17_MAX = 1e-280, 1e280   # |x| range of the fast path; 0 is in it too
G17_TIE = 1e-6
_POW10_MIN, _POW10_MAX = -270, 300  # 10^k for k = 16 - E, E in that range +- 1
_VELTKAMP = 134217729.0             # 2^27 + 1
_SLOT_WIDTH = 48
_EXP_SLOT = 40                      # slot of "e"; d_i sits in slot 6 + 2 i


def _words(texts):
    """Each 8-character ASCII text as one uint64 of the same bytes."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint64)


class _G17Tables:
    """Lookup tables of the %.17g kernel.  They cost milliseconds to build,
    which a run that writes no CSV does not pay."""

    def __init__(self):
        # 10^k = hi + lo: hi the double nearest 10^k (int / int true division
        # rounds correctly), lo the rest, rounded
        his, los = [], []
        for k in range(_POW10_MIN, _POW10_MAX + 1):
            num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
            hi = num / den
            a, b = hi.as_integer_ratio()
            his.append(hi)
            los.append((num * b - a * den) / (den * b))
        self.hi, self.lo = np.array(his), np.array(los)
        self.hi_high, self.hi_low = _split(self.hi)

        self.lead = _words(f"-0.000{d}." for d in range(10))
        # "d.d.d.d." of each 4-digit chunk, built in numpy: a list of 10,000
        # strings would double the memory peak of a CSV scan
        digits = (np.arange(10_000, dtype=np.int16)[:, None]
                  // np.array([1000, 100, 10, 1], dtype=np.int16) % 10)
        text = np.full((10_000, 8), ord("."), dtype=np.uint8)
        text[:, ::2] = digits + ord("0")
        self.chunk = text.view(np.uint64).ravel()
        # index in its chunk of the last nonzero digit, < 0 for chunk 0
        nonzero = digits[:, ::-1] != 0
        self.chunk_last = np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero, axis=1), -99)
        exps = range(-400, 400)
        self.exp = _words(f"e{x:+04d},\0\0" for x in exps)
        self.cls = np.array([x + 4 if -4 <= x <= 16 else 21 if abs(x) < 100 else 22
                             for x in exps])

        keep = np.zeros((23, 17, _SLOT_WIDTH), dtype=np.uint8)
        for cls in range(23):
            x = cls - 4
            for last in range(17):
                row = keep[cls, last]
                if cls > 20:                    # d0[.d1..dlast]e+dd[d]
                    row[6:7 + 2 * last:2] = True
                    row[7] = last > 0
                    row[_EXP_SLOT:_EXP_SLOT + 2] = True
                    row[_EXP_SLOT + 2 + (cls == 21):_EXP_SLOT + 5] = True
                elif x >= 0:                    # d0..dX[.dX+1..dlast]
                    row[6:7 + 2 * max(x, last):2] = True
                    row[7 + 2 * x] = last > x
                else:                           # 0.000d0..dlast
                    row[1:2 - x] = True
                    row[6:7 + 2 * last:2] = True
                row[0] = row[_EXP_SLOT + 5] = True  # the sign (or 0), the separator
        self.keep = keep.reshape(23 * 17, _SLOT_WIDTH)


@functools.cache
def _g17_tables():
    return _G17Tables()


def _split(a):
    """Veltkamp's split of a into high and low halves of 26 bits each."""
    t = _VELTKAMP * a
    high = t - (t - a)
    return high, a - high


def _round17(tables, a, e):
    """For a = |x| and exponents e: q = a 10^(16-e) rounded to an integer
    (int64), y - 1e16 for the unrounded y, and whether q is in doubt."""
    k = 16 - e - _POW10_MIN
    y = a * tables.hi[k]
    a_high, a_low = _split(a)
    p_high, p_low = tables.hi_high[k], tables.hi_low[k]
    # ((a_high p_high - y) + a_high p_low + a_low p_high) + a_low p_low + a lo,
    # summed in place
    lo = a_high * p_high
    lo -= y
    lo += a_high * p_low
    lo += a_low * p_high
    lo += a_low * p_low
    del a_high, a_low, p_high, p_low
    rest = tables.lo[k]
    lo += a * rest
    r = np.rint(lo)     # y is even, so this rounds y + lo half to even
    # lo is exact where 10^k is: a tie is then a tie, not a doubt
    doubt = (np.abs(lo - r) >= 0.5 - G17_TIE) & (rest != 0)
    q = y.astype(np.int64)
    q += r.astype(np.int64)
    y -= 1e16
    y += lo
    return q, y, doubt


def _significands(values):
    """(q, e): the 17-digit significand and decimal exponent of each value,
    (0, 0) for a zero; None if the fast path cannot decide a value: nan,
    inf, 0 < |x| < G17_MIN, |x| > G17_MAX or a rounding in doubt."""
    a = np.abs(values)
    zero = a == 0
    if not np.all(zero | ((a >= G17_MIN) & (a <= G17_MAX))):    # nan fails too
        return None
    tables = _g17_tables()
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    q, above, doubt = _round17(tables, a, e)
    off = (above < 0) | (q > 10**17)    # log10 was one too high or too low
    if off.any():
        e[off] += np.where(above[off] < 0, -1, 1)
        q[off], above[off], doubt[off] = _round17(tables, a[off], e[off])
        if np.any((above < 0) | (q > 10**17)):
            return None
    if doubt.any():
        return None
    top = q == 10**17
    q[top], e[top] = 10**16, e[top] + 1
    q[zero], e[zero] = 0, 0
    return q, e


def _slots(q, e, negative, columns):
    """The slot template of each value, filled in from its significand q,
    exponent e and sign, as (n, _SLOT_WIDTH) bytes, and the row of its keep
    mask in `_G17Tables.keep`."""
    tables = _g17_tables()
    # d0 and four chunks of 4 digits: d1..d4 | d5..d8 | d9..d12 | d13..d16
    high, low = np.divmod(q, 100_000_000)
    d0, mid = np.divmod(high.astype(np.uint32), 100_000_000)
    chunks = np.empty((4, len(q)), dtype=np.uint32)
    chunks[0], chunks[1] = np.divmod(mid, 10_000)
    chunks[2], chunks[3] = np.divmod(low.astype(np.uint32), 10_000)
    del high, low, mid
    last = 13 + tables.chunk_last[chunks[3]]    # index of the last nonzero digit
    short = np.flatnonzero(last < 0)
    if short.size:
        last[short] = np.max(tables.chunk_last[chunks[:, short]]
                             + np.array([[1], [5], [9], [13]]), axis=0).clip(0)

    slots = np.empty((len(q), _SLOT_WIDTH // 8), dtype=np.uint64)
    slots[:, 0] = tables.lead[d0]
    for j in range(4):
        slots[:, 1 + j] = tables.chunk[chunks[j]]
    slots[:, 5] = tables.exp[e + 400]
    slots = slots.view(np.uint8)
    slots[:, 0] *= negative
    slots.reshape(-1, columns, _SLOT_WIDTH)[:, -1, _EXP_SLOT + 5] = ord("\n")
    return slots, tables.cls[e + 400] * 17 + last


def _format17(values, columns):
    """The ASCII bytes of the values of a 1-d float64 array, each written as
    "%.17g" and followed by "," or, after every `columns` values, by "\\n";
    None if `_significands` cannot decide a value."""
    digits = _significands(values)
    if digits is None:
        return None
    slots, pattern = _slots(*digits, np.signbit(values), columns)
    del digits      # each step's temporaries are gone before the next allocates
    slots *= _g17_tables().keep.take(pattern, axis=0)
    text = slots.tobytes()
    del slots
    return text.translate(None, b"\0")     # drops the slots zeroed above


def _write_csv(path, header, columns):
    """Write equal-length columns under `header`, every value as fmt(x).

    A block of rows at a time goes through `_format17`; a block it cannot
    decide is %-formatted.  A block holds at most 4 CSV_BLOCK_ROWS values,
    which bounds the memory the kernel (about 120 bytes a value) or the
    Python floats take at once.
    """
    table = np.column_stack(columns)
    width = table.shape[1]
    rows = CSV_BLOCK_ROWS * 4 // max(4, width)
    row = ",".join(["%.17g"] * width) + "\n"
    with _output(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), rows):
            block = table[start:start + rows]
            text = _format17(block.ravel(), width)
            fh.write(row * len(block) % tuple(block.ravel().tolist()) if text is None
                     else text.decode("ascii"))


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
    samples = _row_count({}, "samples", flag=args.samples)
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    report = verification.run_all(seed=args.seed, samples=samples)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "samples": samples,
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
    n = minkowski.N0 if args.n is None else _parse_four_vector(args.n)   # transport checks it
    # non-finite values are refused; numpy's warnings would add lines
    with np.errstate(over="ignore", invalid="ignore"):
        a = sl2c.sl2c_boost(ax1, w1) @ sl2c.sl2c_boost(ax2, w2)
        d = little_group.transport(a, n)[2]
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
    samples = _row_count(cfg, "samples", default=4001, flag=args.samples)
    emission = interference.EmissionConfig(
        e1_ev=cfg_get(cfg, "e1_ev"),
        e2_ev=cfg_get(cfg, "e2_ev"),
        t_emit1_fs=cfg_get(cfg, "t_emit1_fs"),
        t_emit2_fs=cfg_get(cfg, "t_emit2_fs"),
        sigma_t_fs=cfg_get(cfg, "sigma_t_fs"),
    )
    dt_range = cfg_get(cfg, "dt_min_fs"), cfg_get(cfg, "dt_max_fs")
    _refuse_unread(cfg)
    result = interference.scan_interference(emission, *dt_range, samples)
    if args.format == "csv":
        _write_csv(args.out, "delta_t_fs,probability,envelope,interference_term",
                   [result.dt_grid_fs, result.probability, result.envelope,
                    result.interference])
    else:   # the period is estimated here, when read, before --out is opened
        _write_json(args.out, {
            "schema_version": SCHEMA_VERSION,
            "fringe_period_fs": result.fringe_period_fs,
            "predicted_period_fs": result.predicted_period_fs,
            "visibility": result.visibility,
            "flat_oscillation": result.flat_oscillation,
            "feasibility": interference.feasibility_report(emission),
        })
    return 0


def cmd_evolve(args):
    cfg = load_config(args.config)
    mode = cfg_get(cfg, "mode", cast=str)
    # evolution refuses every non-finite result itself; numpy's overflow
    # warnings on the way there would be more lines on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "classical":
            model = evolution.FreeModel(cfg_get(cfg, "mass_param"))
            x0 = np.array([cfg_get(cfg, k) for k in ("t0", "x0", "y0", "z0")])
            p0 = np.array([cfg_get(cfg, k) for k in ("E0", "px0", "py0", "pz0")])
            dtau = cfg_get(cfg, "dtau")
            steps = _row_count(cfg, "steps")
            _refuse_unread(cfg)
            traj = evolution.classical_integrate(
                evolution.PhasePoint(x0, p0), model, dtau, steps)
            header = "tau,t,x,y,z,E,px,py,pz,K"
            columns = [traj.tau, traj.x, traj.p, traj.k]
        elif mode == "quantum":
            shape = dict(e_center=cfg_get(cfg, "e_center"),
                         e_width=cfg_get(cfg, "e_width"),
                         spatial_p=[cfg_get(cfg, k, default=0.0)
                                    for k in ("px", "py", "pz")],
                         mass_param=cfg_get(cfg, "mass_param"),
                         num=_row_count(cfg, "num", default=256))
            dtau = cfg_get(cfg, "dtau")
            _refuse_unread(cfg)
            packet = evolution.free_evolve(
                evolution.MomentumPacket.gaussian_energy_axis(**shape), dtau)
            header = "p0,prob_density,phase"
            # abs(a) ** 2 one amplitude at a time: the vectorised np.abs
            # rounds some values differently in the last digit
            density = np.fromiter((abs(a) ** 2 for a in packet.amplitudes), float,
                                  count=len(packet.amplitudes))
            columns = [packet.momenta[:, 0], density, np.angle(packet.amplitudes)]
        else:
            raise ConfigError(f"mode must be 'classical' or 'quantum', got {mode!r}")
    _write_csv(args.out, header, columns)
    return 0


@functools.cache
def build_parser():
    """The `shpqm` argument parser, built on first use and then reused.

    It holds each subcommand by name only; `main` looks up `cmd_<name>` when
    it runs one, so a replaced `cmd_*` function is the one that runs.  Every
    caller gets the same parser and must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="shpqm",
        description="Relativistic quantum toolkit: verification suites, "
                    "induced-rotation queries, interference scans, and "
                    "evolution demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p_verify = command("verify", "run the identity suites")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=1000)

    p_wigner = command("wigner", "induced rotation of two composed boosts")
    p_wigner.add_argument("--boost1", required=True, help="axis:rapidity")
    p_wigner.add_argument("--boost2", required=True, help="axis:rapidity")
    p_wigner.add_argument("--n", default=None,
                          help="foliation vector t,x,y,z (default rest)")

    p_itf = command("interference", "two-electron coincidence scan")
    p_itf.add_argument("--config", required=True, help="key=value config file")
    p_itf.add_argument("--samples", type=int, default=None,
                       help="scan samples (default: config 'samples', else 4001)")
    p_itf.add_argument("--format", choices=("csv", "json"), default="json")

    p_ev = command("evolve", "classical or quantum evolution dump")
    p_ev.add_argument("--config", required=True, help="key=value config file")
    p_ev.add_argument("--format", choices=("csv",), default="csv")

    command("constants", "print physical constants")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:   # ConfigError, AliasingError, every domain check
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # stdout was closed early or is full (a failed --out is a
        # ConfigError); what is still buffered goes to devnull, so the flush
        # at exit adds no second message
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
