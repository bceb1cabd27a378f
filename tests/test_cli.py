"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shpqm import cli, evolution, interference, verification

REFERENCE_CFG = """\
e1_ev = 35.0
e2_ev = 39.2
t_emit1_fs = 0.0
t_emit2_fs = 0.75
sigma_t_fs = 0.5
dt_min_fs = -4.0
dt_max_fs = 4.0
samples = 2001
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def test_config_parser(tmp_path):
    path = write_cfg(tmp_path, "a = 1.5  # trailing comment\n\n# full line\nb = x\n")
    cfg = cli.load_config(path)
    assert cfg == {"a": "1.5", "b": "x"}
    assert cli.cfg_get(cfg, "a") == 1.5
    with pytest.raises(cli.ConfigError):
        cli.cfg_get(cfg, "missing")
    with pytest.raises(cli.ConfigError):
        cli.cfg_get(cfg, "b")  # not a float


def test_config_parser_rejects_malformed(tmp_path):
    for bad in ("just a line\n", "a =\n", "= 3\n", "a = 1\na = 2\n"):
        path = write_cfg(tmp_path, bad)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)


def test_missing_config_file_exits_2(tmp_path):
    code = run_cli(["interference", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_constants_output(tmp_path):
    out = tmp_path / "const.json"
    assert run_cli(["constants", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == "1"
    assert float(data["hbar_ev_fs"]) == pytest.approx(0.6582119569)
    assert float(data["h_ev_fs"]) == pytest.approx(4.135667696)


def test_verify_passes_and_exit_zero(tmp_path):
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--samples", "50", "--seed", "42",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_passed"] is True
    flags = [f for suite in data["suites"].values()
             for r in suite for f in r["convention_flags"]]
    assert "gamma_dot_n_squared_plus_one" in flags
    assert "gamma5_squared_plus_one" in flags
    # informational entries never decide the exit code
    info = [r for suite in data["suites"].values() for r in suite
            if r["informational"]]
    assert info and any(not r["passed"] for r in info)
    # sampled identities name the sample of their largest deviation
    worst = {r["identity"]: r["worst_sample"] for suite in data["suites"].values()
             for r in suite}
    assert worst["rest_su2_closure"] is None and 0 <= worst["wigner_cocycle"] < 50


def test_verify_zero_samples_is_config_error():
    assert run_cli(["verify", "--samples", "0"]) == 2


def test_verify_negative_seed_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "csv"],
    ["constants", "--seed", "3"],
])
def test_flag_a_command_does_not_honour_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_wigner_collinear_angle_zero(tmp_path):
    out = tmp_path / "w.json"
    assert run_cli(["wigner", "--boost1", "z:0.8", "--boost2", "z:0.5",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(float(data["rotation"]["angle"])) < 1e-9


def test_wigner_orthogonal_matches_oracle(tmp_path):
    from shpqm import minkowski as mk, sl2c
    out = tmp_path / "w.json"
    assert run_cli(["wigner", "--boost1", "x:1.0", "--boost2", "y:1.0",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    lam = sl2c.spinor_map(sl2c.sl2c_boost("x", 1.0)
                          @ sl2c.sl2c_boost("y", 1.0))
    # 4x4 polar decomposition oracle
    vals, vecs = np.linalg.eigh(lam.T @ lam)
    b = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    r = lam @ np.linalg.inv(b)
    angle = np.arccos(np.clip((np.trace(r[1:, 1:]) - 1) / 2, -1, 1))
    assert float(data["rotation"]["angle"]) == pytest.approx(angle, abs=1e-9)


def test_wigner_bad_spec_exits_2():
    assert run_cli(["wigner", "--boost1", "q:1.0", "--boost2", "y:1.0"]) == 2
    assert run_cli(["wigner", "--boost1", "x:abc", "--boost2", "y:1.0"]) == 2


@pytest.mark.parametrize("boosts", [
    ["--boost1", "x:nan", "--boost2", "y:1"],
    ["--boost1", "x:inf", "--boost2", "y:1"],
    # the moved label Lambda N0 has a spatial part near 1e155, whose square
    # overflows, so the label is refused as not finite
    ["--boost1", "x:180", "--boost2", "y:180"],
    # the moved label or the determinant overflows; numpy's warnings must
    # not reach stderr
    ["--boost1", "x:400", "--boost2", "y:1"],
    ["--boost1", "x:800", "--boost2", "y:1"],
])
def test_wigner_domain_error_exits_2_with_one_line(boosts, capsys):
    assert run_cli(["wigner", *boosts]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_interference_json_summary(tmp_path):
    cfg = write_cfg(tmp_path, REFERENCE_CFG)
    out = tmp_path / "scan.json"
    assert run_cli(["interference", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert float(data["fringe_period_fs"]) == pytest.approx(0.9847, abs=1e-3)
    assert data["flat_oscillation"] is False
    feas = data["feasibility"]
    assert float(feas["computed_min_delta_e_ev"]) == pytest.approx(
        0.4388, abs=1e-3)
    assert float(feas["quoted_threshold_ev"]) == 1e-3
    assert float(feas["quoted_linewidth_ev"]) == 1e-6
    assert feas["threshold_discrepancy"] is True


def test_interference_csv(tmp_path):
    cfg = write_cfg(tmp_path, REFERENCE_CFG)
    out = tmp_path / "scan.csv"
    assert run_cli(["interference", "--config", cfg, "--format", "csv",
                    "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "delta_t_fs,probability,envelope,interference_term"
    assert len(lines) == 2002
    for line in lines[1:]:
        dt, p, env, osc = (float(v) for v in line.split(","))
        assert p >= -1e-12
        assert p == pytest.approx(env + osc, abs=1e-12)


def test_interference_csv_does_no_spectral_work(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, REFERENCE_CFG)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    argv = ["interference", "--config", cfg, "--format", "csv", "--out"]
    assert run_cli(argv + [str(want)]) == 0

    def refuse(*args):
        raise AssertionError("the CSV scan estimated the fringe period")

    monkeypatch.setattr(interference, "_dtft_period", refuse)
    monkeypatch.setattr(interference, "feasibility_report", refuse)
    assert run_cli(argv + [str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_interference_aliasing_guard(tmp_path):
    cfg = write_cfg(tmp_path, REFERENCE_CFG.replace("samples = 2001",
                                                "samples = 40"))
    assert run_cli(["interference", "--config", cfg]) == 2


def test_interference_equal_energy_flat_flag(tmp_path):
    cfg = write_cfg(tmp_path, REFERENCE_CFG.replace("e2_ev = 39.2",
                                                "e2_ev = 35.0"))
    out = tmp_path / "flat.json"
    assert run_cli(["interference", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["flat_oscillation"] is True
    assert "visibility" in data


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, REFERENCE_CFG)
    outs = []
    for name in ("a", "b"):
        v = tmp_path / f"verify_{name}.json"
        s = tmp_path / f"scan_{name}.csv"
        assert run_cli(["verify", "--samples", "30", "--seed", "7",
                        "--out", str(v)]) == 0
        assert run_cli(["interference", "--config", cfg, "--format", "csv",
                        "--out", str(s)]) == 0
        outs.append((v.read_bytes(), s.read_bytes()))
    assert outs[0] == outs[1]


CLASSICAL_CFG = """\
mode = classical
mass_param = 2.0
t0 = 0.0
x0 = 0.0
y0 = 0.0
z0 = 0.0
E0 = 3.0
px0 = 0.4
py0 = -0.2
pz0 = 0.7
dtau = 0.01
steps = 500
"""


QUANTUM_CFG = """\
mode = quantum
mass_param = 511000.0
e_center = 35.0
e_width = 0.5
pz = 1.0
dtau = 25.0
num = 256
"""


def test_evolve_classical_conserves_k(tmp_path):
    cfg = write_cfg(tmp_path, CLASSICAL_CFG)
    out = tmp_path / "traj.csv"
    assert run_cli(["evolve", "--config", cfg, "--format", "csv",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,t,x,y,z,E,px,py,pz,K"
    ks = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(ks) - min(ks) < 1e-8 * max(abs(ks[0]), 1.0)


def test_evolve_quantum_norm(tmp_path):
    cfg = write_cfg(tmp_path, QUANTUM_CFG)
    out = tmp_path / "packet.csv"
    assert run_cli(["evolve", "--config", cfg, "--format", "csv",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p0,prob_density,phase"
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    de = rows[1, 0] - rows[0, 0]
    assert np.sum(rows[:, 1]) * de == pytest.approx(1.0, abs=1e-8)


def test_evolve_bad_mode_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "mode = nonsense\n")
    assert run_cli(["evolve", "--config", cfg]) == 2


@pytest.mark.parametrize("cfg_text, message", [
    (CLASSICAL_CFG.replace("steps = 500", "steps = -10"), "steps must be non-negative"),
    (CLASSICAL_CFG.replace("dtau = 0.01", "dtau = -1"), "dtau must be positive"),
    (CLASSICAL_CFG.replace("dtau = 0.01", "dtau = nan"), "'dtau' must be finite"),
    (QUANTUM_CFG.replace("num = 256", "num = 1"), "at least 2 samples"),
], ids=["negative-steps", "negative-dtau", "nan-dtau", "one-sample-grid"])
def test_evolve_domain_error_exits_2_with_one_line(tmp_path, capsys, cfg_text, message):
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out.csv"
    assert run_cli(["evolve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")    # a numpy warning would be a second line
@pytest.mark.parametrize("command, base, key, value, message", [
    ("interference", REFERENCE_CFG, "sigma_t_fs", "nan", "'sigma_t_fs' must be finite"),
    ("interference", REFERENCE_CFG, "sigma_t_fs", "-1", "pulse width must be positive"),
    ("interference", REFERENCE_CFG, "dt_min_fs", "5.0", "increasing dt range"),
    ("interference", REFERENCE_CFG, "e2_ev", "inf", "'e2_ev' must be finite"),
    ("interference", REFERENCE_CFG, "t_emit1_fs", "2e154", "out of floating-point range"),
    ("interference", REFERENCE_CFG, "sigma_t_fs", "1e-160", "out of floating-point range"),
    ("interference", REFERENCE_CFG, "samples", "100000000", "must be at most 10000000"),
    ("evolve", QUANTUM_CFG, "dtau", "nan", "'dtau' must be finite"),
    ("evolve", QUANTUM_CFG, "e_width", "-0.5", "energy width must be positive"),
    ("evolve", QUANTUM_CFG, "e_width", "1e154", "out of floating-point range"),
    ("evolve", QUANTUM_CFG, "dtau", "1e308", "phase is not finite"),
    ("evolve", CLASSICAL_CFG, "mass_param", "0", "mass parameter must be positive"),
    ("evolve", CLASSICAL_CFG, "E0", "1e200", "hamiltonian must be finite"),
    ("evolve", CLASSICAL_CFG, "dtau", "1e308", "phase point must be finite"),
    ("evolve", CLASSICAL_CFG, "steps", "1000000000", "must be at most 10000000"),
], ids=["nan-sigma", "negative-sigma", "dt-range-reversed", "inf-energy",
        "overflowing-spacing", "underflowing-sigma", "huge-samples",
        "quantum-nan-dtau", "quantum-negative-width", "quantum-huge-width",
        "quantum-huge-dtau", "classical-zero-mass", "classical-overflowing-k",
        "classical-huge-dtau", "classical-huge-steps"])
def test_bad_config_value_exits_2_with_one_line(tmp_path, capsys, command, base,
                                                key, value, message):
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in base.splitlines()]
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, base, extra", [
    ("evolve", CLASSICAL_CFG, "stesp = 5"),
    ("evolve", QUANTUM_CFG, "nun = 8"),
    ("evolve", QUANTUM_CFG, "p_x = 3.0"),
    ("evolve", QUANTUM_CFG, "steps = 100"),     # a key of the classical mode
    ("evolve", CLASSICAL_CFG, "num = 64"),      # a key of the quantum mode
    ("interference", REFERENCE_CFG, "sample = 100"),
], ids=["classical-misspelt", "quantum-misspelt", "quantum-misspelt-px",
        "classical-key-in-quantum", "quantum-key-in-classical", "interference-misspelt"])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, command, base, extra):
    cfg = write_cfg(tmp_path, base + extra + "\n")
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    key = extra.split(" = ")[0]
    assert capsys.readouterr().err == f"config error: unknown config key {key!r}\n"
    assert not out.exists()


def test_refused_step_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    message = "hamiltonian drifted by 1.000e-03 in one step (scale 1.000e+00); reduce dtau"

    def drift(*args):
        raise evolution.StepRejectionError(message)

    monkeypatch.setattr(evolution, "classical_integrate", drift)
    out = tmp_path / "traj.csv"
    assert run_cli(["evolve", "--config", write_cfg(tmp_path, CLASSICAL_CFG),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_samples_flag_overrides_the_config_key_unparsed(tmp_path):
    cfg = write_cfg(tmp_path, REFERENCE_CFG.replace("samples = 2001", "samples = abc"))
    out = tmp_path / "scan.csv"
    assert run_cli(["interference", "--config", cfg, "--format", "csv",
                    "--samples", "2001", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2002


def test_verify_samples_above_the_cap_exit_2_before_any_draw(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the suites ran")

    monkeypatch.setattr(verification, "run_all", refuse)
    assert run_cli(["verify", "--samples", str(cli.MAX_ROWS + 1)]) == 2
    assert capsys.readouterr().err == (
        f"config error: --samples must be at most {cli.MAX_ROWS}, got {cli.MAX_ROWS + 1}\n")


@pytest.mark.parametrize("case", ["config-not-utf8", "out-in-missing-dir", "out-is-a-dir",
                                  "out-on-a-full-device"])
def test_unreadable_config_or_unwritable_out_exits_2_with_one_line(tmp_path, case):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(REFERENCE_CFG.encode("utf-8")
                    + (b"# caf\xe9\n" if case == "config-not-utf8" else b""))
    out = {"config-not-utf8": tmp_path / "scan.json",
           "out-in-missing-dir": tmp_path / "missing" / "scan.json",
           "out-is-a-dir": tmp_path / "dir",
           "out-on-a-full-device": Path("/dev/full")}[case]
    if case == "out-is-a-dir":
        out.mkdir()
    if case == "out-on-a-full-device" and not out.exists():
        pytest.skip("no /dev/full here")
    proc = subprocess.run(
        [sys.executable, "-m", "shpqm.cli", "interference", "--config", str(cfg),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["dir", "run.cfg"] if case == "out-is-a-dir" else ["run.cfg"])
    assert case != "out-is-a-dir" or list(out.iterdir()) == []


def test_csv_writer_matches_per_value_format(tmp_path):
    # special values straddle the first block boundary
    rows = cli.CSV_BLOCK_ROWS + 5
    rng = np.random.default_rng(3)
    table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    specials = [-0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                np.inf, -np.inf]
    edge = cli.CSV_BLOCK_ROWS - 3
    table[edge:edge + len(specials), 1] = specials
    out = tmp_path / "table.csv"
    cli._write_csv(str(out), "a,b,c", [table[:, 0], table[:, 1:]])
    want = ["a,b,c\n"] + [",".join(format(float(v), ".17g") for v in row) + "\n"
                          for row in table]
    got = out.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and bad[:1] == []


# -- the %.17g kernel of _write_csv, value by value -------------------------

def written_as_format(tmp_path, values, columns=1):
    """Whether `_write_csv` writes the values (in rows of `columns`) as
    format(x, ".17g") each; the first wrong row is in the assertion."""
    table = np.asarray(values, dtype=float).reshape(-1, columns)
    out = tmp_path / "values.csv"
    cli._write_csv(str(out), "x", [table])
    got = out.read_text(encoding="utf-8").splitlines()
    want = ["x"] + [",".join(format(float(v), ".17g") for v in row) for row in table]
    bad = next(((g, w) for g, w in zip(got, want) if g != w), None)
    assert bad is None and len(got) == len(want), bad
    return True


@pytest.fixture
def fast_blocks(monkeypatch):
    """Counts of the blocks `_format17` writes and of those it leaves to the
    % formatting, as {"fast": n, "fallback": m}."""
    counts = {"fast": 0, "fallback": 0}
    kernel = cli._format17

    def counted(values, columns):
        text = kernel(values, columns)
        counts["fast" if text is not None else "fallback"] += 1
        return text

    monkeypatch.setattr(cli, "_format17", counted)
    return counts


def random_doubles(rng, count, exponents=(0, 2047)):
    """Random float64 bit patterns whose exponent field lies in `exponents`."""
    bits = rng.integers(0, 2**63, count, dtype=np.uint64) << np.uint64(1)
    bits |= rng.integers(0, 2, count, dtype=np.uint64)
    low, high = exponents
    exp = rng.integers(low, high + 1, count, dtype=np.uint64)
    bits = (bits & ~np.uint64(0x7FF << 52)) | (exp << np.uint64(52))
    return bits.view(np.float64)


def test_kernel_on_random_bit_patterns(tmp_path, monkeypatch, fast_blocks):
    # small blocks, so that one undecided value costs the fast path little
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 64)
    rng = np.random.default_rng(8)
    anywhere = random_doubles(rng, 200_000)    # nan, inf, subnormals too
    assert written_as_format(tmp_path, anywhere, columns=4)
    # biased exponents 94..1952 lie inside the fast path's range
    assert 2.0**(94 - 1023) >= cli.G17_MIN and 2.0**(1953 - 1023) <= cli.G17_MAX
    fast_blocks.update(fast=0, fallback=0)
    in_range = random_doubles(rng, 1_000_000, (94, 1952))
    assert written_as_format(tmp_path, in_range, columns=4)
    assert fast_blocks["fast"] >= 0.99 * (fast_blocks["fast"] + fast_blocks["fallback"])


def test_kernel_on_exact_ties(tmp_path, fast_blocks):
    # odd multiples of 2^-17 in [1, 2) end in a 5 at the 18th digit; near
    # 1e14 every odd multiple of 2^-3 does, the odd multiples of 2^-6 do not
    ones = 1.0 + (2 * np.arange(2**16) + 1) * 2.0**-17
    near_1e14 = 1e14 + np.arange(-2**13, 2**13) * 2.0**-6
    assert written_as_format(tmp_path, np.concatenate([ones, -near_1e14]), columns=2)
    # 10^16 and 10^2 are exact doubles: these ties are decided, not doubted
    assert fast_blocks["fallback"] == 0
    # the exact ties at an inexact 10^k: j 2^-(k+1) with j 5^k of 17 digits
    inexact = [j * 2.0**-(k + 1) for k in (23, 24) for j in range(1, 17, 2)
               if 2 * 10**16 <= j * 5**k < 2 * 10**17]
    assert len(inexact) == 9
    assert written_as_format(tmp_path, inexact + [-x for x in inexact])


def test_kernel_at_powers_of_ten(tmp_path, fast_blocks):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    near = np.concatenate([near, -near])
    assert written_as_format(tmp_path, near)
    # some doubles just below 10^k print as 1e+k: the 17-digit rounding
    # carries to 10^17
    fast = near[(np.abs(near) >= cli.G17_MIN) & (np.abs(near) <= cli.G17_MAX)]
    carries = [x for x in fast.tolist() if format(x, ".17g").lstrip("-").startswith("1e")
               and _below_its_power_of_ten(abs(x))]
    assert len(carries) >= 10
    fast_blocks.update(fast=0, fallback=0)
    assert written_as_format(tmp_path, fast)
    assert fast_blocks["fallback"] == 0


def _below_its_power_of_ten(x):
    """Whether the double x lies below 10^k, k its printed exponent."""
    k = int(format(x, ".17g").split("e")[1])
    num, den = x.as_integer_ratio()
    return num * 10**max(-k, 0) < den * 10**max(k, 0)


def test_kernel_at_notation_switches(tmp_path, fast_blocks):
    # fixed point for exponents -4..16, scientific outside: 50 doubles on
    # either side of each switch
    values = []
    for switch in (1e-5, 1e-4, 1e16, 1e17):
        for toward in (0.0, np.inf):
            x = switch
            for _ in range(50):
                values.append(x)
                x = np.nextafter(x, toward)
    assert written_as_format(tmp_path, values, columns=4)
    assert fast_blocks["fallback"] == 0


def test_kernel_on_special_values(tmp_path, fast_blocks):
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, np.nan,
                np.inf, -np.inf, cli.G17_MIN, np.nextafter(cli.G17_MIN, 0),
                cli.G17_MAX, np.nextafter(cli.G17_MAX, np.inf)]
    assert written_as_format(tmp_path, specials, columns=2)
    assert fast_blocks["fallback"] == 1
    # zeros are the fast path's own
    assert written_as_format(tmp_path, [0.0, -0.0, 1.0, -0.0], columns=2)
    assert fast_blocks["fallback"] == 1


def test_kernel_blocks_fall_back_one_at_a_time(tmp_path, fast_blocks):
    # an undecided value at either edge of the middle block sends that block
    # alone to the % formatting
    rows = cli.CSV_BLOCK_ROWS
    table = np.random.default_rng(5).normal(size=(3 * rows, 3))
    table[rows, 0], table[2 * rows - 1, 2] = np.nan, 1e300
    assert written_as_format(tmp_path, table, columns=3)
    assert fast_blocks == {"fast": 2, "fallback": 1}


def test_kernel_against_hypothesis_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    decided = []

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 4))
    def check(values, columns):
        values = np.array(values[:len(values) // columns * columns] or [0.0] * columns)
        text = cli._format17(values, columns)
        want = "".join(format(float(v), ".17g") + ("\n" if i % columns == columns - 1
                                                    else ",")
                       for i, v in enumerate(values))
        if text is not None:
            assert text.decode("ascii") == want
            decided.append(values)

    check()
    assert len(decided) >= 100


def test_example_scan_is_written_by_the_fast_path(tmp_path, fast_blocks):
    out = tmp_path / "scan.csv"
    cfg = Path(__file__).resolve().parents[1] / "configs" / "interference_example.cfg"
    assert run_cli(["interference", "--config", str(cfg), "--format", "csv",
                    "--samples", "400001", "--out", str(out)]) == 0
    total = fast_blocks["fast"] + fast_blocks["fallback"]
    assert total == -(-400001 // cli.CSV_BLOCK_ROWS)
    assert fast_blocks["fast"] >= 0.99 * total


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
WIGNER = ["wigner", "--boost1", "x:1.0", "--boost2", "y:2.0"]
# commands of every kind, with the exit each gives: a return code, or the
# code of the SystemExit argparse raises
REPEATED = [
    (["constants"], 0),
    (WIGNER, 0),
    (["verify", "--samples", "20"], 0),
    (["wigner", "--boost1", "x:1.0"], ("SystemExit", 2)),
    (["interference", "--config", str(CONFIGS / "interference_example.cfg"),
      "--format", "csv"], 0),
    (["--help"], ("SystemExit", 0)),
    (["interference", "--config", str(CONFIGS / "interference_example.cfg")], 0),
    (["evolve", "--config", str(CONFIGS / "missing.cfg")], 2),
    (["evolve", "--config", str(CONFIGS / "evolve_classical.cfg")], 0),
    (["wigner", "--help"], ("SystemExit", 0)),
    (["evolve", "--config", str(CONFIGS / "evolve_quantum.cfg")], 0),
    (["verify", "--samples", "x"], ("SystemExit", 2)),
    (["constants"], 0),
    (WIGNER, 0),
]


def _outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    return (code, *capsys.readouterr())


def test_repeated_calls_in_one_process_match_a_fresh_parser(capsys):
    cli.build_parser.cache_clear()
    reused = [_outcome(argv, capsys) for argv, _ in REPEATED]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv, _ in REPEATED:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert [outcome[0] for outcome in reused] == [code for _, code in REPEATED]
    assert reused == fresh
    assert reused[0] == reused[-2] and reused[1] == reused[-1]
    assert all(outcome[1] for outcome in reused if outcome[0] in (0, ("SystemExit", 0)))
    assert all(outcome[2].count("\n") == 1 for outcome in reused if outcome[0] == 2)


def test_commands_are_looked_up_when_they_run(tmp_path, monkeypatch):
    argv = [*WIGNER, "--out", str(tmp_path / "w.json")]
    assert run_cli(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_wigner", lambda args: seen.append(args.boost1) or 7)
    assert run_cli(argv) == 7
    assert seen == ["x:1.0"]


def test_closed_stdout_exits_2_with_one_line():
    # 40001 rows are megabytes, far more than a pipe holds, so the writer
    # is still writing when the reader goes
    with subprocess.Popen(
            [sys.executable, "-m", "shpqm.cli", "interference", "--config",
             str(CONFIGS / "interference_example.cfg"), "--format", "csv",
             "--samples", "40001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("delta_t_fs,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["interference", "--config", str(CONFIGS / "interference_example.cfg"), "--format", "csv"],
], ids=["constants", "interference-csv"])
def test_full_stdout_exits_2_with_one_line(argv):
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full here")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "shpqm.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: No space left on device\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shpqm.cli", "constants"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == "1"
