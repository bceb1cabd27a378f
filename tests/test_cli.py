"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from shpqm import cli, interference

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
    # beyond the supported rapidity range the SU(2) check of the induced
    # rotation raises (rapidity 7 still gives the Thomas-Wigner angle)
    ["--boost1", "x:8", "--boost2", "y:8"],
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
    ("evolve", QUANTUM_CFG, "dtau", "nan", "'dtau' must be finite"),
    ("evolve", QUANTUM_CFG, "e_width", "-0.5", "energy width must be positive"),
    ("evolve", QUANTUM_CFG, "e_width", "1e154", "out of floating-point range"),
    ("evolve", QUANTUM_CFG, "dtau", "1e308", "phase is not finite"),
    ("evolve", CLASSICAL_CFG, "mass_param", "0", "mass parameter must be positive"),
    ("evolve", CLASSICAL_CFG, "E0", "1e200", "hamiltonian must be finite"),
    ("evolve", CLASSICAL_CFG, "dtau", "1e308", "phase point must be finite"),
    ("evolve", CLASSICAL_CFG, "steps", "1000000000", "must be at most 10000000"),
], ids=["nan-sigma", "negative-sigma", "dt-range-reversed", "inf-energy",
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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shpqm.cli", "constants"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == "1"
