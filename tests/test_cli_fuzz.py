"""Property-based fuzz tests of `shpqm evolve` and `shpqm interference`
config values.

Every config value, however bad, must end in exit 0 with nothing on stderr,
or in exit 2 with one line on stderr; exit 1 is reserved for the integrator's
drift rejection.  A config that also holds a key the command does not read
must end in exit 2.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest

from shpqm import cli, interference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every example starts from tame values and makes up to three keys wild
TAME = {"float": st.floats(0.01, 10.0).map(repr),
        "int": st.integers(0, 300).map(str)}
WILD_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     1.7976931348623157e308, -1e308, 1e200, -1e200, 1e154, 1e-160,
                     5e-324, -1.0, -1e-300]),
).map(repr)
# huge ints lie above the size cap: a valid size this large would only be slow
WILD_INTS = st.one_of(st.integers(-300, 1).map(str),
                      st.sampled_from([10**7 + 1, 10**9, 10**18, 2**63, 10**30,
                                       -10**18]).map(str))
WILD = {"float": WILD_FLOATS,
        "int": st.one_of(WILD_INTS, WILD_FLOATS, st.sampled_from(["abc", "1e999", "0x10"]))}

MODES = {
    "classical": {"mass_param": "float", "t0": "float", "x0": "float", "y0": "float",
                  "z0": "float", "E0": "float", "px0": "float", "py0": "float",
                  "pz0": "float", "dtau": "float", "steps": "int"},
    "quantum": {"mass_param": "float", "e_center": "float", "e_width": "float",
                "px": "float", "py": "float", "pz": "float", "dtau": "float",
                "num": "int"},
}

# interference: tame values give a scan with >= 16 samples per fringe period;
# samples may also come by flag
ITF_TAME = {"e1_ev": st.floats(20.0, 30.0), "e2_ev": st.floats(20.0, 30.0),
            "t_emit1_fs": st.floats(-2.0, 2.0), "t_emit2_fs": st.floats(-2.0, 2.0),
            "sigma_t_fs": st.floats(0.1, 2.0), "dt_min_fs": st.floats(-6.0, -0.5),
            "dt_max_fs": st.floats(0.5, 6.0)}
ITF_KINDS = {**dict.fromkeys(ITF_TAME, "float"), "samples": "int"}

# misspelt keys; the keys of the other command or mode are unknown too
MISSPELT = ["stesp", "nun", "p_x", "dtua", "sampels", "Mode"]
ALL_KEYS = {*MODES["classical"], *MODES["quantum"], *ITF_KINDS}


def with_unknown_key(draw, values, known):
    """values, sometimes with one more key that is not in `known`, and that
    key or None."""
    key = draw(st.one_of(st.none(), st.none(), st.none(),
                         st.sampled_from(sorted({*MISSPELT, *ALL_KEYS} - known))))
    if key is not None:
        values[key] = draw(TAME["float"])
    return values, key


@st.composite
def configs(draw, mode):
    kinds = MODES[mode]
    values = {key: draw(TAME[kind]) for key, kind in kinds.items()}
    for key in draw(st.lists(st.sampled_from(sorted(kinds)), max_size=3, unique=True)):
        values[key] = draw(WILD[kinds[key]])
    return with_unknown_key(draw, values, {"mode", *kinds})


def run_cli(path, values, argv):
    """cli.main(argv + --config path) on a config of `values`, with its exit
    code and its stderr, warnings counted as stderr lines."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([*argv, "--config", str(path)])
    # a warning would have been one more stderr line
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n"
                                          for w in caught)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_evolve_config_values_exit_0_or_2_with_one_line(mode, tmp_path_factory):
    path = tmp_path_factory.mktemp(f"fuzz-{mode}") / "run.cfg"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(configs(mode))
    def check(config):
        values, unknown = config
        code, err = run_cli(path, {"mode": mode, **values},
                            ["evolve", "--out", str(path.with_suffix(".csv"))])
        lines = err.splitlines()
        assert unknown is None or code == 2, (unknown, code, err)
        if code == 0:
            assert err == ""
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: "), err
        else:
            assert code == 1 and len(lines) == 1, (code, err)
            assert lines[0].startswith("error: hamiltonian drifted"), err

    check()


@st.composite
def interference_runs(draw):
    values = {key: repr(draw(tame)) for key, tame in ITF_TAME.items()}
    values["samples"] = str(draw(st.integers(500, 3000)))
    for key in draw(st.lists(st.sampled_from(sorted(ITF_KINDS)), max_size=3, unique=True)):
        values[key] = draw(WILD[ITF_KINDS[key]])
    flag = []
    if draw(st.booleans()):     # --samples overrides the config key
        flag = ["--samples", draw(st.one_of(st.integers(500, 3000).map(str), WILD_INTS))]
    return (*with_unknown_key(draw, values, set(ITF_KINDS)), flag)


def scan_csv(values, flag):
    """The CSV that `interference --format csv` must write for `values`:
    the scan of the parsed values, every number as format(x, ".17g")."""
    get = {key: float(values[key]) for key in ITF_TAME}
    samples = int(flag[1]) if flag else int(values["samples"])
    scan = interference.scan_interference(
        interference.EmissionConfig(get["e1_ev"], get["e2_ev"], get["t_emit1_fs"],
                                    get["t_emit2_fs"], get["sigma_t_fs"]),
        get["dt_min_fs"], get["dt_max_fs"], samples)
    table = np.column_stack([scan.dt_grid_fs, scan.probability, scan.envelope,
                             scan.interference])
    return "delta_t_fs,probability,envelope,interference_term\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_interference_config_values_exit_0_or_2_with_one_line(fmt, tmp_path_factory):
    path = tmp_path_factory.mktemp(f"fuzz-interference-{fmt}") / "run.cfg"
    out = path.with_suffix(f".{fmt}")
    scans = []

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(interference_runs())
    def check(run):
        values, unknown, flag = run
        out.unlink(missing_ok=True)
        code, err = run_cli(path, values, ["interference", "--format", fmt,
                                           "--out", str(out), *flag])
        lines = err.splitlines()
        assert unknown is None or code == 2, (unknown, code, err)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: "), err
            assert not out.exists()
            return
        assert code == 0 and err == "", (code, err)
        if fmt == "csv":
            assert out.read_bytes() == scan_csv(values, flag).encode("ascii")
        scans.append(values)

    check()
    assert len(scans) >= 40      # a fifth of the draws reach a scan
