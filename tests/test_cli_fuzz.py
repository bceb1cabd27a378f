"""Property-based fuzz test of `shpqm evolve` config values.

Every config value, however bad, must end in exit 0 with nothing on stderr,
or in exit 2 with one line on stderr; exit 1 is reserved for the integrator's
drift rejection.
"""

import contextlib
import io
import warnings

import pytest

from shpqm import cli

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


@st.composite
def configs(draw, mode):
    kinds = MODES[mode]
    values = {key: draw(TAME[kind]) for key, kind in kinds.items()}
    for key in draw(st.lists(st.sampled_from(sorted(kinds)), max_size=3, unique=True)):
        values[key] = draw(WILD[kinds[key]])
    return values


def run_evolve(path, values):
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["evolve", "--config", str(path),
                         "--out", str(path.with_suffix(".csv"))])
    # a warning would have been one more stderr line
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n"
                                          for w in caught)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_evolve_config_values_exit_0_or_2_with_one_line(mode, tmp_path_factory):
    path = tmp_path_factory.mktemp(f"fuzz-{mode}") / "run.cfg"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(configs(mode))
    def check(values):
        code, err = run_evolve(path, {"mode": mode, **values})
        lines = err.splitlines()
        if code == 0:
            assert err == ""
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: "), err
        else:
            assert code == 1 and len(lines) == 1, (code, err)
            assert lines[0].startswith("error: hamiltonian drifted"), err

    check()
