"""tools/kernel_timings.py on fake callables and fake suites: its blocks
alternate between checkouts, its summaries are ordered, and it clocks every
verification suite inside run_all's own call, restoring the suites after.
On the package's own kernels: each kernel entry is timed as one part."""

import importlib.util
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

import shpqm.cli  # imports every module of the package, as kernel_timings.load does
from shpqm import verification

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_timings.py"
_SPEC = importlib.util.spec_from_file_location("kernel_timings", TOOL)
kt = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kt)


def test_blocks_alternate_between_labels():
    order = []
    calls = {label: (lambda label=label: order.append(label)) for label in ("parent", "change")}
    times = kt.time_blocks(calls, blocks=5, number=2)
    assert order == ["parent", "parent", "change", "change"] * 5
    for parts in times.values():
        assert len(parts[""]) == 5
        s = kt.summary(parts[""])
        assert s["best"] <= s["q1"] <= s["median"] <= s["q3"]


def test_parts_clocked_inside_a_call_are_per_call():
    times = kt.time_blocks({"change": lambda: {"inner": 0.5, "other": 2.0}}, 2, 4)
    assert times["change"]["inner"].tolist() == [0.5, 0.5]
    assert times["change"]["other"].tolist() == [2.0, 2.0]


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=15))
def test_summary_is_ordered(values):
    s = kt.summary(values)
    assert list(s) == ["best", "median", "q1", "q3"]
    assert s["best"] <= s["q1"] <= s["median"] <= s["q3"]


@pytest.fixture
def fake_suites(monkeypatch):
    """Every suite replaced by one that returns at once."""
    for name in verification.SUITES:
        monkeypatch.setitem(verification.SUITES, name, lambda **kwargs: [])
    return dict(verification.SUITES)


def test_every_suite_is_clocked_inside_run_all(fake_suites):
    samples = {}
    clock = kt.suite_call(verification, samples)()
    assert set(clock) == {*verification.SUITES, "run_all", "minus_suites"}
    assert set(samples) == set(verification.SUITES)
    suites = sum(clock[name] for name in verification.SUITES)
    assert clock["minus_suites"] == pytest.approx(clock["run_all"] - suites)
    assert verification.SUITES == fake_suites


def test_suites_are_restored_when_one_raises(fake_suites, monkeypatch):
    def broken(**kwargs):
        raise RuntimeError("suite failed")

    monkeypatch.setitem(verification.SUITES, "norm", broken)
    before = dict(verification.SUITES)
    with pytest.raises(RuntimeError, match="suite failed"):
        kt.suite_call(verification, {})()
    assert verification.SUITES == before


def test_every_kernel_entry_is_timed_as_one_part(tmp_path):
    entries = kt.entries(shpqm, kt.kernel_inputs(shpqm, 3), str(tmp_path / "out.csv"))
    for _ in range(len(kt.SIZES) * len(kt.KERNELS)):
        where, fn, _, _ = next(entries)
        assert where.startswith("kernels/")
        assert set(kt.time_blocks({"change": fn}, blocks=1, number=1)["change"]) == {""}
