"""Tests of the benchmark itself: seeded inputs, oracles, tracing, contract.

    python3 -m pytest benchmarks/check_bench.py

The file is named so that the package's own `pytest` run does not collect
it.  Ops here run at reduced sizes so the whole file takes well under a
minute.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from shpqm import minkowski, verification  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


def inputs_digest(inputs, input_dir):
    h = hashlib.sha256(workloads.digest([inputs.warmup, inputs.ops]).encode())
    for path in sorted(Path(input_dir).iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def small_input(name, tmp_path):
    """A drawn op input shrunk to test size."""
    inputs = workloads.WORKLOADS[name].generate(3, tmp_path / "inputs")
    x = copy.deepcopy(inputs.ops[0])
    if name == "verify":
        x["samples"] = 20
        x["argv"][-1] = "20"
    elif name == "transport":
        # an op whose wigner query stays below the known tolerance failure
        x = next(op for op in inputs.ops if max(op["w1"], op["w2"]) < 2.0)
    elif name == "scan":
        x["samples"] = 4001
        x["argv"][-1] = "4001"
    else:
        cfg = Path(x["argv"][2])
        cfg.write_text(cfg.read_text().replace("steps = 20000", "steps = 200"))
        x["steps"] = 200
        x["quantum"] = {**x["quantum"], "steps": 20}
    return x


def run_op(name, x, tmp_path, stem="op"):
    return workloads.WORKLOADS[name].op(x, str(tmp_path / stem))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    first = inputs_digest(wl.generate(7, tmp_path), tmp_path)
    again = inputs_digest(wl.generate(7, tmp_path), tmp_path)
    other = inputs_digest(wl.generate(8, tmp_path), tmp_path)
    assert first == again
    assert first != other


def test_transport_wigner_queries_do_not_depend_on_the_seed(tmp_path):
    # the fixed design is what makes every run count the same failures
    wl = workloads.WORKLOADS["transport"]
    first = [op["argv"] for op in wl.generate(7, tmp_path).ops]
    other = wl.generate(8, tmp_path).ops
    assert first == [op["argv"] for op in other]
    w = np.array([(op["w1"], op["w2"]) for op in other])
    assert w.min() >= 0.0 and w.max() <= 5.0
    # evenly spread: each quarter of the square holds a quarter of the queries
    quarters = np.bincount((w[:, 0] > 2.5) * 2 + (w[:, 1] > 2.5), minlength=4)
    assert np.all(np.abs(quarters - len(w) / 4) <= 0.01 * len(w))


@pytest.mark.parametrize("name", NAMES)
def test_oracle_accepts_real_output(name, tmp_path):
    x = small_input(name, tmp_path)
    assert workloads.WORKLOADS[name].check(x, run_op(name, x, tmp_path)) == []


def _rewrite(run, edit):
    path = Path(run.path)
    path.write_text(edit(path.read_text()))


def test_verify_oracle_rejects_deviation_above_tolerance(tmp_path):
    x = small_input("verify", tmp_path)
    out = run_op("verify", x, tmp_path)

    def corrupt(text):
        report = json.loads(text)
        entry = report["suites"]["norm"][0]
        entry["max_deviation"] = repr(10 * float(entry["tolerance"]))
        return json.dumps(report)

    _rewrite(out, corrupt)
    assert any("above tolerance" in p for p in oracles.check_verify(x, out))


def test_transport_oracle_rejects_flipped_angle_and_perturbed_norm(tmp_path):
    x = small_input("transport", tmp_path)
    out = run_op("transport", x, tmp_path)
    report = json.loads(out["wigner"].text)
    report["rotation"]["angle"] = repr(-float(report["rotation"]["angle"]))
    flipped = {**out, "wigner": dataclasses.replace(out["wigner"], text=json.dumps(report))}
    assert any("Thomas-Wigner" in p for p in oracles.check_transport(x, flipped))
    perturbed = {**out, "sector_norm": out["sector_norm"] * (1 + 1e-8)}
    assert any("sector norm" in p for p in oracles.check_transport(x, perturbed))
    shifted = {**out, "state": dataclasses.replace(out["state"],
                                                   center_x=out["state"].center_x + 1e-6)}
    assert any("center_x" in p for p in oracles.check_transport(x, shifted))


def test_scan_oracle_rejects_dropped_row_and_negative_probability(tmp_path):
    x = small_input("scan", tmp_path)
    out = run_op("scan", x, tmp_path)
    text = Path(out.path).read_text()
    lines = text.splitlines(keepends=True)
    _rewrite(out, lambda _: "".join(lines[:100] + lines[101:]))
    assert any("shape" in p for p in oracles.check_scan(x, out))
    row = lines[200].split(",")
    row[1] = "-1e-3"
    _rewrite(out, lambda _: "".join(lines[:200] + [",".join(row)] + lines[201:]))
    assert any("negative" in p for p in oracles.check_scan(x, out))


def test_evolve_oracle_rejects_dropped_row_and_perturbed_amplitude(tmp_path):
    x = small_input("evolve", tmp_path)
    out = run_op("evolve", x, tmp_path)
    lines = Path(out["classical"].path).read_text().splitlines(keepends=True)
    _rewrite(out["classical"], lambda _: "".join(lines[:-1]))
    assert any("shape" in p for p in oracles.check_evolve(x, out))
    _rewrite(out["classical"], lambda _: "".join(lines))
    final = copy.copy(out["quantum"]["final"])
    amps = final.amplitudes.copy()
    amps[len(amps) // 2] *= 1 + 1e-6
    object.__setattr__(final, "amplitudes", amps)     # skips the normalization check
    out["quantum"]["final"] = final
    assert any("|a|" in p for p in oracles.check_evolve(x, out))


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    x = small_input(name, tmp_path)
    plain = workloads.digest(run_op(name, x, tmp_path, "plain"))
    original_dot, original_suites = minkowski.dot, dict(verification.SUITES)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert minkowski.dot is not original_dot
        assert verification.SUITES["norm"] is not original_suites["norm"]
        traced = workloads.digest(run_op(name, x, tmp_path, "traced"))
    finally:
        tr.uninstall()
    assert minkowski.dot is original_dot and verification.SUITES == original_suites
    assert traced == plain
    assert len(tr.start) > 0
    metrics = tr.layer_metrics(1, sum(tr.end[i] - tr.start[i] for i in range(len(tr.start))
                                      if tr.parent[i] < 0))
    assert metrics["trace.coverage"] == pytest.approx(1.0)


def test_tracer_self_time_and_failures():
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.op = 0
        from shpqm import sl2c
        sl2c.canonical_boost(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            sl2c.canonical_boost(np.array([2.0, 0.0, 0.0, 0.0]))    # not unit
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics(2, 1.0)
    # canonical_boost, hermitian_form and the element check, then canonical_boost
    assert metrics["sl2c.calls"] == pytest.approx(4 / 2)
    assert metrics["minkowski.failed"] == pytest.approx(1 / 2)      # left minkowski once
    assert metrics["sl2c.failed"] == pytest.approx(1 / 2)           # and then sl2c
    _, parent, _, start, end = tr.arrays()
    dur = end - start
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) * 2
    assert total_self == pytest.approx(dur[parent < 0].sum())


def test_speed_probe_ticks_during_ops_and_is_taken_out():
    with worker.SpeedProbe() as probe:
        t0 = worker.perf_counter()
        while worker.perf_counter() - t0 < 0.5:
            sum(range(1000))
        t1 = worker.perf_counter()
    assert len(probe.length) >= 5
    assert 0 < probe.spent(t0, t1) < 0.5 * (t1 - t0)
    # a short op takes the ticks of the window around it
    unit = probe.unit_s(t1 - 0.01, t1)
    assert min(probe.length) <= unit <= max(probe.length)
    outcome = worker.Outcome(0, 0.2, None, [], None, 0, t0, t1, unit_s=worker.REFERENCE_UNIT_S)
    assert outcome.scaled_seconds() == pytest.approx(0.2)


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]


@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_every_metric_once(trace):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "transport",
                           "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    spec = _bench_json()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "transport",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
