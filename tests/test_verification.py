"""Tests of the verification suites' reports and sampling."""

import tracemalloc

import numpy as np
import pytest

from shpqm import cli, dirac, minkowski, sl2c, verification as vf

SAMPLED = ("operator_algebra", "little_group", "norm", "coupling")
CHUNK = vf.CHUNK


@pytest.mark.parametrize("suite", SAMPLED)
def test_worst_sample_reproduces_max_deviation(suite):
    # each stream is drawn in order, so the first k samples of a run are the
    # samples of a run with samples=k, across chunk boundaries too
    fn = vf.SUITES[suite]
    for r in fn(seed=42, samples=2 * vf.CHUNK + 20):
        if r.worst_sample is None:
            continue
        assert 0 <= r.worst_sample < r.samples
        again = {x.identity: x for x in fn(seed=42, samples=r.worst_sample + 1)}
        assert abs(again[r.identity].max_deviation - r.max_deviation) <= 1e-15


def test_worst_sample_only_for_sampled_identities():
    # at 10 samples every suite, coupling too, draws 10; the informational
    # variant is sampled like the rest
    report = vf.run_all(seed=3, samples=10)
    unsampled = {"rest_boost_components", "rest_spin_eigenvalues", "rest_su2_closure",
                 "cg_orthogonality"}
    for results in report.values():
        for r in results:
            assert r.to_dict()["worst_sample"] == r.worst_sample
            if r.identity in unsampled:
                assert r.worst_sample is None
            else:
                assert isinstance(r.worst_sample, int)
                assert r.samples == 10 and r.worst_sample < 10, r.identity


def test_first_samples_of_a_longer_run_are_a_shorter_run():
    # every stream of every sampled suite, k across the chunk boundaries,
    # the longer run ending in a partial chunk
    longer_samples = 2 * vf.CHUNK + 7
    kinds = set()
    for suite in SAMPLED:
        def draw(samples):
            return vf._per_sample(5, samples, vf.STREAMS[suite],
                                  lambda *blocks: dict(enumerate(blocks)))
        longer = draw(longer_samples)
        assert len(longer) == len(vf.STREAMS[suite])
        for k in (1, vf.CHUNK - 1, vf.CHUNK, vf.CHUNK + 1, 2 * vf.CHUNK + 3):
            shorter = draw(k)
            for i, block in longer.items():
                assert len(block) == longer_samples
                assert shorter[i].dtype == block.dtype
                assert shorter[i].tobytes() == block[:k].tobytes(), (suite, i, k)
        kinds |= {block.dtype.kind for block in longer.values()}
    assert kinds == {"f", "i", "c"}


def test_verify_json_is_byte_identical_on_two_runs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert cli.main(["verify", "--seed", "11", "--samples", str(2 * vf.CHUNK + 7),
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("samples", [75, 2 * vf.CHUNK + 7])
def test_report_does_not_depend_on_the_chunking(monkeypatch, samples):
    # every suite's report, to the bit (a float's repr round-trips it), is the
    # same for samples evaluated one, 7, 200 or CHUNK at a time; chunks of one
    # row and partial last chunks included
    def report(chunk):
        monkeypatch.setattr(vf, "CHUNK", chunk)
        return {suite: [repr(r.to_dict()) for r in results]
                for suite, results in vf.run_all(seed=42, samples=samples).items()}

    reference = report(CHUNK)
    for chunk in (1, 7, 200):
        assert report(chunk) == reference, chunk


def test_operator_suite_peak_memory_per_sample():
    # tracemalloc peak of one chunk of the operator suite: 6,140 bytes a
    # sample at CHUNK = 500 with numpy 2.4.6 (x86_64); 25 % more fails
    vf.operator_algebra_suite(42, vf.CHUNK)
    tracemalloc.start()
    try:
        vf.operator_algebra_suite(42, vf.CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / vf.CHUNK <= 1.25 * 6140


def test_suites_reject_an_empty_sample():
    with pytest.raises(ValueError):
        vf.little_group_suite(seed=1, samples=0)


def _swap_the_blocks_of_s_lambda(monkeypatch):
    # S(Lambda) = ASSEMBLY diag(bar a, a) ASSEMBLY^dagger becomes
    # ASSEMBLY diag(a, bar a) ASSEMBLY^dagger, which breaks covariance
    swap = dirac.ASSEMBLY @ np.eye(4)[[2, 3, 0, 1]] @ dirac.ASSEMBLY.conj().T
    s_lambda = dirac.s_lambda
    monkeypatch.setattr(dirac, "s_lambda", lambda a: swap @ s_lambda(a) @ swap)


@pytest.mark.parametrize("swapped", [False, True])
def test_six_pair_covariance_equals_the_sixteen_index_reference(monkeypatch, swapped):
    # on one chunk: S^-1 Sigma_{n'}^{mn} S carried back by Lambda^-1 on each
    # index, over all 16 (m, n), against Sigma_n
    if swapped:
        _swap_the_blocks_of_s_lambda(monkeypatch)
    blocks = list(vf._per_sample(8, vf.CHUNK, vf.STREAMS["operator_algebra"],
                                 lambda *blocks: dict(enumerate(blocks))).values())
    n, a = minkowski.rest_boosted(*blocks[:2]), vf._element(*blocks[-4:])
    lam = sl2c.spinor_map(a)
    lam_inv, s = minkowski.inverse(lam), dirac.s_lambda(a)
    conj = np.einsum("rab,rmnbc,rcd->rmnad", np.linalg.inv(s),
                     dirac.sigma_n_all(minkowski.moved(lam, n)), s)
    back = np.einsum("rmnad,rlm,rsn->rlsad", conj, lam_inv, lam_inv)
    reference = vf._sample_mdev(back - dirac.sigma_n_all(n))
    covariance = vf._operator_deviations(*blocks)["covariance"]
    assert covariance.shape == reference.shape == (vf.CHUNK,)
    assert (reference.max() > 1.0) == swapped
    assert np.max(np.abs(covariance - reference)) <= 1e-14 * max(1.0, reference.max())


def test_covariance_catches_a_spinor_representation_with_its_blocks_swapped(monkeypatch):
    _swap_the_blocks_of_s_lambda(monkeypatch)
    results = {r.identity: r for r in vf.operator_algebra_suite(3, 300)}
    assert not results["covariance"].passed
    assert results["covariance"].max_deviation > 10.0
