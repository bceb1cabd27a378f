"""Tests of the verification suites' reports and sampling."""

import numpy as np
import pytest

from shpqm import minkowski as mk, sl2c, verification as vf

SAMPLED = ("operator_algebra", "little_group", "norm", "coupling")


@pytest.mark.parametrize("suite", SAMPLED)
def test_worst_sample_reproduces_max_deviation(suite):
    # the draws are made sample by sample, so the first k samples of a run
    # are the samples of a run with samples=k, across chunk boundaries too
    fn = vf.SUITES[suite]
    for r in fn(seed=42, samples=2 * vf.CHUNK + 20):
        if r.worst_sample is None:
            continue
        assert 0 <= r.worst_sample < r.samples
        again = {x.identity: x for x in fn(seed=42, samples=r.worst_sample + 1)}
        assert abs(again[r.identity].max_deviation - r.max_deviation) <= 1e-15


def test_worst_sample_only_for_sampled_identities():
    report = vf.run_all(seed=3, samples=20)
    unsampled = {"rest_boost_components", "rest_spin_eigenvalues", "rest_su2_closure",
                 "cg_orthogonality"}
    for results in report.values():
        for r in results:
            assert r.to_dict()["worst_sample"] == r.worst_sample
            if r.identity in unsampled:
                assert r.worst_sample is None
            else:
                assert isinstance(r.worst_sample, int)


def test_suite_draws_are_those_of_the_scalar_samplers():
    samples = 2 * vf.CHUNK + 7
    built = vf._per_sample(
        np.random.default_rng(5), samples, lambda r: (*vf._draw_n(r), *vf._draw_element(r)),
        lambda axis, w, *element: {"n": mk.rest_boosted(axis, w), "a": vf._element(*element)})
    rng = np.random.default_rng(5)
    n_ref, a_ref = [], []
    for _ in range(samples):
        n_ref.append(mk.random_unit_timelike(rng, 1.5))
        a_ref.append(sl2c.random_sl2c(rng, 1.0))
    assert np.array_equal(built["n"], n_ref)
    assert np.max(np.abs(built["a"] - np.array(a_ref))) <= 1e-15


def test_suites_reject_an_empty_sample():
    with pytest.raises(ValueError):
        vf.little_group_suite(seed=1, samples=0)
