"""Tests of the verification suites' reports and sampling."""

import pytest

from shpqm import cli, verification as vf

SAMPLED = ("operator_algebra", "little_group", "norm", "coupling")


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


def test_suites_reject_an_empty_sample():
    with pytest.raises(ValueError):
        vf.little_group_suite(seed=1, samples=0)
