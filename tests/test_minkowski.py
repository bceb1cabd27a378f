"""Tests for the Minkowski four-vector utilities."""

import numpy as np
import pytest

from shpqm import minkowski as mk, sl2c


def test_metric_signature():
    assert np.array_equal(np.diag(mk.METRIC), [-1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(mk.METRIC, mk.METRIC.T)


def test_dot_and_lower():
    a = mk.four_vector(2.0, 1.0, 0.0, 0.0)
    b = mk.four_vector(1.0, 1.0, 1.0, 1.0)
    assert mk.dot(a, b) == pytest.approx(-2.0 + 1.0)
    assert np.allclose(mk.lower(a), [-2.0, 1.0, 0.0, 0.0])


def test_classify():
    assert mk.classify(mk.four_vector(1, 0, 0, 0)) is mk.CausalClass.TIMELIKE_FUTURE
    assert mk.classify(mk.four_vector(-1, 0, 0, 0)) is mk.CausalClass.TIMELIKE_PAST
    assert mk.classify(mk.four_vector(0, 1, 0, 0)) is mk.CausalClass.SPACELIKE
    assert mk.classify(mk.four_vector(1, 1, 0, 0)) is mk.CausalClass.LIGHTLIKE
    assert mk.classify(np.zeros(4)) is mk.CausalClass.LIGHTLIKE


def test_unit_timelike_checks():
    mk.check_unit_timelike_future(mk.N0)
    with pytest.raises(ValueError):
        mk.check_unit_timelike_future(mk.four_vector(-1, 0, 0, 0))
    with pytest.raises(ValueError):
        mk.check_unit_timelike_future(mk.four_vector(2, 0, 0, 0))


def test_rotation_and_boost_are_proper():
    rng = np.random.default_rng(1)
    for _ in range(20):
        axis = ("x", "y", "z")[rng.integers(0, 3)]
        mk.check_proper_lorentz(mk.rotation(axis, rng.uniform(-3, 3)))
        mk.check_proper_lorentz(mk.boost(axis, rng.uniform(-2, 2)))


def test_boost_moves_rest_vector():
    lam = mk.boost("z", 1.2)
    moved = mk.apply(lam, mk.N0)
    assert moved[0] == pytest.approx(np.cosh(1.2))
    assert moved[3] == pytest.approx(np.sinh(1.2))


def test_inverse_and_random_proper():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam = sl2c.spinor_map(sl2c.random_sl2c(rng, 3.0))
        mk.check_proper_lorentz(lam)
        assert np.allclose(mk.inverse(lam) @ lam, np.eye(4), atol=1e-12)


def test_dot_invariance_under_random_lorentz():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lam = sl2c.spinor_map(sl2c.random_sl2c(rng, 3.0))
        a = mk.random_four_vector(rng, 2.0)
        b = mk.random_four_vector(rng, 2.0)
        assert mk.dot(mk.apply(lam, a), mk.apply(lam, b)) == pytest.approx(
            mk.dot(a, b), abs=1e-10)


def test_pure_boost_reaches_target():
    # the pure boost to n is the vector form of the canonical SL(2,C) boost
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        lam = sl2c.spinor_map(sl2c.canonical_boost(n))
        assert np.allclose(mk.apply(lam, mk.N0), n, atol=1e-12)
        assert np.allclose(lam, lam.T, atol=1e-12)
    assert np.array_equal(sl2c.spinor_map(sl2c.canonical_boost(mk.N0)), np.eye(4))


def test_random_unit_timelike_is_unit():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = mk.random_unit_timelike(rng)
        assert mk.dot(n, n) == pytest.approx(-1.0, abs=1e-12)
        assert n[0] > 0
