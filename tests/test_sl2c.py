"""Tests for the SL(2,C) double cover and the spinor map."""

import numpy as np
import pytest

from shpqm import minkowski as mk, sl2c


def test_element_requires_unit_determinant():
    for bad in (2.0 * np.eye(2), np.eye(3), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError):
            sl2c.spinor_map(bad)
        with pytest.raises(ValueError):
            sl2c.second_rep(bad)
    sl2c.check_sl2c(np.eye(2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a", [
    # a00 a11 - a01 a10 is inf - inf = nan
    sl2c.sl2c_boost("x", 800.0) @ sl2c.sl2c_boost("y", 1.0),
    # det is inf, which passed while its tolerance, scaled by max|a|^2, was inf
    np.diag([1e200, 1e200]),
], ids=["nan-determinant", "inf-determinant"])
def test_finite_element_whose_determinant_overflows_is_named(a):
    assert np.isfinite(a).all()
    with pytest.raises(ValueError, match="determinant of an element of size .* overflows"):
        sl2c.check_sl2c(a)


def test_guards_reject_small_errors_at_rapidity_5():
    # the tolerances scale with the entries, but a 1e-6 relative error in
    # one entry or in the determinant still fails at rapidity 5
    lam = mk.boost("x", 5.0)
    mk.check_proper_lorentz(lam)
    lam[0, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError):
        mk.check_proper_lorentz(lam)
    a = sl2c.sl2c_boost("x", 5.0)
    sl2c.spinor_map(a)
    a = a * np.sqrt(1.0 + 1e-6)   # det 1 + 1e-6
    with pytest.raises(ValueError):
        sl2c.spinor_map(a)
    with pytest.raises(ValueError):
        sl2c.second_rep(a)


def test_spinor_map_on_generators():
    assert np.allclose(sl2c.spinor_map(sl2c.sl2c_boost("z", 1.3)),
                       mk.boost("z", 1.3), atol=1e-12)
    assert np.allclose(sl2c.spinor_map(sl2c.sl2c_rotation("y", 0.7)),
                       mk.rotation("y", 0.7), atol=1e-12)


def test_spinor_map_is_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = sl2c.random_sl2c(rng), sl2c.random_sl2c(rng)
        assert np.allclose(sl2c.spinor_map(a @ b),
                           sl2c.spinor_map(a) @ sl2c.spinor_map(b),
                           atol=1e-10)


def test_spinor_map_kernel_is_plus_minus_identity():
    minus = -np.eye(2)
    assert np.allclose(sl2c.spinor_map(minus), np.eye(4), atol=1e-14)


def test_hermitian_form_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.normal(scale=2.0, size=4)
        x = sl2c.hermitian_form(v)
        assert np.allclose(x, x.conj().T, atol=1e-14)
        v0, v1, v2, v3 = v
        assert np.allclose(x, [[v0 + v3, v1 - 1j * v2], [v1 + 1j * v2, v0 - v3]],
                           atol=1e-14)
        # det X = -v.v
        assert np.linalg.det(x).real == pytest.approx(-mk.inner(v, v),
                                                      abs=1e-10)


def test_conjugation_action_matches_map():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = sl2c.random_sl2c(rng)
        v = rng.normal(scale=2.0, size=4)
        lhs = a @ sl2c.hermitian_form(v) @ a.conj().T
        rhs = sl2c.hermitian_form(mk.apply(sl2c.spinor_map(a), v))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_defining_relation_covariant_form():
    # A^dag (sigma . n_mu) A = sigma . (Lambda^{-1} n)_mu
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = sl2c.random_sl2c(rng)
        n = rng.normal(scale=2.0, size=4)
        nl = mk.lower(n)
        lhs = a.conj().T @ sum(
            nl[i] * sl2c.PAULI[i] for i in range(4)) @ a
        back = mk.apply(mk.inverse(sl2c.spinor_map(a)), n)
        backl = mk.lower(back)
        rhs = sum(backl[i] * sl2c.PAULI[i] for i in range(4))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_canonical_boost_properties():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = mk.random_unit_timelike(rng)
        boost = sl2c.canonical_boost(n)
        # positive Hermitian with unit determinant
        assert np.allclose(boost, boost.conj().T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(boost) > 0)
        assert np.allclose(mk.apply(sl2c.spinor_map(boost), mk.N0), n,
                           atol=1e-12)
        # matches the 4x4 symmetric boost through the spinor map
        pure = np.eye(4)
        pure[0], pure[:, 0] = n, n
        pure[1:, 1:] += np.outer(n[1:], n[1:]) / (1.0 + n[0])
        assert np.allclose(sl2c.spinor_map(boost), pure, atol=1e-10)
        # principal square root of X(n) by eigendecomposition (reference)
        vals, vecs = np.linalg.eigh(sl2c.hermitian_form(n))
        assert np.allclose(boost, (vecs * np.sqrt(vals)) @ vecs.conj().T,
                           atol=1e-12)


def test_second_rep_is_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = sl2c.random_sl2c(rng), sl2c.random_sl2c(rng)
        lhs = sl2c.second_rep(a @ b)
        rhs = sl2c.second_rep(a) @ sl2c.second_rep(b)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_second_rep_fixes_su2():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u = sl2c.sl2c_rotation(("x", "y", "z")[rng.integers(0, 3)],
                               rng.uniform(-3, 3))
        assert np.allclose(sl2c.second_rep(u), u, atol=1e-12)
