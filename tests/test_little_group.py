"""Tests for the induced little-group rotation on the foliation orbit."""

import itertools

import numpy as np
import pytest

from shpqm import little_group as lg, minkowski as mk, sl2c


def unit(v):
    return v / np.sqrt(-mk.dot(v, v))


def test_wigner_d_is_su2():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = sl2c.random_sl2c(rng)
        n = mk.random_unit_timelike(rng)
        d = lg.wigner_d(a, n)
        assert np.allclose(d @ d.conj().T, np.eye(2), atol=1e-10)
        assert np.linalg.det(d) == pytest.approx(1.0, abs=1e-10)


def test_rotation_at_rest_fiber_is_itself():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = sl2c.sl2c_rotation(("x", "y", "z")[rng.integers(0, 3)],
                               rng.uniform(-3, 3))
        assert np.allclose(lg.wigner_d(u, mk.N0), u, atol=1e-12)


def test_collinear_boosts_give_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        axis = ("x", "y", "z")[rng.integers(0, 3)]
        b = sl2c.sl2c_boost(axis, rng.uniform(-2, 2)) @ sl2c.sl2c_boost(
            axis, rng.uniform(-2, 2))
        n = unit(mk.apply(sl2c.spinor_map(b), mk.N0))
        assert np.allclose(lg.wigner_d(b, n), np.eye(2), atol=1e-10)


def test_cocycle_composition():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a1, a2 = sl2c.random_sl2c(rng), sl2c.random_sl2c(rng)
        n = mk.random_unit_timelike(rng)
        n_back = unit(mk.apply(mk.inverse(sl2c.spinor_map(a1)), n))
        lhs = lg.wigner_d(a1 @ a2, n)
        rhs = lg.wigner_d(a1, n) @ lg.wigner_d(a2, n_back)
        assert np.allclose(lhs, rhs, atol=1e-9)


def polar_rotation_angle(lam):
    """Rotation angle of the 4x4 polar factor Lambda = R B (oracle)."""
    b = _sym_sqrt(lam.T @ lam)
    r = lam @ np.linalg.inv(b)
    spatial = r[1:, 1:]
    cos = (np.trace(spatial) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def _sym_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def test_orthogonal_boost_angle_matches_polar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        w1, w2 = rng.uniform(0.1, 2.0, size=2)
        a = sl2c.sl2c_boost("x", w1) @ sl2c.sl2c_boost("y", w2)
        lam = sl2c.spinor_map(a)
        n = unit(mk.apply(lam, mk.N0))
        angle, _ = lg.su2_angle_axis(lg.wigner_d(a, n))
        assert angle == pytest.approx(polar_rotation_angle(lam), abs=1e-9)


def test_perpendicular_boosts_match_thomas_wigner_angle():
    # closed form for boosts along perpendicular axes, at the boosted fiber:
    # tan(theta/2) = tanh(w1/2) tanh(w2/2), up to rapidity 6 per boost
    pairs = (("x", "y"), ("y", "z"), ("z", "x"),
             ("y", "x"), ("z", "y"), ("x", "z"))
    grid = np.linspace(0.0, 6.0, 13)
    for ax1, ax2 in pairs:
        for w1 in grid:
            for w2 in grid:
                a = sl2c.sl2c_boost(ax1, w1) @ sl2c.sl2c_boost(ax2, w2)
                n = unit(mk.apply(sl2c.spinor_map(a), mk.N0))
                angle, _ = lg.su2_angle_axis(lg.wigner_d(a, n))
                want = 2.0 * np.arctan(np.tanh(w1 / 2) * np.tanh(w2 / 2))
                assert abs(angle - want) <= 1e-10, (ax1, ax2, w1, w2)


def _angle_axis_by_traces(d):
    """su2_angle_axis as it was written first: the axis components from
    traces of Pauli-matrix products, the reference for the closed form."""
    c = 0.5 * np.trace(d).real
    comps = np.array([0.5j * np.trace(s @ d) for s in sl2c.PAULI[1:]])
    if c < 0:
        c, comps = -c, -comps
    s = np.linalg.norm(comps.real)
    if s < 1e-14:
        return 0.0, np.array([0.0, 0.0, 1.0])
    return float(2.0 * np.arctan2(s, min(c, 1.0))), comps.real / s


def test_su2_angle_axis_equals_trace_form_bit_for_bit():
    rng = np.random.default_rng(12)
    ds = [lg.wigner_d(sl2c.random_sl2c(rng, 2.0), mk.random_unit_timelike(rng, 1.5))
          for _ in range(300)]
    for ax1, ax2 in (("x", "y"), ("y", "z"), ("z", "x"), ("y", "x")):
        for w in (0.3, 1.7, 4.5):
            a = sl2c.sl2c_boost(ax1, w) @ sl2c.sl2c_boost(ax2, 2.1)
            ds.append(lg.wigner_d(a, unit(mk.apply(sl2c.spinor_map(a), mk.N0))))
    # rotations about each axis with every sign of their exactly-zero parts:
    # a zero axis component keeps the sign the trace form gives it
    zeros = (0.0, -0.0)
    for theta in (0.7, -2.5, 4.0, 0.0):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        for r1, i1, r2, i2 in itertools.product(zeros, repeat=4):
            ds.append(np.array([[c - 1j * s, complex(r1, i1)], [complex(r2, i2), c + 1j * s]]))
            ds.append(np.array([[complex(c, r1), complex(i1, -s)],
                                [complex(r2, -s), complex(c, i2)]]))
            ds.append(np.array([[complex(c, r1), complex(-s, i1)],
                                [complex(s, r2), complex(c, i2)]]))
    ds += [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
    for d in ds:
        angle, axis = lg.su2_angle_axis(d)
        want_angle, want_axis = _angle_axis_by_traces(d)
        assert angle == want_angle and axis.tobytes() == want_axis.tobytes()


def test_momentum_wigner_d_matches_fiber_form():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = sl2c.random_sl2c(rng)
        m = rng.uniform(0.5, 3.0)
        n = mk.random_unit_timelike(rng)
        p = m * n
        assert np.allclose(lg.momentum_wigner_d(a, p, m),
                           lg.wigner_d(a, n), atol=1e-9)
    with pytest.raises(ValueError):
        lg.momentum_wigner_d(sl2c.random_sl2c(rng),
                             mk.four_vector(1.0, 0, 0, 0), 2.0)


def test_induced_transform_moves_labels_and_spin():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        state = lg.InducedPacketState(
            n=n,
            spin=_random_spinor(rng),
            center_x=mk.random_four_vector(rng, 1.0),
            center_p=mk.random_four_vector(rng, 1.0),
            width=1.0)
        a = sl2c.random_sl2c(rng)
        lam = sl2c.spinor_map(a)
        out = lg.induced_transform(state, a)
        assert np.allclose(out.n, unit(mk.apply(lam, n)), atol=1e-10)
        assert np.allclose(out.center_x, mk.apply(lam, state.center_x),
                           atol=1e-10)
        assert np.linalg.norm(out.spin) == pytest.approx(1.0, abs=1e-10)


def test_induced_transform_composes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = lg.InducedPacketState(
            n=mk.random_unit_timelike(rng),
            spin=_random_spinor(rng),
            center_x=mk.random_four_vector(rng, 1.0),
            center_p=mk.random_four_vector(rng, 1.0),
            width=1.0)
        a1, a2 = sl2c.random_sl2c(rng), sl2c.random_sl2c(rng)
        once = lg.induced_transform(state, a1 @ a2)
        twice = lg.induced_transform(lg.induced_transform(state, a2), a1)
        assert np.allclose(once.spin, twice.spin, atol=1e-9)
        assert np.allclose(once.n, twice.n, atol=1e-9)


def test_su2_angle_axis_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0.05, np.pi - 0.05)
        sigma = np.einsum("i,iab->ab", axis, sl2c.PAULI[1:])
        u = (np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * sigma)
        angle, ax = lg.su2_angle_axis(u)
        assert angle == pytest.approx(theta, abs=1e-10)
        assert np.allclose(ax, axis, atol=1e-9)


def _random_spinor(rng):
    s = rng.normal(size=2) + 1j * rng.normal(size=2)
    return s / np.linalg.norm(s)
