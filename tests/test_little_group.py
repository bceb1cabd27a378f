"""Tests for the induced little-group rotation on the foliation orbit."""

import itertools
import json

import numpy as np
import pytest

from shpqm import cli, little_group as lg, minkowski as mk, sl2c


def unit(v):
    return v / np.sqrt(-mk.inner(v, v))


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


def test_perpendicular_boosts_give_the_closed_form_rotation():
    # x:w then y:w at rest is a rotation by eps about -z, tan(eps/2) =
    # tanh(w/2)^2: D = diag(e^{i eps/2}, e^{-i eps/2}), off-diagonal exactly 0.
    # The label moves to (cosh^2 w, cosh w sinh w, sinh w, 0); normalising
    # Lambda N0 by its norm would cancel terms of size (n_new^0)^2 and lose it
    # from about w = 6 (94 % off at w = 11)
    state = lg.InducedPacketState(n=mk.N0, spin=[1.0, 0.0], center_x=np.zeros(4),
                                  center_p=mk.N0)
    for w in (*range(1, 13), 20, 60):
        c, s = np.cosh(w / 2) ** 2, np.sinh(w / 2) ** 2
        half = np.arctan2(s, c)
        want = np.diag([np.exp(1j * half), np.exp(-1j * half)])
        a = sl2c.sl2c_boost("x", w) @ sl2c.sl2c_boost("y", w)
        _, n_new, d = lg.transport(a, mk.N0)
        assert np.max(np.abs(d - want)) <= 1e-14, w
        assert d[0, 1] == 0 and d[1, 0] == 0, w
        want_n = np.array([np.cosh(w) ** 2, np.cosh(w) * np.sinh(w), np.sinh(w), 0.0])
        assert np.max(np.abs(n_new - want_n)) <= 1e-15 * want_n[0], w
        assert np.array_equal(lg.induced_transform(state, a).n, n_new), w


def test_cli_wigner_at_large_rapidity_has_zero_off_diagonal(tmp_path):
    out = tmp_path / "wigner.json"
    assert cli.main(["wigner", "--boost1", "x:12", "--boost2", "y:1", "--out", str(out)]) == 0
    rotation = json.loads(out.read_text())["rotation"]
    d = (np.array(rotation["matrix_real"], dtype=float)
         + 1j * np.array(rotation["matrix_imag"], dtype=float))
    assert abs(d[0, 1]) <= 1e-15 and abs(d[1, 0]) <= 1e-15
    want = 2.0 * np.arctan(np.tanh(6.0) * np.tanh(0.5))
    assert float(rotation["angle"]) == pytest.approx(want, abs=1e-15)


def test_boosts_at_any_angle_match_the_closed_form_angle():
    # boosts w1 along e1 then w2 along e2, theta apart, at rest: a rotation
    # about -(e1 x e2) by eps with tan(eps/2) = sin(theta) s1 s2 /
    # (c1 c2 + cos(theta) s1 s2), c, s = cosh, sinh of half the rapidity
    for theta, w1, w2 in itertools.product((0.3, 1.0, np.pi / 2, 2.0, 3.0),
                                           (0.5, 2.0, 5.0, 9.0), (0.7, 3.0, 8.5)):
        e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([np.cos(theta), np.sin(theta), 0.0])
        a = sl2c.sl2c_boost(e1, w1) @ sl2c.sl2c_boost(e2, w2)
        angle, axis = lg.su2_angle_axis(lg.transport(a, mk.N0)[2])
        c1, s1, c2, s2 = np.cosh(w1 / 2), np.sinh(w1 / 2), np.cosh(w2 / 2), np.sinh(w2 / 2)
        want = 2.0 * np.arctan2(np.sin(theta) * s1 * s2, c1 * c2 + np.cos(theta) * s1 * s2)
        assert abs(angle - want) <= 1e-14, (theta, w1, w2)
        assert np.max(np.abs(axis - [0.0, 0.0, -1.0])) <= 1e-12, (theta, w1, w2)


def test_transport_is_the_polar_decomposition_of_a_l_n():
    # A L(n) = L(n_new) D to round-off relative to |A L(n)|, also where the
    # moved label reaches n_new^0 ~ 1e9
    rng = np.random.default_rng(13)
    a = np.array([sl2c.random_sl2c(rng, 3.0) for _ in range(1000)])
    n = np.array([mk.random_unit_timelike(rng, 1.5) for _ in range(1000)])
    a = a @ sl2c.sl2c_boost(rng.normal(size=(1000, 3)), rng.uniform(0.0, 20.0, 1000))
    _, n_new, d = lg.transport(a, n)
    assert n_new[:, 0].max() > 1e9
    m = a @ sl2c.canonical_boost(n)
    residual = np.abs(m - sl2c.canonical_boost(n_new) @ d).max(axis=(-2, -1))
    assert np.all(residual <= 4e-15 * np.abs(m).max(axis=(-2, -1)))


def test_transport_matches_a_60_digit_reference():
    # the moved label n_new and D = L(n_new)^{-1} A L(n) for the exact boosts
    # of the given rapidities, in 60-digit arithmetic, at rest and at the
    # label (2, 1, 1, 1)
    mp = pytest.importorskip("mpmath")
    pauli = [mp.matrix(sl2c.PAULI[k].tolist()) for k in range(4)]

    def form(v):
        return sum((v[k] * pauli[k] for k in range(1, 4)), v[0] * pauli[0])

    def boost(axis, w):
        half = mp.mpf(w) / 2
        return mp.cosh(half) * pauli[0] + mp.sinh(half) * pauli["xyz".index(axis) + 1]

    def canonical(v):
        return (pauli[0] + form(v)) / mp.sqrt(2 * (1 + v[0]))

    cases = [("z", "y", 4.903936616479996, 4.82949925159005), ("x", "y", 6.0, 6.0),
             ("y", "x", 3.2, 0.4), ("x", "z", 0.9, 5.0), ("z", "x", 7.5, 2.5),
             ("x", "y", 11.0, 11.0)]
    labels = (mk.N0, np.array([2.0, 1.0, 1.0, 1.0]))
    with mp.workdps(60):
        for (ax1, ax2, w1, w2), n in itertools.product(cases, labels):
            exact = boost(ax1, w1) * boost(ax2, w2)
            x_new = exact * form([mp.mpf(v) for v in n]) * exact.transpose_conj()
            n_new = [mp.re(sum(pauli[k][i, j] * x_new[j, i] for i in range(2) for j in range(2)))
                     / 2 for k in range(4)]
            want = mp.inverse(canonical(n_new)) * exact * canonical([mp.mpf(v) for v in n])
            _, label, d = lg.transport(sl2c.sl2c_boost(ax1, w1) @ sl2c.sl2c_boost(ax2, w2), n)
            err = max(abs(complex(d[i, j]) - want[i, j]) for i in range(2) for j in range(2))
            assert err <= 1e-14, (ax1, ax2, w1, w2, n)
            label_err = max(abs(label[k] - n_new[k]) for k in range(4)) / n_new[0]
            assert label_err <= 1e-15, (ax1, ax2, w1, w2, n)


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


def test_momentum_wigner_d_at_large_rapidity_and_off_shell():
    # p = m n exactly on shell at w = 20, where -p.p rounds to 0 (or less):
    # the label is built from the spatial part, as minkowski.moved does
    a = sl2c.sl2c_rotation([0.0, 0.6, 0.8], 1.1) @ sl2c.sl2c_boost([0.8, 0.0, 0.6], 0.9)
    for axis in ("x", "y", [1.0, -2.0, 0.5]):
        n = mk.rest_boosted(axis, 20.0)
        for m in (1.0, 0.5, 3.0):
            dev = np.abs(lg.momentum_wigner_d(a, m * n, m) - lg.wigner_d(a, n)).max()
            assert dev <= 1e-15, (axis, m, dev)
        for p0_scale in (1 + 1e-3, 1 - 1e-3):
            p = n * [p0_scale, 1.0, 1.0, 1.0]
            with pytest.raises(ValueError, match="momentum off shell"):
                lg.momentum_wigner_d(a, p, 1.0)
    for p in (-mk.rest_boosted("x", 0.3), [np.inf, 0.0, 0.0, 0.0],
              [np.nan, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="momentum off shell"):
            lg.momentum_wigner_d(a, p, 1.0)
    with pytest.raises(ValueError, match="label of p overflows"):
        lg.momentum_wigner_d(a, [1e300, 1e300, 0.0, 0.0], 1.0)


def test_momentum_wigner_d_batch_equals_the_per_sample_loop():
    rng = np.random.default_rng(13)
    a = np.array([sl2c.random_sl2c(rng) for _ in range(40)])
    m = 1.7
    p = m * mk.rest_boosted(rng.normal(size=(40, 3)), rng.uniform(0.0, 6.0, 40))
    batch = lg.momentum_wigner_d(a, p, m)
    assert batch.shape == (40, 2, 2)
    for i in range(40):
        assert batch[i].tobytes() == lg.momentum_wigner_d(a[i], p[i], m).tobytes()
    p[3, 0] *= 1.01
    with pytest.raises(ValueError, match=r"sample 3: momentum off shell"):
        lg.momentum_wigner_d(a, p, m)


@pytest.mark.parametrize("m", [np.nan, np.inf, 0.0, -1.0])
def test_momentum_wigner_d_refuses_a_mass_not_positive_and_finite(m):
    p = mk.four_vector(np.cosh(0.3), np.sinh(0.3), 0.0, 0.0)    # on shell at mass 1
    with pytest.raises(ValueError, match=r"mass must be positive and finite, got "):
        lg.momentum_wigner_d(sl2c.sl2c_boost([1.0, 0.0, 0.0], 0.5), p, m)


def test_induced_transform_moves_labels_and_spin():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        state = lg.InducedPacketState(
            n=n,
            spin=_random_spinor(rng),
            center_x=rng.normal(scale=1.0, size=4),
            center_p=rng.normal(scale=1.0, size=4),
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
            center_x=rng.normal(scale=1.0, size=4),
            center_p=rng.normal(scale=1.0, size=4),
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
