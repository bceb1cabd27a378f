"""Acceptance suite: nine end-to-end criteria, one printed line each.

Each test prints ``ACCEPTANCE <k> <name>: PASS/FAIL`` to the real stdout so
the lines are visible even under pytest's capture.
"""

import json
import time

import numpy as np

from shpqm import (cli, dirac as dr, evolution as ev, interference as itf,
                   little_group as lg, minkowski as mk, sl2c,
                   spin_coupling as sc, verification as vf)
from shpqm.constants import H_EV_FS, HBAR_EV_FS


def report(capfd, number, name, passed):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}"
    with capfd.disabled():
        print(line, flush=True)
    assert passed, line


def mdev(x):
    return float(np.max(np.abs(x)))


def unit(v):
    return v / np.sqrt(-mk.dot(v, v))


def test_criterion_1_operator_algebra(capfd):
    start = time.perf_counter()
    results = vf.operator_algebra_suite(seed=42, samples=1000)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results if not r.informational)
    ok = ok and elapsed < 30.0
    report(capfd, 1, "operator-algebra identities", ok)


def test_criterion_2_little_group(capfd):
    results = vf.little_group_suite(seed=42, samples=1000)
    ok = all(r.passed for r in results)

    # orthogonal-boost angle against the 4x4 polar-decomposition oracle
    rng = np.random.default_rng(7)
    for _ in range(100):
        w1, w2 = rng.uniform(0.1, 2.0, size=2)
        a = sl2c.sl2c_boost("x", w1) @ sl2c.sl2c_boost("y", w2)
        lam = sl2c.spinor_map(a)
        n = unit(mk.apply(lam, mk.N0))
        angle, _ = lg.su2_angle_axis(lg.wigner_d(a, n))
        vals, vecs = np.linalg.eigh(lam.T @ lam)
        b = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
        r = lam @ np.linalg.inv(b)
        oracle = np.arccos(np.clip((np.trace(r[1:, 1:]) - 1) / 2, -1, 1))
        ok = ok and abs(angle - oracle) <= 1e-9

    # generator consistency: the orthogonal-boost angle is second order in
    # the rapidity, so halving the rapidity divides the angle by ~4
    angles = []
    for eps in (2e-2, 1e-2, 5e-3):
        a = sl2c.sl2c_boost("x", eps) @ sl2c.sl2c_boost("y", eps)
        n = unit(mk.apply(sl2c.spinor_map(a), mk.N0))
        angle, _ = lg.su2_angle_axis(lg.wigner_d(a, n))
        angles.append(angle)
    for big, small in zip(angles[:-1], angles[1:]):
        ok = ok and abs(big / small - 4.0) < 0.05
    report(capfd, 2, "little-group suite", ok)


def test_criterion_3_rest_frame_reductions(capfd):
    results = vf.rest_frame_suite()
    ok = all(r.passed for r in results)

    # helicity reduction along a monotone limit sequence toward the rest
    # fiber
    rng = np.random.default_rng(8)
    p = mk.random_four_vector(rng, 2.0)
    p[0] = abs(p[0]) + 3.0
    sp = p[1:] / np.linalg.norm(p[1:])
    sig_p = np.einsum("i,iab->ab", sp, sl2c.PAULI[1:])
    block = np.block([[sig_p, np.zeros((2, 2))], [np.zeros((2, 2)), sig_p]])
    plus_limit = 0.5 * (np.eye(4) - block)
    minus_limit = 0.5 * (np.eye(4) + block)
    prev = np.inf
    for w in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.001):
        n = mk.four_vector(np.cosh(w), 0.0, 0.0, np.sinh(w))
        plus, minus = dr.projections(p, n)["helicity"]
        dev = max(mdev(plus - plus_limit), mdev(minus - minus_limit))
        ok = ok and dev < prev
        prev = dev
    ok = ok and prev < 1e-3
    report(capfd, 3, "rest-frame reductions", ok)


def test_criterion_4_norm_equality(capfd):
    results = vf.norm_suite(seed=42, samples=1000)
    report(capfd, 4, "sector-norm equality and invariance", all(
        r.passed for r in results))


def test_criterion_5_spin_coupling(capfd):
    ok = all(r.passed for r in vf.coupling_suite(seed=42, samples=200))

    # pi rotation about the fiber y-axis equals minus the exchange on the
    # interchange-relevant (total magnetic number zero) product states
    rng = np.random.default_rng(9)
    d = sc._rep_matrix(0.5, sl2c.sl2c_rotation("y", np.pi))
    for _ in range(200):
        ph1, ph2 = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        up = sc.spin_half(ph1, 0)
        down = sc.spin_half(0, ph2)
        for a, b in ((up, down), (down, up)):
            prod = np.outer(a.coefficients, b.coefficients)
            ok = ok and mdev(d @ prod @ d.T + prod.T) < 1e-10

    # fiber-mismatch coupling raises the dedicated error
    try:
        sc.couple_two(sc.spin_half(1, 0),
                      sc.spin_half(1, 0, mk.random_unit_timelike(rng)), 1, 1)
        ok = False
    except sc.FiberMismatchError:
        pass
    report(capfd, 5, "spin coupling", ok)


def test_criterion_6_evolution(capfd):
    ok = True
    # quantum norm drift over 1e4 free-evolution steps
    packet = ev.MomentumPacket.gaussian_energy_axis(
        35.0, 0.5, [0.0, 0.0, 1.0], 511000.0)
    for _ in range(10000):
        packet = ev.free_evolve(packet, 0.37)
    ok = ok and abs(packet.norm_squared - 1.0) < 1e-10

    # classical K conservation over 1e4 RK4 steps (relative 1e-8); dtau
    # validated by step halving
    model = ev.PotentialModel(2.0, lambda s: 0.1 * s**2, lambda s: 0.2 * s)
    start = ev.PhasePoint(mk.four_vector(0.0, 0.1, 0.2, 0.3),
                          mk.four_vector(0.0, 0.12, -0.06, 0.21))
    coarse = ev.classical_integrate(start, model, 2e-3, 10000)
    fine = ev.classical_integrate(start, model, 1e-3, 20000)
    ok = ok and mdev(coarse.x[-1] - fine.x[-1]) < 1e-9
    k0 = model.hamiltonian(coarse.x[0], coarse.p[0])
    k1 = model.hamiltonian(coarse.x[-1], coarse.p[-1])
    ok = ok and abs(k1 - k0) / max(abs(k0), 1.0) < 1e-8

    # free-trajectory identities to 1e-12
    free = ev.FreeModel(2.0)
    p0 = mk.four_vector(3.0, 0.4, -0.2, 0.7)
    traj = ev.classical_integrate(ev.PhasePoint(np.zeros(4), p0), free,
                                  0.05, 200)
    dx = traj.x[-1] - traj.x[0]
    ok = ok and mdev(dx[1:] / dx[0] - p0[1:] / p0[0]) < 1e-12
    m = np.sqrt(-mk.dot(p0, p0))
    ds = np.sqrt(-mk.dot(dx, dx))
    ok = ok and abs(ds / traj.tau[-1] - m / 2.0) < 1e-12

    # Gaussian time-energy product 0.5 +- 1e-9 (natural units)
    _, _, prod = ev.time_energy_uncertainty(
        ev.MomentumPacket.gaussian_energy_axis(35.0, 0.5, [0.0, 0.0, 1.0],
                                               511000.0))
    ok = ok and abs(prod - 0.5) < 1e-9
    report(capfd, 6, "evolution", ok)


def reference_config(**overrides):
    params = dict(e1_ev=35.0, e2_ev=39.2, t_emit1_fs=0.0, t_emit2_fs=0.75,
                  sigma_t_fs=0.5)
    params.update(overrides)
    return itf.EmissionConfig(**params)


def test_criterion_7_interference_reproduction(capfd):
    ok = True
    start = time.perf_counter()
    res = itf.scan_interference(reference_config(), -4.0, 4.0, 4001)
    ok = ok and time.perf_counter() - start < 5.0
    ok = ok and abs(res.fringe_period_fs - H_EV_FS / 4.2) < 1e-3
    ok = ok and abs(res.fringe_period_fs - 0.9847) < 1e-3

    res34 = itf.scan_interference(reference_config(e2_ev=69.0), -2.0, 2.0, 8001)
    ok = ok and abs(res34.fringe_period_fs - 0.1216) < 5e-4

    cfg = reference_config()
    for dt in np.linspace(-3.0, 3.0, 25):
        closed = itf.coincidence_probability(cfg, dt)
        quad = itf.coincidence_probability_quadrature(cfg, dt)
        ok = ok and abs(closed - quad) <= 1e-6 * max(abs(quad), 1e-12)

    shifted = reference_config(e1_ev=35.0 + 511000.0, e2_ev=39.2 + 511000.0)
    grid = np.linspace(-4.0, 4.0, 2001)
    ok = ok and mdev(itf.coincidence_probability(cfg, grid)
                     - itf.coincidence_probability(shifted, grid)) < 1e-10
    report(capfd, 7, "interference reproduction", ok)


def test_criterion_8_feasibility_report(capfd):
    rep = itf.feasibility_report(reference_config())
    golden = {
        "computed_min_delta_e_ev": HBAR_EV_FS / 1.5,
        "quoted_threshold_ev": 1e-3,
        "quoted_linewidth_ev": 1e-6,
    }
    ok = all(abs(rep[k] - v) < 1e-12 for k, v in golden.items())
    ok = ok and abs(rep["computed_min_delta_e_ev"] - 0.4388) < 1e-3
    ok = ok and rep["threshold_discrepancy"] is True
    report(capfd, 8, "feasibility report", ok)


def test_criterion_9_determinism(tmp_path, capfd):
    cfg_path = tmp_path / "scan.cfg"
    cfg_path.write_text("""\
e1_ev = 35.0
e2_ev = 39.2
t_emit1_fs = 0.0
t_emit2_fs = 0.75
sigma_t_fs = 0.5
dt_min_fs = -4.0
dt_max_fs = 4.0
samples = 2001
""", encoding="utf-8")
    blobs = []
    for tag in ("a", "b"):
        v = tmp_path / f"verify_{tag}.json"
        s = tmp_path / f"scan_{tag}.csv"
        j = tmp_path / f"scan_{tag}.json"
        assert cli.main(["verify", "--samples", "40", "--seed", "123",
                         "--out", str(v)]) == 0
        assert cli.main(["interference", "--config", str(cfg_path),
                         "--format", "csv", "--out", str(s)]) == 0
        assert cli.main(["interference", "--config", str(cfg_path),
                         "--out", str(j)]) == 0
        blobs.append((v.read_bytes(), s.read_bytes(), j.read_bytes()))
    ok = blobs[0] == blobs[1]
    ok = ok and json.loads(blobs[0][2].decode()) is not None
    report(capfd, 9, "determinism", ok)
