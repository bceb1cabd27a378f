"""Tests for classical and quantum evolution in the invariant parameter."""

from pathlib import Path

import numpy as np
import pytest

from shpqm import cli, evolution as ev, minkowski as mk


def test_free_trajectory_is_linear():
    model = ev.FreeModel(2.0)
    x0 = mk.four_vector(0.0, 1.0, 2.0, 3.0)
    p0 = mk.four_vector(3.0, 0.4, -0.2, 0.7)
    traj = ev.classical_integrate(ev.PhasePoint(x0, p0), model, 0.01, 1000)
    assert np.max(np.abs(traj.x[-1] - (x0 + p0 * 10.0 / 2.0))) < 1e-10
    assert np.max(np.abs(traj.p[-1] - p0)) == 0.0


def test_velocity_ratio_along_free_trajectory():
    # d(position)/d(coordinate time) = spatial momentum / energy
    model = ev.FreeModel(1.5)
    x0 = np.zeros(4)
    p0 = mk.four_vector(2.5, 0.3, -0.6, 0.9)
    traj = ev.classical_integrate(ev.PhasePoint(x0, p0), model, 0.02, 500)
    for a, b in zip(traj.x[:-1], traj.x[1:]):
        v = (b[1:] - a[1:]) / (b[0] - a[0])
        assert np.max(np.abs(v - p0[1:] / p0[0])) < 1e-12


def test_proper_time_rate_along_free_trajectory():
    # ds/dtau = m / M along a straight free trajectory
    mass_param = 2.0
    model = ev.FreeModel(mass_param)
    p0 = mk.four_vector(3.0, 0.4, -0.2, 0.7)
    m = np.sqrt(-mk.dot(p0, p0))
    traj = ev.classical_integrate(
        ev.PhasePoint(np.zeros(4), p0), model, 0.05, 200)
    dx = traj.x[-1] - traj.x[0]
    ds = np.sqrt(-mk.dot(dx, dx))
    assert ds / (traj.tau[-1] - traj.tau[0]) == pytest.approx(
        m / mass_param, abs=1e-12)


def test_hamiltonian_conservation_with_potential():
    # purely spatial initial data keeps the quartic invariant potential in
    # its stable (positive x.x) regime over the whole run
    model = ev.PotentialModel(2.0, lambda s: 0.1 * s**2, lambda s: 0.2 * s)
    start = ev.PhasePoint(mk.four_vector(0.0, 0.1, 0.2, 0.3),
                          mk.four_vector(0.0, 0.12, -0.06, 0.21))
    traj = ev.classical_integrate(start, model, 1e-3, 10000)
    k0 = model.hamiltonian(traj.x[0], traj.p[0])
    k1 = model.hamiltonian(traj.x[-1], traj.p[-1])
    assert abs(k1 - k0) / max(abs(k0), 1.0) < 1e-8


def test_step_rejection():
    # a violently steep potential at a large step must trip the drift guard
    model = ev.PotentialModel(1.0, lambda s: 100.0 * s**2,
                              lambda s: 200.0 * s)
    start = ev.PhasePoint(mk.four_vector(0.0, 3.0, 0.0, 0.0),
                          mk.four_vector(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ev.StepRejectionError):
        ev.classical_integrate(start, model, 0.5, 100)


def _reference_run(start, model, dtau, steps):
    """Reference RK4 written out one state at a time: lists tau, x, p and the
    K of each state; raises like classical_integrate."""
    def deriv(x, p):
        return model.dx_dtau(x, p), model.dp_dtau(x, p)

    tau, xs, ps = [start.tau], [start.x], [start.p]
    for _ in range(steps):
        x0, p0 = xs[-1], ps[-1]
        k1x, k1p = deriv(x0, p0)
        k2x, k2p = deriv(x0 + 0.5 * dtau * k1x, p0 + 0.5 * dtau * k1p)
        k3x, k3p = deriv(x0 + 0.5 * dtau * k2x, p0 + 0.5 * dtau * k2p)
        k4x, k4p = deriv(x0 + dtau * k3x, p0 + dtau * k3p)
        xs.append(x0 + dtau / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x))
        ps.append(p0 + dtau / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p))
        tau.append(tau[-1] + dtau)
        if not (np.all(np.isfinite(xs[-1])) and np.all(np.isfinite(ps[-1]))):
            raise ValueError("phase point must be finite")
        k_old, k_new = model.hamiltonian(x0, p0), model.hamiltonian(xs[-1], ps[-1])
        scale = max(abs(k_old), 1.0)
        if abs(k_new - k_old) > 1e-6 * scale:
            raise ev.StepRejectionError(
                f"hamiltonian drifted by {abs(k_new - k_old):.3e} in one step"
                f" (scale {scale:.3e}); reduce dtau")
    return tau, xs, ps, [model.hamiltonian(x, p) for x, p in zip(xs, ps)]


# inputs on which a change in the order of the RK4 sums changes the floats
@pytest.mark.parametrize("model, start, dtau", [
    (ev.FreeModel(0.7), ev.PhasePoint(mk.four_vector(0.3, 1.0, 2.0, 3.0),
                                      mk.four_vector(3.1, -0.0, -0.23, 0.71)), 0.013),
    (ev.PotentialModel(2.0, lambda s: 0.1 * s**2, lambda s: 0.2 * s),
     ev.PhasePoint(mk.four_vector(0.0, 0.1, 0.2, 0.3),
                   mk.four_vector(0.0, 0.12, -0.06, 0.21), tau=1.5), 0.05),
], ids=["free", "potential"])
def test_integrate_equals_reference_rk4_bit_for_bit(model, start, dtau):
    traj = ev.classical_integrate(start, model, dtau, 300)
    tau, xs, ps, ks = _reference_run(start, model, dtau, 300)
    for got, want in ((traj.tau, tau), (traj.x, xs), (traj.p, ps), (traj.k, ks)):
        assert np.asarray(want).tobytes() == got.tobytes()
    step = ev.classical_integrate(start, model, dtau, 1)
    assert (step.tau[1], step.x[1].tobytes(), step.p[1].tobytes()) == (
        tau[1], xs[1].tobytes(), ps[1].tobytes())
    empty = ev.classical_integrate(start, model, dtau, 0)
    assert empty.x.shape == (1, 4) and empty.k.tolist() == ks[:1]


def _error(run):
    try:
        run()
    except (ValueError, ev.StepRejectionError) as exc:
        return exc
    return None


def test_drift_rejection_at_the_same_step_as_the_reference():
    model = ev.PotentialModel(1.0, lambda s: 0.5 * s**2, lambda s: s)
    start = ev.PhasePoint(mk.four_vector(0.0, 1.0, 0.0, 0.0),
                          mk.four_vector(1.0, 0.0, 0.5, 0.0))
    step = next(n for n in range(1, 200)
                if _error(lambda: _reference_run(start, model, 0.05, n)))
    assert step > 1
    assert _error(lambda: ev.classical_integrate(start, model, 0.05, step - 1)) is None
    got = _error(lambda: ev.classical_integrate(start, model, 0.05, step))
    want = _error(lambda: _reference_run(start, model, 0.05, step))
    assert type(got) is ev.StepRejectionError
    assert str(got) == str(want)


def _rk4_loop(tau0, x0, p0, model, dtau, steps):
    """classical_integrate as it stepped every model before the free flow:
    one _rk4 call per step, from a state that may be a stack of runs sharing
    the model (tau0 (n,), x0 and p0 (n, 4)); the checks are left out."""
    tau, xs, ps = [tau0], [x0], [p0]
    for _ in range(steps):
        x, p = ev._rk4(model, xs[-1], ps[-1], dtau)
        tau.append(tau[-1] + dtau)
        xs.append(x)
        ps.append(p)
    return np.array(tau), np.array(xs), np.array(ps)


def test_free_flow_equals_the_rk4_loop_bit_for_bit():
    # 20 runs of 20,000 steps, stepped by the loop in two stacks of 10 that
    # share a mass and a dtau; x scales from 1e-3 to 1e3, and each run has a
    # -0.0 in x and in p
    rng = np.random.default_rng(20)
    steps = 20_000
    for _ in range(2):
        model = ev.FreeModel(rng.uniform(0.3, 3.0))
        dtau = rng.uniform(1e-4, 0.1)
        xs = rng.normal(size=(10, 4)) * np.logspace(-3, 3, 10)[:, None]
        ps = rng.normal(size=(10, 4))
        xs[np.arange(10), rng.integers(0, 4, 10)] = -0.0
        ps[np.arange(10), rng.integers(0, 4, 10)] = -0.0
        tau0 = rng.uniform(-5.0, 5.0, 10)
        tau, x, p = _rk4_loop(tau0, xs, ps, model, dtau, steps)
        for j in range(10):
            run = ev.classical_integrate(ev.PhasePoint(xs[j], ps[j], tau0[j]), model,
                                         dtau, steps)
            assert run.tau.tobytes() == tau[:, j].tobytes()
            assert run.x.tobytes() == x[:, j].tobytes()
            assert run.p.tobytes() == p[:, j].tobytes()
            zero = ps[j] == 0.0     # -0.0 in p0, +0.0 after a step
            assert np.signbit(run.p[0, zero]).all() and not np.signbit(run.p[1:, zero]).any()
            k = [model.hamiltonian(xi, pi) for xi, pi in zip(x[:, j], p[:, j])]
            assert run.k.tobytes() == np.array(k).tobytes()


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_free_flow_short_runs(steps):
    model = ev.FreeModel(0.7)
    start = ev.PhasePoint(mk.four_vector(0.3, -0.0, 2.0, 3.0),
                          mk.four_vector(3.1, -0.0, -0.23, 0.71), tau=0.25)
    run = ev.classical_integrate(start, model, 0.013, steps)
    tau, xs, ps, ks = _reference_run(start, model, 0.013, steps)
    assert run.x.shape == (steps + 1, 4)
    for got, want in ((run.tau, tau), (run.x, xs), (run.p, ps), (run.k, ks)):
        assert np.asarray(want).tobytes() == got.tobytes()


def test_potential_model_is_stepped_not_flowed():
    # the potential bends the path: RK4 steps match the reference loop, and
    # the path leaves the straight line that the free flow would draw
    model = ev.PotentialModel(2.0, lambda s: 0.1 * s**2, lambda s: 0.2 * s)
    assert model.exact_flow is None and ev.FreeModel(2.0).exact_flow is not None
    start = ev.PhasePoint(mk.four_vector(0.0, 0.1, 0.2, 0.3),
                          mk.four_vector(0.0, 0.12, -0.06, 0.21))
    run = ev.classical_integrate(start, model, 0.05, 400)
    tau, xs, ps = _rk4_loop(start.tau, start.x, start.p, model, 0.05, 400)
    assert (run.tau.tobytes(), run.x.tobytes(), run.p.tobytes()) == (
        tau.tobytes(), xs.tobytes(), ps.tobytes())
    line = start.x + np.outer(run.tau, start.p) / 2.0
    assert np.max(np.abs(run.x - line)) > 1e-3
    assert np.max(np.abs(run.p - start.p)) > 1e-3


class _SignedZeroModel(ev.FreeModel):
    """The free flow with a K that tells -0.0 from 0.0 in p^x: the one drift
    the flow can meet is in its first step, which turns -0.0 into 0.0."""

    def hamiltonian(self, x, p):
        return super().hamiltonian(x, p) + (1.0 if np.signbit(p[1]) else 0.0)


def test_flow_drift_rejection_as_the_reference():
    model = _SignedZeroModel(1.0)
    start = ev.PhasePoint(np.zeros(4), mk.four_vector(2.0, -0.0, 0.5, 0.0))
    got = _error(lambda: ev.classical_integrate(start, model, 0.01, 100))
    want = _error(lambda: _reference_run(start, model, 0.01, 1))
    assert type(got) is ev.StepRejectionError
    assert str(got) == str(want)
    assert _error(lambda: ev.classical_integrate(start, model, 0.01, 0)) is None


@pytest.mark.parametrize("model, start, dtau", [
    # x overflows while K stays finite: only the finiteness check sees it
    (ev.FreeModel(1e-300), ev.PhasePoint(np.zeros(4), mk.four_vector(1e-10, 0, 0, 0)),
     1e20),
    # x overflows late in a long free run
    (ev.FreeModel(1.0), ev.PhasePoint(np.zeros(4), mk.four_vector(1e300, 0, 0, 0)),
     1e5),
    # p overflows and K with it: the drift check fires on a non-finite state
    (ev.PotentialModel(1.0, lambda s: 0.0, lambda s: -1e300),
     ev.PhasePoint(mk.four_vector(0.0, 1.0, 0.0, 0.0), np.zeros(4)),
     1.0),
], ids=["x-overflow", "x-overflow-late", "p-overflow"])
def test_non_finite_state_raises_value_error(model, start, dtau):
    steps = 3 if dtau != 1e5 else 2000
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (lambda: _reference_run(start, model, dtau, steps),
                    lambda: ev.classical_integrate(start, model, dtau, steps)):
            with pytest.raises(ValueError, match="phase point must be finite"):
                run()


def test_overflowing_hamiltonian_or_bad_mass_raises_value_error():
    # p.p overflows while x and p stay finite
    start = ev.PhasePoint(np.zeros(4), mk.four_vector(1e200, 0.0, 0.0, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="hamiltonian must be finite"):
            ev.classical_integrate(start, ev.FreeModel(1.0), 0.1, 5)
    for mass in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mass parameter must be positive and finite"):
            ev.FreeModel(mass)


def test_poisson_canonical_pairs():
    at = ev.PhasePoint(mk.four_vector(0.3, 1.0, 2.0, 3.0),
                       mk.four_vector(3.0, 0.4, -0.2, 0.7))
    for mu in range(4):
        for nu in range(4):
            f = lambda x, p, mu=mu: x[mu]
            g = lambda x, p, nu=nu: mk.lower(p)[nu]
            expect = 1.0 if mu == nu else 0.0
            assert ev.poisson(f, g, at) == pytest.approx(expect, abs=1e-8)


def test_poisson_antisymmetry():
    model = ev.FreeModel(2.0)
    at = ev.PhasePoint(mk.four_vector(0.3, 1.0, 2.0, 3.0),
                       mk.four_vector(3.0, 0.4, -0.2, 0.7))
    k = lambda x, p: model.hamiltonian(x, p)
    assert ev.poisson(k, k, at) == pytest.approx(0.0, abs=1e-12)


def test_poisson_generates_the_flow():
    model = ev.FreeModel(2.0)
    start = ev.PhasePoint(mk.four_vector(0.3, 1.0, 2.0, 3.0),
                          mk.four_vector(3.0, 0.4, -0.2, 0.7))
    f = lambda x, p: x[1] * p[2]
    k = lambda x, p: model.hamiltonian(x, p)
    bracket = ev.poisson(f, k, start)
    dtau = 1e-3
    after = ev.classical_integrate(start, model, dtau, 1)
    numeric = (f(after.x[1], after.p[1]) - f(start.x, start.p)) / dtau
    assert bracket == pytest.approx(numeric, abs=1e-6)


def make_packet():
    return ev.MomentumPacket.gaussian_energy_axis(
        e_center=35.0, e_width=0.5, spatial_p=[0.0, 0.0, 1.0],
        mass_param=511000.0)


def test_packet_normalization_enforced():
    packet = make_packet()
    assert packet.norm_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ev.MomentumPacket(packet.momenta, 2.0 * packet.amplitudes,
                          packet.weights, packet.mass_param, packet.n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_packet_refuses_non_finite_momenta(bad):
    packet = make_packet()
    momenta = packet.momenta.copy()
    momenta[3, 2] = bad
    with pytest.raises(ValueError, match="momenta must be finite"):
        ev.MomentumPacket(momenta, packet.amplitudes, packet.weights,
                          packet.mass_param, packet.n)


@pytest.mark.parametrize("mass", [np.nan, np.inf, 0.0, -1.0])
def test_packet_refuses_a_mass_not_positive_and_finite(mass):
    # a NaN mass used to pass and surface as a bogus "undersamples" error
    with pytest.raises(ValueError, match="mass parameter must be positive"):
        ev.MomentumPacket.gaussian_energy_axis(35.0, 0.5, [0.0, 0.0, 1.0], mass)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_packet_refuses_a_non_finite_tau(tau):
    packet = make_packet()
    with pytest.raises(ValueError, match="tau must be a finite real number"):
        ev.MomentumPacket(packet.momenta, packet.amplitudes, packet.weights,
                          packet.mass_param, packet.n, tau)


def test_free_evolution_is_unitary():
    packet = make_packet()
    for _ in range(100):
        packet = ev.free_evolve(packet, 7.3)
    assert abs(packet.norm_squared - 1.0) < 1e-10
    base = make_packet()
    assert np.max(np.abs(np.abs(packet.amplitudes)
                         - np.abs(base.amplitudes))) < 1e-12


def test_free_evolution_many_steps_norm_drift():
    packet = make_packet()
    for _ in range(10000):
        packet = ev.free_evolve(packet, 0.11)
    assert abs(packet.norm_squared - 1.0) < 1e-10


def test_free_evolution_zero_step_identity():
    packet = make_packet()
    evolved = ev.free_evolve(packet, 0.0)
    assert np.array_equal(evolved.amplitudes, packet.amplitudes)


def test_plane_wave_phase():
    # on-shell sample p.p = -m^2 picks up exp(+i m^2 dtau / 2M)
    m, mass_param, dtau = 2.0, 3.0, 0.7
    p = mk.four_vector(np.sqrt(m**2 + 1.0), 0.0, 0.0, 1.0)
    plane_wave = ev.MomentumPacket(p[None, :], np.ones(1, complex), np.ones(1),
                                   mass_param, mk.N0)
    (phase,) = ev.free_evolve(plane_wave, dtau).amplitudes
    assert phase == pytest.approx(np.exp(1j * m**2 * dtau / (2 * mass_param)),
                                  abs=1e-12)


def test_two_body_evolution_factorizes():
    pa, pb = make_packet(), ev.MomentumPacket.gaussian_energy_axis(
        e_center=69.0, e_width=0.7, spatial_p=[0.0, 0.0, 2.0],
        mass_param=511000.0)
    joint_before = np.outer(pa.amplitudes, pb.amplitudes)
    joint_after = np.outer(ev.free_evolve(pa, 5.5).amplitudes,
                           ev.free_evolve(pb, 5.5).amplitudes)
    # evolving the joint table directly with the summed phases agrees
    ppa = np.einsum("ka,ab,kb->k", pa.momenta, mk.METRIC, pa.momenta)
    ppb = np.einsum("ka,ab,kb->k", pb.momenta, mk.METRIC, pb.momenta)
    phases = np.exp(-1j * (ppa[:, None] + ppb[None, :]) * 5.5
                    / (2 * 511000.0))
    assert np.max(np.abs(joint_after - joint_before * phases)) < 1e-12


def test_mass_moments():
    packet = make_packet()
    mean, var = ev.mass_moments(packet)
    pbar = mk.four_vector(35.0, 0.0, 0.0, 1.0)
    assert mean == pytest.approx(-mk.dot(pbar, pbar), abs=3 * np.sqrt(var))
    # single on-shell sample
    p = mk.four_vector(np.sqrt(4.0 + 1.0), 0.0, 0.0, 1.0)
    single = ev.MomentumPacket(p[None, :], np.array([1.0 + 0j]),
                               np.array([1.0]), 3.0, mk.N0)
    mean, var = ev.mass_moments(single)
    assert mean == pytest.approx(4.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_gaussian_saturates_time_energy_uncertainty():
    packet = make_packet()
    dt, de, prod = ev.time_energy_uncertainty(packet)
    assert de == pytest.approx(0.5, abs=1e-6)
    assert prod == pytest.approx(0.5, abs=1e-9)


def test_time_spread_of_a_chirped_packet_and_its_nyquist_guard():
    # dt(tau) = sqrt(1/(4 sigma_E^2) + sigma_E^2 tau^2 / M^2) for a free
    # Gaussian; the grid's phase step is max|E| |tau| dE / M (4 * tau / 31.875 here)
    sigma, mass = 0.5, 1.0

    def evolved(e_center, tau):
        packet = ev.MomentumPacket.gaussian_energy_axis(
            e_center, sigma, [0.0, 0.0, 0.0], mass)
        return ev.free_evolve(packet, tau)

    for tau in (-20.0, 5.0, 10.0, 20.0, 24.0):
        want = np.sqrt(1 / (4 * sigma**2) + sigma**2 * tau**2 / mass**2)
        dt, _, _ = ev.time_energy_uncertainty(evolved(0.0, tau))
        assert dt == pytest.approx(want, rel=1e-9)
    # just past the limit (3.26 rad), and two cases that gave 46.5 and 67.2
    # without the guard where the spread is 50.0
    for e_center, tau in ((0.0, 26.0), (0.0, 100.0), (35.0, 100.0)):
        with pytest.raises(ValueError, match="undersamples"):
            ev.time_energy_uncertainty(evolved(e_center, tau))


def test_chirp_guard_reads_the_evolution_the_packet_has_had():
    # a packet built at tau = -100 has no phase yet; evolved by 100 it has
    # the chirp of tau = 100 (12.55 rad per sample), though its tau reads 0;
    # a guard on tau would pass it and read a spread of 46.51, not 50.01
    built = ev.MomentumPacket.gaussian_energy_axis(0.0, 0.5, np.zeros(3), 1.0, tau=-100.0)
    assert built.evolved_tau == 0.0
    packet = ev.free_evolve(ev.free_evolve(built, 40.0), 60.0)
    assert (packet.tau, packet.evolved_tau) == (0.0, 100.0)
    with pytest.raises(ValueError, match="undersamples .* after tau = 100.0"):
        ev.time_energy_uncertainty(packet)


def test_separated_gaussians_widen_time_spread():
    # superpose two time-shifted copies: energy width similar, time width up
    base = make_packet()
    e = base.momenta[:, 0]
    for sep in (2.0, 6.0):
        amps = base.amplitudes * np.cos(e * sep / 2.0)
        amps = amps / np.sqrt(
            ev.MomentumPacket.norm_squared_of(amps, base.weights))
        shifted = ev.MomentumPacket(base.momenta, amps, base.weights,
                                    base.mass_param, base.n)
        dt, de, prod = ev.time_energy_uncertainty(shifted)
        assert prod > 0.5
        assert dt > sep / 2.0 * 0.9


def test_time_spread_of_a_packet_shifted_past_the_window():
    # free evolution shifts the profile by E_c tau / M (175 and 700 here) on a
    # window 2 pi / dE = 200 wide; the spread does not depend on the shift,
    # and the chirp max|E - E_c| |tau| dE / M is 0.63 and 2.51 rad
    sigma, mass = 0.5, 1.0
    for tau, want in ((5.0, 2.6925824035673), (20.0, 10.0499)):
        packet = ev.free_evolve(ev.MomentumPacket.gaussian_energy_axis(
            35.0, sigma, [0.0, 0.0, 0.0], mass), tau)
        dt, _, _ = ev.time_energy_uncertainty(packet)
        assert dt == pytest.approx(np.sqrt(1 / (4 * sigma**2) + sigma**2 * tau**2 / mass**2),
                                   rel=1e-9)
        assert dt == pytest.approx(want, rel=1e-5)
    # a packet built at tau = 100/35 carries no phase yet: its profile sits
    # at t = 0, not at the window's edge where the shift E_c tau / M would put it
    built = ev.MomentumPacket.gaussian_energy_axis(35.0, sigma, [0.0, 0.0, 0.0], mass,
                                                   tau=100.0 / 35.0)
    assert ev.time_energy_uncertainty(built)[0] == pytest.approx(1 / (2 * sigma), rel=1e-9)


def test_free_evolve_refuses_a_non_finite_phase():
    with np.errstate(over="ignore", invalid="ignore"):
        for dtau in (np.nan, np.inf, 1e308):
            with pytest.raises(ValueError, match="phase is not finite"):
                ev.free_evolve(make_packet(), dtau)


def config_packet():
    """The packet of configs/evolve_quantum.cfg and its dtau."""
    values = cli.load_config(Path(__file__).resolve().parents[1] / "configs"
                             / "evolve_quantum.cfg")
    get = lambda key: float(values.get(key, 0.0))
    packet = ev.MomentumPacket.gaussian_energy_axis(
        get("e_center"), get("e_width"), [get("px"), get("py"), get("pz")],
        get("mass_param"), num=int(values["num"]))
    return packet, get("dtau")


def test_sweep_with_cached_facts_equals_rebuilt_packets_bit_for_bit():
    # the reference rebuilds and validates a packet at every step, so it
    # computes p.p and the energy grid afresh each time
    packet, dtau = config_packet()
    rebuilt = first = packet
    conserved = _distribution_moments(first)
    for step in range(2000):
        packet = ev.free_evolve(packet, dtau)
        pp = np.einsum("ka,ab,kb->k", rebuilt.momenta, mk.METRIC, rebuilt.momenta)
        phase = np.exp(-1j * pp * dtau / (2.0 * rebuilt.mass_param))
        rebuilt = ev.MomentumPacket(rebuilt.momenta, rebuilt.amplitudes * phase,
                                    rebuilt.weights, rebuilt.mass_param, rebuilt.n,
                                    rebuilt.tau + dtau)
        _assert_conserved(packet, rebuilt, conserved)
        if step % 250 == 0:
            assert ev.time_energy_uncertainty(packet)[0] == \
                ev.time_energy_uncertainty(rebuilt)[0]
    assert (packet.amplitudes.tobytes(), packet.tau) == (rebuilt.amplitudes.tobytes(),
                                                        rebuilt.tau)
    assert packet.p_dot_p is first.p_dot_p     # carried along, not recomputed


def _distribution_moments(packet):
    """(mass mean, mass variance, dE) of `packet`, the facts of w |a|^2."""
    return (*ev.mass_moments(packet), ev.time_energy_uncertainty(packet)[1])


def _assert_conserved(packet, rebuilt, conserved):
    """The mass moments and dE of `packet` are `conserved`, those of the
    sweep's first packet, bit for bit, and within 1e-12 relative of those of
    `rebuilt`, a validated packet with the same amplitudes."""
    got = _distribution_moments(packet)
    assert got == conserved
    np.testing.assert_allclose(got, _distribution_moments(rebuilt), rtol=1e-12, atol=0)


def _rebuilt(packet, dtau):
    """`packet` evolved by `dtau` as a new, validated packet: p.p and the
    phase computed afresh."""
    pp = np.einsum("ka,ab,kb->k", packet.momenta, mk.METRIC, packet.momenta)
    phase = np.exp(-1j * pp * dtau / (2.0 * packet.mass_param))
    return ev.MomentumPacket(packet.momenta, packet.amplitudes * phase, packet.weights,
                             packet.mass_param, packet.n, packet.tau + dtau)


def test_sweep_with_mixed_dtau_equals_rebuilt_packets_bit_for_bit():
    # the phase of the last dtau is kept: a repeated dtau reuses it, any
    # other (0.0 after -0.0 too) computes its own
    packet = rebuilt = config_packet()[0]
    conserved = _distribution_moments(packet)
    for dtau in (10.0, 10.0, 3.5, 10.0, 0.0, -0.0) * 3:
        packet, rebuilt = ev.free_evolve(packet, dtau), _rebuilt(rebuilt, dtau)
        assert (packet.amplitudes.tobytes(), packet.tau) == (rebuilt.amplitudes.tobytes(),
                                                            rebuilt.tau)
        _assert_conserved(packet, rebuilt, conserved)
        assert ev.time_energy_uncertainty(packet)[0] == ev.time_energy_uncertainty(rebuilt)[0]


def test_free_phase_is_reused_only_for_the_same_bits_of_dtau():
    # exp(-i p.p (+-0.0) / 2M) is 1 + 0j for either sign, so only the
    # cache itself shows that 0.0 and -0.0 are different keys
    packet = config_packet()[0]
    phase = packet._free_phase(10.0)
    assert packet._free_phase(10.0) is phase
    zero = packet._free_phase(0.0)
    assert zero is not phase and packet._free_phase(0.0) is zero
    assert packet._free_phase(-0.0) is not zero


def test_a_non_finite_phase_raises_after_a_cached_one():
    packet = ev.free_evolve(make_packet(), 10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for dtau in (np.nan, np.nan, 1e308, 1e308):
            with pytest.raises(ValueError, match="phase is not finite"):
                ev.free_evolve(packet, dtau)
    assert ev.free_evolve(packet, 10.0).amplitudes.tobytes() == \
        _rebuilt(packet, 10.0).amplitudes.tobytes()


def test_chains_that_branch_from_one_packet_get_their_own_phases():
    root = config_packet()[0]
    a = ev.free_evolve(root, 10.0)
    b = ev.free_evolve(root, 3.5)
    again = ev.free_evolve(root, 10.0)
    a2, b2 = ev.free_evolve(a, 10.0), ev.free_evolve(b, 3.5)
    b3, a3 = ev.free_evolve(b2, 10.0), ev.free_evolve(a2, 3.5)
    for got, steps in ((a, [10.0]), (b, [3.5]), (again, [10.0]), (a2, [10.0, 10.0]),
                       (b2, [3.5, 3.5]), (a3, [10.0, 10.0, 3.5]), (b3, [3.5, 3.5, 10.0])):
        want = root
        for dtau in steps:
            want = _rebuilt(want, dtau)
        assert (got.amplitudes.tobytes(), got.tau) == (want.amplitudes.tobytes(), want.tau)


def test_free_evolution_conserves_the_distribution_moments_exactly():
    # K = p.p / 2M commutes with p, so free evolution leaves w |a|^2 as it is:
    # along a sweep the mass moments and dE stay those of the first packet
    root, dtau = config_packet()
    conserved = _distribution_moments(root)
    for sweep in ([dtau] * 2000, [10.0, 10.0, 3.5, 10.0, 0.0, -0.0, -3.5, 0.0] * 3):
        packet = rebuilt = root
        for step in sweep:
            packet, rebuilt = ev.free_evolve(packet, step), _rebuilt(rebuilt, step)
            _assert_conserved(packet, rebuilt, conserved)
    # two chains that branch from the root, stepped in turn
    chains = [[root, root], [root, root]]
    for steps in zip([10.0, 10.0, 3.5, -0.0], [3.5, 3.5, 10.0, 0.0]):
        for chain, step in zip(chains, steps):
            chain[:] = ev.free_evolve(chain[0], step), _rebuilt(chain[1], step)
            assert chain[0].amplitudes.tobytes() == chain[1].amplitudes.tobytes()
            _assert_conserved(*chain, conserved)


def test_unsorted_energy_grid_gives_the_spread_of_the_sorted_one():
    packet = ev.free_evolve(config_packet()[0], 5000.0)
    perm = np.random.default_rng(1).permutation(len(packet.weights))
    shuffled = ev.MomentumPacket(packet.momenta[perm], packet.amplitudes[perm],
                                 packet.weights[perm], packet.mass_param, packet.n,
                                 packet.tau)
    assert packet.energy_grid.order == slice(None)
    assert isinstance(shuffled.energy_grid.order, np.ndarray)
    assert ev.time_energy_uncertainty(shuffled) == ev.time_energy_uncertainty(packet)


def test_time_profile_needs_a_uniform_grid_of_two_or_more_samples():
    packet = make_packet()
    bent = packet.momenta.copy()
    bent[5, 0] += 1e-3 * (bent[1, 0] - bent[0, 0])
    flat = packet.momenta.copy()
    flat[:, 0] = 35.0
    for momenta in (bent, flat):
        moved = ev.MomentumPacket(momenta, packet.amplitudes, packet.weights,
                                  packet.mass_param, packet.n)
        with pytest.raises(ValueError, match="uniform energy grid"):
            ev.time_energy_uncertainty(moved)
    single = ev.MomentumPacket(packet.momenta[:1], np.ones(1, complex), np.ones(1),
                               packet.mass_param, packet.n)
    with pytest.raises(ValueError, match="at least 2 energy samples"):
        ev.time_energy_uncertainty(single)


def _padded_spread(packet):
    """time_energy_uncertainty the long way: one DFT zero-padded to TIME_PAD N
    bins, rolled so that the bin of its circular mean sits at t = 0, and
    moments taken in two passes."""
    grid, mass, tau = packet.energy_grid, packet.mass_param, packet.evolved_tau
    e, w = packet.momenta[grid.order, 0], packet.weights[grid.order]
    amps = packet.amplitudes[grid.order]
    prob = w * np.abs(amps) ** 2
    prob = prob / prob.sum()
    e_mean = (prob * e).sum()
    de = np.sqrt((prob * (e - e_mean) ** 2).sum())
    chirp_step = max(e[-1] - e_mean, e_mean - e[0]) * abs(tau) * grid.step / mass
    if not chirp_step <= np.pi:
        raise ValueError(f"energy grid undersamples the evolution phase after tau ="
                         f" {tau!r}: {chirp_step:.3e} rad per sample > pi")
    t = np.fft.fftfreq(ev.TIME_PAD * len(e), d=grid.step) * 2 * np.pi
    pt = np.abs(np.fft.fft(amps * np.sqrt(w), n=len(t))) ** 2
    c = round(np.arctan2(np.sin(grid.step * t) @ pt, np.cos(grid.step * t) @ pt)
              / (2 * np.pi) * len(pt))
    pt = np.concatenate((pt[c:], pt[:c]))
    t_mean = pt @ t / pt.sum()
    dt = np.sqrt(pt @ (t - t_mean) ** 2 / pt.sum())
    return dt, de, dt * de


def _reference_cases(rng):
    """(name, packet) of seeded packets on sorted and shuffled grids, each
    evolved to a chirp of 0 to 1.2 times its guard, and of a profile that
    free evolution moves past the window."""
    for num in (2, 3, 255, 256, 257, 1000):
        for shuffled in (False, True):
            for shape in ("gaussian", "noise", "single-bin"):
                step = rng.uniform(0.01, 2.0)
                e = rng.uniform(-50.0, 50.0) + step * np.arange(num)
                weights = np.full(num, step)
                if shape == "gaussian":     # with a random shift of its profile
                    amps = np.exp(-((e - e[num // 2]) / (0.1 * step * num + step)) ** 2
                                  + 1j * rng.uniform(-np.pi, np.pi) / step * e)
                elif shape == "noise":
                    amps = rng.normal(size=num) + 1j * rng.normal(size=num)
                else:                       # one sample: a flat profile
                    amps = np.zeros(num, complex)
                    amps[rng.integers(num)] = 1.0
                amps = amps / np.sqrt(ev.MomentumPacket.norm_squared_of(amps, weights))
                momenta = np.zeros((num, 4))
                momenta[:, 0] = e
                perm = rng.permutation(num) if shuffled else np.arange(num)
                mass = rng.uniform(0.5, 2.0)
                packet = ev.MomentumPacket(momenta[perm], amps[perm], weights[perm], mass,
                                           mk.N0)
                prob = weights * np.abs(amps) ** 2
                e_mean = prob @ e / prob.sum()
                eps = max(e[-1] - e_mean, e_mean - e[0])
                for chirp in (0.0, 0.4, 0.9, 0.999, 1.2):
                    tau = rng.choice((-1, 1)) * chirp * np.pi * mass / (eps * step)
                    yield (f"{num}-{shape}-{'shuffled' if shuffled else 'sorted'}-{chirp}",
                           ev.free_evolve(packet, tau))
    # free evolution moves this profile by 175 and 700 on a window 200 wide
    for tau in (5.0, 20.0):
        yield f"shifted-{tau}", ev.free_evolve(ev.MomentumPacket.gaussian_energy_axis(
            35.0, 0.5, [0.0, 0.0, 0.0], 1.0), tau)


def test_time_profile_matches_the_padded_transform():
    refused = 0
    for name, packet in _reference_cases(np.random.default_rng(19)):
        try:
            want = _padded_spread(packet)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                ev.time_energy_uncertainty(packet)
            assert str(got.value) == str(exc), name
            refused += 1
            continue
        got = ev.time_energy_uncertainty(packet)
        assert got == pytest.approx(want, rel=4e-15, abs=0.0), name
    assert refused == 36    # the chirps of 1.2 times the guard
