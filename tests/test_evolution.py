"""Tests for classical and quantum evolution in the invariant parameter."""

import numpy as np
import pytest

from shpqm import evolution as ev, minkowski as mk


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
    step = ev.classical_step(start, model, dtau)
    assert (step.tau, step.x.tobytes(), step.p.tobytes()) == (
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


@pytest.mark.parametrize("model, start, dtau", [
    # x overflows while K stays finite: only the finiteness check sees it
    (ev.FreeModel(1e-300), ev.PhasePoint(np.zeros(4), mk.four_vector(1e-10, 0, 0, 0)),
     1e20),
    # p overflows and K with it: the drift check fires on a non-finite state
    (ev.PotentialModel(1.0, lambda s: 0.0, lambda s: -1e300),
     ev.PhasePoint(mk.four_vector(0.0, 1.0, 0.0, 0.0), np.zeros(4)),
     1.0),
], ids=["x-overflow", "p-overflow"])
def test_non_finite_state_raises_value_error(model, start, dtau):
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (lambda: _reference_run(start, model, dtau, 3),
                    lambda: ev.classical_integrate(start, model, dtau, 3)):
            with pytest.raises(ValueError, match="phase point must be finite"):
                run()


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
    after = ev.classical_step(start, model, dtau)
    numeric = (f(after.x, after.p) - f(start.x, start.p)) / dtau
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
