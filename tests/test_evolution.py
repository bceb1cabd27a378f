"""Tests for classical and quantum evolution in the invariant parameter."""

import numpy as np
import pytest

from shpqm import evolution as ev, minkowski as mk


def test_free_trajectory_is_linear():
    model = ev.FreeModel(2.0)
    x0 = mk.four_vector(0.0, 1.0, 2.0, 3.0)
    p0 = mk.four_vector(3.0, 0.4, -0.2, 0.7)
    traj = ev.classical_integrate(ev.PhasePoint(x0, p0), model, 0.01, 1000)
    end = traj[-1]
    assert np.max(np.abs(end.x - (x0 + p0 * 10.0 / 2.0))) < 1e-10
    assert np.max(np.abs(end.p - p0)) == 0.0


def test_velocity_ratio_along_free_trajectory():
    # d(position)/d(coordinate time) = spatial momentum / energy
    model = ev.FreeModel(1.5)
    x0 = np.zeros(4)
    p0 = mk.four_vector(2.5, 0.3, -0.6, 0.9)
    traj = ev.classical_integrate(ev.PhasePoint(x0, p0), model, 0.02, 500)
    for a, b in zip(traj[:-1], traj[1:]):
        v = (b.x[1:] - a.x[1:]) / (b.x[0] - a.x[0])
        assert np.max(np.abs(v - p0[1:] / p0[0])) < 1e-12


def test_proper_time_rate_along_free_trajectory():
    # ds/dtau = m / M along a straight free trajectory
    mass_param = 2.0
    model = ev.FreeModel(mass_param)
    p0 = mk.four_vector(3.0, 0.4, -0.2, 0.7)
    m = np.sqrt(-mk.dot(p0, p0))
    traj = ev.classical_integrate(
        ev.PhasePoint(np.zeros(4), p0), model, 0.05, 200)
    dx = traj[-1].x - traj[0].x
    ds = np.sqrt(-mk.dot(dx, dx))
    assert ds / (traj[-1].tau - traj[0].tau) == pytest.approx(
        m / mass_param, abs=1e-12)


def test_hamiltonian_conservation_with_potential():
    # purely spatial initial data keeps the quartic invariant potential in
    # its stable (positive x.x) regime over the whole run
    model = ev.PotentialModel(2.0, lambda s: 0.1 * s**2, lambda s: 0.2 * s)
    start = ev.PhasePoint(mk.four_vector(0.0, 0.1, 0.2, 0.3),
                          mk.four_vector(0.0, 0.12, -0.06, 0.21))
    traj = ev.classical_integrate(start, model, 1e-3, 10000)
    k0 = model.hamiltonian(traj[0].x, traj[0].p)
    k1 = model.hamiltonian(traj[-1].x, traj[-1].p)
    assert abs(k1 - k0) / max(abs(k0), 1.0) < 1e-8


def test_step_rejection():
    # a violently steep potential at a large step must trip the drift guard
    model = ev.PotentialModel(1.0, lambda s: 100.0 * s**2,
                              lambda s: 200.0 * s)
    start = ev.PhasePoint(mk.four_vector(0.0, 3.0, 0.0, 0.0),
                          mk.four_vector(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ev.StepRejectionError):
        ev.classical_integrate(start, model, 0.5, 100)


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
    phase = ev.free_phase(p, mass_param, dtau)
    assert phase == pytest.approx(np.exp(1j * m**2 * dtau / (2 * mass_param)),
                                  abs=1e-12)


def test_two_body_evolution_factorizes():
    pa, pb = make_packet(), ev.MomentumPacket.gaussian_energy_axis(
        e_center=69.0, e_width=0.7, spatial_p=[0.0, 0.0, 2.0],
        mass_param=511000.0)
    joint_before = ev.joint_amplitude(pa, pb)
    ea, eb = ev.two_body_free_evolve(pa, pb, 5.5)
    joint_after = ev.joint_amplitude(ea, eb)
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
