"""Classical and quantum evolution in the invariant parameter tau.

Classical side: Hamilton equations for K = p.p / 2M (+ optional invariant
potential V(x.x)) integrated with fixed-step RK4, plus a finite-difference
Poisson bracket.  Quantum side: momentum-space packets evolved by the free
phase exp(-i p.p dtau / 2M), with mass moments and the time-energy
uncertainty product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import minkowski


class StepRejectionError(RuntimeError):
    """The integrator drifted the conserved Hamiltonian beyond tolerance."""


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point (x^mu, p^mu) at parameter tau."""

    x: np.ndarray
    p: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.shape != (4,) or p.shape != (4,):
            raise ValueError("x and p must be four-vectors")
        _check_finite(self.tau, x, p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class FreeModel:
    """K = p.p / 2M."""

    mass_param: float

    def hamiltonian(self, x, p):
        return minkowski.dot(p, p) / (2.0 * self.mass_param)

    def dx_dtau(self, x, p):
        # dx^mu/dtau = dK/dp_mu = p^mu / M
        return p / self.mass_param

    def dp_dtau(self, x, p):
        return np.zeros(4)


@dataclass(frozen=True)
class PotentialModel(FreeModel):
    """K = p.p / 2M + V(x.x) with V given together with its derivative."""

    potential: object
    potential_prime: object

    def hamiltonian(self, x, p):
        return super().hamiltonian(x, p) + self.potential(minkowski.dot(x, x))

    def dp_dtau(self, x, p):
        # dp^mu/dtau = -g^{mu nu} dV/dx^nu = -V'(x.x) * 2 x^mu
        return -2.0 * self.potential_prime(minkowski.dot(x, x)) * x


@dataclass(frozen=True)
class Trajectory:
    """A classical run as arrays over its S + 1 states: tau (S+1,), x and
    p (S+1, 4), and the Hamiltonian k (S+1,)."""

    tau: np.ndarray
    x: np.ndarray
    p: np.ndarray
    k: np.ndarray


def _check_finite(tau, x, p):
    if not (np.isfinite(tau).all() and np.isfinite(x).all() and np.isfinite(p).all()):
        raise ValueError("phase point must be finite")


def _rk4(model, x0, p0, factors):
    """One fixed-step RK4 update (x1, p1) of Hamilton's equations.

    The factors dtau/2, dtau, dtau/6 come as four-vectors and 2 k as k + k:
    numpy is much slower with a scalar operand, and the floats are the same.
    """
    half, full, sixth = factors
    k1x, k1p = model.dx_dtau(x0, p0), model.dp_dtau(x0, p0)
    x, p = x0 + half * k1x, p0 + half * k1p
    k2x, k2p = model.dx_dtau(x, p), model.dp_dtau(x, p)
    x, p = x0 + half * k2x, p0 + half * k2p
    k3x, k3p = model.dx_dtau(x, p), model.dp_dtau(x, p)
    x, p = x0 + full * k3x, p0 + full * k3p
    k4x, k4p = model.dx_dtau(x, p), model.dp_dtau(x, p)
    return (x0 + sixth * (k1x + (k2x + k2x) + (k3x + k3x) + k4x),
            p0 + sixth * (k1p + (k2p + k2p) + (k3p + k3p) + k4p))


def classical_step(state, model, dtau):
    """One fixed-step RK4 update of Hamilton's equations, as a PhasePoint."""
    run = classical_integrate(state, model, dtau, 1)
    return PhasePoint(run.x[1], run.p[1], run.tau[1])


def classical_integrate(state, model, dtau, steps):
    """The Trajectory of `steps` RK4 steps from the PhasePoint `state`.

    Raises StepRejectionError when a step changes K by more than 1e-6
    relative, and ValueError when a state is not finite.
    """
    if not (np.isfinite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be positive and finite, got {dtau!r}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps!r}")
    tau, k = np.empty(steps + 1), np.empty(steps + 1)
    x, p = np.empty((steps + 1, 4)), np.empty((steps + 1, 4))
    factors = np.full(4, 0.5 * dtau), np.full(4, float(dtau)), np.full(4, dtau / 6.0)
    t, xi, pi = state.tau, state.x, state.p
    k_old = model.hamiltonian(xi, pi)
    tau[0], x[0], p[0], k[0] = t, xi, pi, k_old
    for i in range(1, steps + 1):
        xi, pi = _rk4(model, xi, pi, factors)
        t = t + dtau
        k_new = model.hamiltonian(xi, pi)
        tau[i], x[i], p[i], k[i] = t, xi, pi, k_new
        scale = max(abs(k_old), 1.0)
        if abs(k_new - k_old) > 1e-6 * scale:
            # a non-finite state is the error to report, not its drift
            _check_finite(tau[:i + 1], x[:i + 1], p[:i + 1])
            raise StepRejectionError(
                f"hamiltonian drifted by {abs(k_new - k_old):.3e} in one step"
                f" (scale {scale:.3e}); reduce dtau")
        k_old = k_new
    _check_finite(tau, x, p)
    return Trajectory(tau, x, p, k)


def poisson(f, g, at, h_scale=1e-5):
    """Central-difference Poisson bracket {f, g} at a phase point.

    f and g are callables of (x, p) with x, p contravariant four-vectors;
    the bracket is sum_mu (df/dx^mu dg/dp_mu - df/dp^mu dg/dx_mu) with the
    index placement handled through the metric.
    """
    x, p = at.x, at.p
    hx = h_scale * max(np.max(np.abs(x)), 1.0)
    hp = h_scale * max(np.max(np.abs(p)), 1.0)

    def grad_x(func):
        out = np.zeros(4)
        for mu in range(4):
            dx = np.zeros(4)
            dx[mu] = hx
            out[mu] = (func(x + dx, p) - func(x - dx, p)) / (2 * hx)
        return out  # d/dx^mu (covariant index result)

    def grad_p(func):
        out = np.zeros(4)
        for mu in range(4):
            dp = np.zeros(4)
            dp[mu] = hp
            out[mu] = (func(x, p + dp) - func(x, p - dp)) / (2 * hp)
        return out  # d/dp^mu

    df_dx, dg_dx = grad_x(f), grad_x(g)
    df_dp, dg_dp = grad_p(f), grad_p(g)
    # dg/dp_mu = g^{mu nu} dg/dp^nu; contraction pairs x^mu with p_mu
    metric = minkowski.METRIC
    return float(df_dx @ metric @ dg_dp - df_dp @ metric @ dg_dx)


@dataclass(frozen=True)
class MomentumPacket:
    """Momentum-space packet on a discrete grid of four-momenta.

    momenta has shape (N, 4); amplitudes shape (N,); weights are the
    quadrature weights of the grid so that sum(w |a|^2) = 1.
    """

    momenta: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray
    mass_param: float
    n: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        ps = np.asarray(self.momenta, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=complex)
        w = np.asarray(self.weights, dtype=float)
        if ps.ndim != 2 or ps.shape[1] != 4:
            raise ValueError("momenta must have shape (N, 4)")
        if amps.shape != (ps.shape[0],) or w.shape != (ps.shape[0],):
            raise ValueError("amplitudes and weights must match the grid")
        if self.mass_param <= 0:
            raise ValueError("mass parameter must be positive")
        if abs(self.norm_squared_of(amps, w) - 1.0) > 1e-8:
            raise ValueError("packet must be normalized to 1 within 1e-8")
        minkowski.check_unit_timelike_future(self.n)
        object.__setattr__(self, "momenta", ps)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "n", np.asarray(self.n, dtype=float))

    @staticmethod
    def norm_squared_of(amps, weights):
        return float(np.sum(weights * np.abs(amps) ** 2))

    @property
    def norm_squared(self):
        return self.norm_squared_of(self.amplitudes, self.weights)

    @classmethod
    def gaussian_energy_axis(cls, e_center, e_width, spatial_p, mass_param,
                             n=None, num=256, span=8.0, tau=0.0):
        """Gaussian packet along the p^0 axis at fixed spatial momentum.

        e_width is the standard deviation of |amplitude|^2 in p^0.
        """
        if num < 2:
            raise ValueError(f"energy grid needs at least 2 samples, got {num!r}")
        n = minkowski.N0 if n is None else np.asarray(n, dtype=float)
        e = np.linspace(e_center - span * e_width, e_center + span * e_width, num)
        de = e[1] - e[0]
        amps = (2 * np.pi * e_width**2) ** (-0.25) * np.exp(
            -((e - e_center) ** 2) / (4 * e_width**2))
        ps = np.zeros((num, 4))
        ps[:, 0] = e
        ps[:, 1:] = np.asarray(spatial_p, dtype=float)
        w = np.full(num, de)
        amps = amps / np.sqrt(cls.norm_squared_of(amps, w))
        return cls(ps, amps.astype(complex), w, mass_param, n, tau)


def free_evolve(packet, dtau):
    """Multiply each amplitude by exp(-i (p.p) dtau / 2M)."""
    pp = np.einsum("ka,ab,kb->k", packet.momenta, minkowski.METRIC,
                   packet.momenta)
    phase = np.exp(-1j * pp * dtau / (2.0 * packet.mass_param))
    return replace(packet, amplitudes=packet.amplitudes * phase,
                   tau=packet.tau + dtau)


def free_phase(p, mass_param, dtau):
    """Evolution phase of a single plane-wave sample."""
    return np.exp(-1j * minkowski.dot(p, p) * dtau / (2.0 * mass_param))


def mass_moments(packet):
    """Mean and variance of the invariant mass squared -p.p."""
    pp = np.einsum("ka,ab,kb->k", packet.momenta, minkowski.METRIC,
                   packet.momenta)
    prob = packet.weights * np.abs(packet.amplitudes) ** 2
    prob = prob / np.sum(prob)
    mean = float(np.sum(prob * (-pp)))
    var = float(np.sum(prob * ((-pp) - mean) ** 2))
    return mean, var


def time_energy_uncertainty(packet):
    """(dt, dE, product) from the p^0 marginal of the packet.

    dE is the standard deviation of p^0 under |amplitude|^2; dt is the
    spread of the conjugate (time) profile obtained by discrete Fourier
    transform of the amplitude along the energy axis.  Natural units
    (hbar = 1): a Gaussian saturates dt * dE = 1/2.

    Raises ValueError when the free-evolution phase p.p tau / 2M changes by
    more than pi between neighbouring energy samples (max|E| |tau| dE / M):
    the time window would wrap around and give a wrong spread.
    """
    e = packet.momenta[:, 0]
    order = np.argsort(e)
    e = e[order]
    amps = packet.amplitudes[order]
    w = packet.weights[order]
    prob = w * np.abs(amps) ** 2
    prob = prob / np.sum(prob)
    e_mean = float(np.sum(prob * e))
    de = float(np.sqrt(np.sum(prob * (e - e_mean) ** 2)))

    if np.ptp(np.diff(e)) > 1e-9 * np.max(np.abs(np.diff(e))):
        raise ValueError("time profile needs a uniform energy grid")
    step = e[1] - e[0]
    phase_step = np.max(np.abs(e)) * abs(packet.tau) * step / packet.mass_param
    if not phase_step <= np.pi:
        raise ValueError(f"energy grid undersamples the evolution phase at tau ="
                         f" {packet.tau!r}: {phase_step:.3e} rad per sample > pi")
    pad = 8
    f = np.fft.fft(amps * np.sqrt(w), n=pad * len(e))
    t = np.fft.fftfreq(pad * len(e), d=step) * 2 * np.pi
    pt = np.abs(f) ** 2
    pt = pt / np.sum(pt)
    t_mean = float(np.sum(pt * t))
    dt = float(np.sqrt(np.sum(pt * (t - t_mean) ** 2)))
    return dt, de, dt * de


def two_body_free_evolve(packet_a, packet_b, dtau):
    """Evolve a product two-body packet; the joint phase factorizes."""
    return free_evolve(packet_a, dtau), free_evolve(packet_b, dtau)


def joint_amplitude(packet_a, packet_b):
    """Outer-product amplitude table of a product two-body packet."""
    return np.outer(packet_a.amplitudes, packet_b.amplitudes)
