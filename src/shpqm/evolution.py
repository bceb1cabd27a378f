"""Classical and quantum evolution in the invariant parameter tau.

Classical side: Hamilton equations for K = p.p / 2M (+ optional invariant
potential V(x.x)) integrated with fixed-step RK4.  Quantum side:
momentum-space packets evolved by the free phase exp(-i p.p dtau / 2M),
with mass moments and the time-energy uncertainty product.
"""

from __future__ import annotations

import cmath
import numbers
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import minkowski


class StepRejectionError(ValueError):
    """The integrator drifted the conserved Hamiltonian beyond tolerance."""


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point (x^mu, p^mu) at parameter tau."""

    x: np.ndarray
    p: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        for name in ("x", "p"):
            object.__setattr__(self, name, minkowski.four_vectors(getattr(self, name), name))
        minkowski.finite(self.tau, "tau")


@dataclass(frozen=True)
class FreeModel:
    """K = p.p / 2M.

    A subclass that changes the equations of motion or makes K depend on x
    sets `exact_flow = None`, as PotentialModel does.
    """

    mass_param: float

    def __post_init__(self):
        minkowski.positive(self.mass_param, "mass parameter")

    def hamiltonian(self, x, p):
        return minkowski.inner(p, p) / (2.0 * self.mass_param)

    def dx_dtau(self, x, p):
        # dx^mu/dtau = dK/dp_mu = p^mu / M
        return p / self.mass_param

    def dp_dtau(self, x, p):
        return np.zeros(4)

    def exact_flow(self, x1, p1, dtau, steps):
        """x after each of `steps` RK4 steps from (x1, p1), as a (steps, 4)
        array, bit for bit as the stepwise loop gives it.

        p stays p1 and each stage's slope is p1 / M, so every step adds the
        same increment; np.add.accumulate adds strictly in sequence.
        """
        k = p1 / self.mass_param
        rows = np.empty((steps, 4))
        rows[0] = x1
        rows[1:] = dtau / 6.0 * (k + 2 * k + 2 * k + k)
        return np.add.accumulate(rows)


@dataclass(frozen=True)
class PotentialModel(FreeModel):
    """K = p.p / 2M + V(x.x) with V given together with its derivative."""

    potential: object
    potential_prime: object

    exact_flow = None   # dp/dtau depends on x: stepped by RK4

    def hamiltonian(self, x, p):
        return super().hamiltonian(x, p) + self.potential(minkowski.inner(x, x))

    def dp_dtau(self, x, p):
        # dp^mu/dtau = -g^{mu nu} dV/dx^nu = -V'(x.x) * 2 x^mu
        return -2.0 * self.potential_prime(minkowski.inner(x, x)) * x


@dataclass(frozen=True)
class Trajectory:
    """A classical run as arrays over its S + 1 states: tau (S+1,), x and
    p (S+1, 4), and the Hamiltonian k (S+1,)."""

    tau: np.ndarray
    x: np.ndarray
    p: np.ndarray
    k: np.ndarray


DRIFT_TOLERANCE = 1e-6


def _drift_error(k_old, k_new):
    """The StepRejectionError of one step that took K from k_old to k_new
    (floats), or None when it changed K by at most DRIFT_TOLERANCE relative."""
    scale = max(abs(k_old), 1.0)
    if not abs(k_new - k_old) > DRIFT_TOLERANCE * scale:
        return None
    return StepRejectionError(
        f"hamiltonian drifted by {abs(k_new - k_old):.3e} in one step"
        f" (scale {scale:.3e}); reduce dtau")


def _rk4(model, x0, p0, dtau):
    """One fixed-step RK4 update (x1, p1) of Hamilton's equations."""
    half, sixth = 0.5 * dtau, dtau / 6.0
    k1x, k1p = model.dx_dtau(x0, p0), model.dp_dtau(x0, p0)
    x, p = x0 + half * k1x, p0 + half * k1p
    k2x, k2p = model.dx_dtau(x, p), model.dp_dtau(x, p)
    x, p = x0 + half * k2x, p0 + half * k2p
    k3x, k3p = model.dx_dtau(x, p), model.dp_dtau(x, p)
    x, p = x0 + dtau * k3x, p0 + dtau * k3p
    k4x, k4p = model.dx_dtau(x, p), model.dp_dtau(x, p)
    return (x0 + sixth * (k1x + 2 * k2x + 2 * k3x + k4x),
            p0 + sixth * (k1p + 2 * k2p + 2 * k3p + k4p))


def classical_integrate(state, model, dtau, steps):
    """The Trajectory of `steps` RK4 steps from the PhasePoint `state`.

    A model with an `exact_flow` (FreeModel) takes its first step by RK4 and
    the rest from the flow, bit for bit as RK4 gives them; any other model
    is stepped by RK4 throughout.  Each RK4 step checks the drift of K.

    Raises StepRejectionError, a ValueError, when a step changes K by more
    than 1e-6 relative, and ValueError when a state or its K is not finite.
    """
    minkowski.positive(dtau, "dtau")
    if not (isinstance(steps, numbers.Integral) and steps >= 0):
        raise ValueError(f"steps must be non-negative and an integer, got {steps!r}")
    tau = np.full(steps + 1, float(dtau))
    tau[0] = state.tau
    tau = np.add.accumulate(tau)    # in sequence, as t = t + dtau per step
    k = np.empty(steps + 1)
    x, p = np.empty((steps + 1, 4)), np.empty((steps + 1, 4))
    xi, pi = state.x, state.p
    k_old = model.hamiltonian(xi, pi)
    x[0], p[0], k[0] = xi, pi, k_old
    flow = getattr(model, "exact_flow", None)
    for i in range(1, (steps if flow is None else min(steps, 1)) + 1):
        xi, pi = _rk4(model, xi, pi, dtau)
        k_new = model.hamiltonian(xi, pi)
        x[i], p[i], k[i] = xi, pi, k_new
        error = _drift_error(k_old, k_new)
        if error is not None:
            # a non-finite state is the error to report, not its drift
            for states in (x[:i + 1], p[:i + 1]):
                minkowski.four_vectors(states, "phase point")
            raise error
        k_old = k_new
    if flow is not None and steps:
        # p and K stay as the RK4 step left them (it turns a -0.0 in p0 into
        # p0 + 0 = 0.0); the flow gives x
        x[1:], p[1:], k[1:] = flow(xi, pi, dtau, steps), pi, k_old
    if not np.isfinite(tau[-1]):    # tau only grows, so its last value is the largest
        raise ValueError(f"phase point must be finite, got tau = {tau[-1]!r}")
    for states in (x, p):
        minkowski.four_vectors(states, "phase point")
    if not np.isfinite(k).all():
        raise ValueError("hamiltonian must be finite")
    return Trajectory(tau, x, p, k)


class EnergyGrid(NamedTuple):
    """Facts about a packet's energy axis p^0: `order` sorts the samples
    (slice(None) when they already are), `root_w` holds the square roots of
    the sorted weights, `step` the uniform spacing, `de` the spread of p^0
    under w |a|^2 and `eps` the chirp guard's max |p^0 - E_c|, E_c the mean.

    The rest serve the time profile, the DFT of the N samples zero-padded to
    L = TIME_PAD N bins, taken as TIME_PAD N-point transforms: `roots` is
    exp(-2 pi i k / L) for k < L, which shifts the profile by whole bins;
    `twiddle` is exp(-2 pi i j n / L), shape (TIME_PAD, N), whose row j
    turns bin m of an N-point transform into bin TIME_PAD m + j of the
    padded one; `moments` holds 1, t and t^2 of each bin, t being the 2 pi
    fftfreq time grid, in that (j, m) order and each twice (for the real and
    the imaginary part), shape (3, 2 L)."""

    order: np.ndarray | slice
    root_w: np.ndarray
    step: float
    de: float
    eps: float
    roots: np.ndarray
    twiddle: np.ndarray
    moments: np.ndarray


TIME_PAD = 8    # the time profile is a DFT zero-padded to TIME_PAD times the grid


@dataclass(frozen=True)
class MomentumPacket:
    """Momentum-space packet on a discrete grid of four-momenta.

    momenta has shape (N, 4); amplitudes shape (N,); weights, finite and
    non-negative, are the quadrature weights of the grid: sum(w |a|^2) = 1.
    Its cached facts (p.p, the mass moments, the energy grid, the free phase
    of the last dtau) are computed on first use and all carried along by
    free_evolve: they depend on the grid and on w |a|^2 alone, which its
    unit-modulus phase leaves as they are.  evolved_tau is the free
    evolution applied since the amplitudes were set: 0 when built, whatever tau is.
    """

    momenta: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray
    mass_param: float
    n: np.ndarray
    tau: float = 0.0
    evolved_tau: float = field(default=0.0, init=False)

    def __post_init__(self):
        ps = minkowski.four_vectors(self.momenta, "momenta")
        amps = minkowski.complex_array(self.amplitudes, "amplitudes")
        w = minkowski.real(self.weights, "weights")
        if ps.ndim != 2 or amps.shape != ps.shape[:1] or w.shape != ps.shape[:1]:
            raise ValueError("momenta (N, 4), amplitudes and weights must match the grid")
        bad = np.flatnonzero(~((w >= 0) & (w < np.inf)))
        if bad.size:
            raise ValueError(f"weights must be finite and >= 0,"
                             f" got {w[bad[0]]} at index {bad[0]}")
        bad = np.flatnonzero(~np.isfinite(amps))
        if bad.size:
            raise ValueError(f"amplitudes must be finite, got {amps[bad[0]]} at index {bad[0]}")
        minkowski.positive(self.mass_param, "mass parameter")
        minkowski.finite(self.tau, "tau")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge amplitude gives inf or NaN
            if not abs(self.norm_squared_of(amps, w) - 1.0) <= 1e-8:
                raise ValueError("packet must be normalized to 1 within 1e-8")
        object.__setattr__(self, "momenta", ps)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "n", minkowski.check_unit_timelike_future(self.n))

    @staticmethod
    def norm_squared_of(amps, weights):
        return float((weights * np.abs(amps) ** 2).sum())

    @property
    def norm_squared(self):
        return self.norm_squared_of(self.amplitudes, self.weights)

    @cached_property
    def p_dot_p(self):
        """p.p of each sample, shape (N,)."""
        return np.einsum("ka,ab,kb->k", self.momenta, minkowski.METRIC, self.momenta)

    @cached_property
    def _mass_moments(self):
        prob = self.weights * np.abs(self.amplitudes) ** 2
        prob, m2 = prob / prob.sum(), -self.p_dot_p
        mean = float(prob @ m2)
        return mean, float(prob @ (m2 - mean) ** 2)

    @cached_property
    def energy_grid(self):
        """The EnergyGrid of the p^0 axis, summed in sorted order; raises
        ValueError unless the energies are at least 2 and uniformly spaced."""
        e = self.momenta[:, 0]
        if len(e) < 2:
            raise ValueError("time profile needs at least 2 energy samples")
        order = slice(None) if np.all(e[:-1] <= e[1:]) else np.argsort(e)
        e = e[order]
        gaps = np.diff(e)
        step = float(e[1] - e[0])
        if not (step > 0 and np.ptp(gaps) <= 1e-9 * np.max(np.abs(gaps))):
            raise ValueError("time profile needs a uniform energy grid")
        w = self.weights[order]
        prob = w * np.abs(self.amplitudes[order]) ** 2
        prob = prob / prob.sum()
        e_mean = float(prob @ e)
        de = float(np.sqrt(prob @ (e - e_mean) ** 2))
        size = TIME_PAD * len(e)
        roots = np.exp(-2j * np.pi / size * np.arange(size))
        twiddle = roots[np.outer(np.arange(TIME_PAD), np.arange(len(e)))]
        t = (np.fft.fftfreq(size, d=step) * 2 * np.pi).reshape(-1, TIME_PAD).T
        moments = np.repeat(np.stack((np.ones_like(t), t, t * t)).reshape(3, -1), 2, axis=1)
        return EnergyGrid(order, np.sqrt(w), step, de, max(e[-1] - e_mean, e_mean - e[0]),
                          roots, twiddle, moments)

    def _free_phase(self, dtau):
        """exp(-i p.p dtau / 2M) of each sample; raises ValueError when it is
        not finite.

        The phase of the last dtau is kept, keyed on the bits of dtau (so
        0.0 and -0.0 are different keys), and only once it has passed the
        check: a sweep at a fixed dtau computes it once.
        """
        try:
            key = struct.pack("d", dtau)
        except struct.error:
            raise TypeError(f"dtau must be a real number, got {dtau!r}") from None
        cached = self.__dict__.get("_phase")
        if cached is not None and cached[0] == key:
            return cached[1]
        phase = np.exp(-1j * self.p_dot_p * dtau / (2.0 * self.mass_param))
        if not np.isfinite(phase).all():
            raise ValueError(f"free evolution phase is not finite for dtau = {dtau!r}")
        self.__dict__["_phase"] = key, phase
        return phase

    @classmethod
    def gaussian_energy_axis(cls, e_center, e_width, spatial_p, mass_param,
                             n=None, num=256, tau=0.0):
        """Gaussian packet along the p^0 axis at fixed spatial momentum.

        e_width is the standard deviation of |amplitude|^2 in p^0.
        """
        if not (isinstance(num, numbers.Integral) and num >= 2):
            raise ValueError(f"energy grid needs at least 2 samples (integer num), got {num!r}")
        minkowski.positive(e_width, "energy width")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                e = np.linspace(e_center - 8.0 * e_width, e_center + 8.0 * e_width, num)
                de = e[1] - e[0]
                amps = (2 * np.pi * e_width**2) ** (-0.25) * np.exp(
                    -((e - e_center) ** 2) / (4 * e_width**2))
                w = np.full(num, de)
                amps = amps / np.sqrt(cls.norm_squared_of(amps, w))
        except ArithmeticError as exc:  # FloatingPointError, and Python's float errors
            raise ValueError(f"energy grid {e_center!r} +- 8.0 * {e_width!r}"
                             f" is out of floating-point range") from exc
        ps = np.zeros((num, 4))
        ps[:, 0] = e
        ps[:, 1:] = minkowski.real(spatial_p, "spatial_p")
        return cls(ps, amps.astype(complex), w, mass_param,
                   minkowski.N0 if n is None else n, tau)


def free_evolve(packet, dtau):
    """Multiply each amplitude by exp(-i (p.p) dtau / 2M).

    The phase has unit modulus, so the packet keeps its norm and w |a|^2: it
    is not validated again and keeps every fact `packet` has cached.  Raises
    ValueError when the phase is not finite.
    """
    phase = packet._free_phase(dtau)
    child = object.__new__(type(packet))
    child.__dict__.update(packet.__dict__, amplitudes=packet.amplitudes * phase,
                          tau=packet.tau + dtau, evolved_tau=packet.evolved_tau + dtau)
    return child


def mass_moments(packet):
    """Mean and variance of the invariant mass squared -p.p; cached, and so,
    as every cached fact, kept by free evolution, which conserves them exactly."""
    return packet._mass_moments


def time_energy_uncertainty(packet):
    """(dt, dE, product) from the p^0 marginal of the packet.

    dE is the standard deviation of p^0 under |amplitude|^2, a fact of the
    distribution that free evolution carries; dt is the spread of the
    conjugate (time) profile obtained by discrete Fourier transform of the
    amplitude along the energy axis.  Natural units (hbar = 1): a Gaussian
    saturates dt * dE = 1/2.

    The transform gives the profile on a periodic window of width 2 pi / dE,
    read around the profile's circular mean (to the nearest bin, moved to
    t = 0 before the transform): a phase linear in E only shifts the
    profile (free evolution shifts it by E_c tau / M, E_c the mean energy),
    and the spread does not depend on where it sits.  Writing
    E = E_c + eps, free evolution also chirps the amplitude by the phase
    eps^2 tau / 2M, with tau the packet's evolved_tau; raises ValueError
    when that chirp changes by more than pi between neighbouring samples
    (max|eps| |tau| dE / M), because the profile would then wrap around the
    window and give a wrong spread.
    """
    grid = packet.energy_grid
    chirp_step = grid.eps * abs(packet.evolved_tau) * grid.step / packet.mass_param
    if not chirp_step <= np.pi:
        raise ValueError(f"energy grid undersamples the evolution phase after tau ="
                         f" {packet.evolved_tau!r}: {chirp_step:.3e} rad per sample > pi")
    y = packet.amplitudes[grid.order] * grid.root_w
    # the profile pt of L bins has its circular mean at bin c, the angle of
    # sum_k pt_k exp(2 pi i k / L) = L sum_n y_n conj(y_(n-1)); y times
    # exp(-2 pi i c n / L) moves that bin to t = 0
    c = round(cmath.phase(np.vdot(y[:-1], y[1:])) / (2 * np.pi) * len(grid.roots))
    y = y * grid.roots.take(c * np.arange(len(y)), mode="wrap")
    v = np.fft.fft(y * grid.twiddle).view(float)
    total, t_sum, t2_sum = grid.moments @ (v * v).ravel()
    t_mean = t_sum / total
    dt = float(np.sqrt(t2_sum / total - t_mean * t_mean))
    return dt, grid.de, dt * grid.de
