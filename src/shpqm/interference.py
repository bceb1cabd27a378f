"""Two-electron unequal-time interference.

Two electrons are emitted with sharp carrier energies E1, E2 inside Gaussian
pulses of width sigma_t centered at two emission times, detected at two fixed
points.  The spatial factors contribute only constant phases, so the
coincidence signal is a function of the detection-time difference alone.  The
spacetime amplitude is symmetrized (exchange term) and paired with the
antisymmetric spin singlet, making the total two-body state antisymmetric.

Units at this boundary: energies in eV, times in fs, converted with
hbar = 0.6582119569 eV fs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spin_coupling
from .constants import HBAR_EV_FS, energy_spread_for_time_width, fringe_period_fs


class AliasingError(ValueError):
    """Scan grid too coarse to resolve the expected fringe."""


@dataclass(frozen=True)
class EmissionConfig:
    """Two-electron emission parameters (energies eV, times fs)."""

    e1_ev: float
    e2_ev: float
    t_emit1_fs: float
    t_emit2_fs: float
    sigma_t_fs: float

    def __post_init__(self):
        if self.sigma_t_fs <= 0:
            raise ValueError("pulse width must be positive")
        if self.e1_ev <= 0 or self.e2_ev <= 0:
            raise ValueError("energies must be positive")

    @property
    def delta_e_ev(self):
        return self.e2_ev - self.e1_ev

    @property
    def emission_spacing_fs(self):
        return self.t_emit2_fs - self.t_emit1_fs

    def spin_singlet(self):
        """The spin singlet on the rest fiber."""
        return spin_coupling.singlet()


def envelope(t_fs, center_fs, sigma_fs):
    """Normalized Gaussian pulse: integral of |g|^2 over t equals 1."""
    return ((2 * np.pi * sigma_fs**2) ** (-0.25)
            * np.exp(-((t_fs - center_fs) ** 2) / (4 * sigma_fs**2)))


def amplitude(config, t1_fs, t2_fs):
    """Symmetrized two-time detection amplitude A(t1, t2)."""
    g1, g2 = config.t_emit1_fs, config.t_emit2_fs
    s = config.sigma_t_fs
    e1, e2 = config.e1_ev, config.e2_ev
    direct = (envelope(t1_fs, g1, s) * envelope(t2_fs, g2, s)
              * np.exp(-1j * (e1 * t1_fs + e2 * t2_fs) / HBAR_EV_FS))
    exchanged = (envelope(t2_fs, g1, s) * envelope(t1_fs, g2, s)
                 * np.exp(-1j * (e1 * t2_fs + e2 * t1_fs) / HBAR_EV_FS))
    return direct + exchanged


def to_relative_coords(t1_fs, t2_fs):
    """(mean time T, difference dt = t2 - t1)."""
    return 0.5 * (t1_fs + t2_fs), t2_fs - t1_fs


def from_relative_coords(t_mean_fs, dt_fs):
    return t_mean_fs - 0.5 * dt_fs, t_mean_fs + 0.5 * dt_fs


def amplitude_relative(config, t_mean_fs, dt_fs):
    """A in mean/difference coordinates with the phase regrouped.

    The common phase exp(-i(E1+E2)T/hbar) multiplies envelope terms carrying
    the relative phases exp(-/+ i (E2-E1) dt / 2 hbar); agrees with
    amplitude() to round-off.
    """
    g1, g2 = config.t_emit1_fs, config.t_emit2_fs
    s = config.sigma_t_fs
    de = config.delta_e_ev
    t1, t2 = from_relative_coords(t_mean_fs, dt_fs)
    common = np.exp(-1j * (config.e1_ev + config.e2_ev) * t_mean_fs / HBAR_EV_FS)
    direct = (envelope(t1, g1, s) * envelope(t2, g2, s)
              * np.exp(-1j * de * dt_fs / (2 * HBAR_EV_FS)))
    exchanged = (envelope(t2, g1, s) * envelope(t1, g2, s)
                 * np.exp(+1j * de * dt_fs / (2 * HBAR_EV_FS)))
    return common * (direct + exchanged)


def direct_part(config, dt_fs):
    """Non-oscillatory part of P(dt): the two exchange-diagonal terms."""
    dt = np.asarray(dt_fs, dtype=float)
    s = config.sigma_t_fs
    d = config.emission_spacing_fs
    pref = 1.0 / (2.0 * s * np.sqrt(np.pi))
    return pref * (np.exp(-((dt - d) ** 2) / (4 * s**2))
                   + np.exp(-((dt + d) ** 2) / (4 * s**2)))


def interference_part(config, dt_fs):
    """Oscillatory cross term of P(dt)."""
    dt = np.asarray(dt_fs, dtype=float)
    s = config.sigma_t_fs
    d = config.emission_spacing_fs
    pref = 1.0 / (2.0 * s * np.sqrt(np.pi))
    return (pref * 2.0 * np.exp(-(dt**2 + d**2) / (4 * s**2))
            * np.cos(config.delta_e_ev * dt / HBAR_EV_FS))


def coincidence_probability(config, dt_fs):
    """P(dt) = integral over the mean detection time of |A|^2 (closed form)."""
    return direct_part(config, dt_fs) + interference_part(config, dt_fs)


def coincidence_probability_quadrature(config, dt_fs, span=12.0, num=4001):
    """Trapezoid quadrature of |A|^2 over the mean time (oracle)."""
    center = 0.5 * (config.t_emit1_fs + config.t_emit2_fs)
    half = span * config.sigma_t_fs + abs(dt_fs)
    t_mean = np.linspace(center - half, center + half, num)
    vals = np.abs(amplitude_relative(config, t_mean, dt_fs)) ** 2
    return float(np.trapezoid(vals, t_mean))


@dataclass(frozen=True)
class InterferenceResult:
    dt_grid_fs: np.ndarray
    probability: np.ndarray
    envelope: np.ndarray
    interference: np.ndarray
    fringe_period_fs: float
    predicted_period_fs: float
    visibility: float
    flat_oscillation: bool

    def __post_init__(self):
        if np.any(np.asarray(self.probability) < -1e-12):
            raise ValueError("coincidence probability must be nonnegative")
        if not (-1e-12 <= self.visibility <= 1 + 1e-12):
            raise ValueError("visibility must lie in [0, 1]")


def _fourier_period(dt_grid, oscillatory, pad=16):
    """Dominant period of a real signal via zero-padded DFT with parabolic
    refinement of the peak bin.

    The signal is padded to the first power of two at or above pad times its
    length: a length with a large prime factor sends the FFT down a slow path
    that also needs several times the memory.
    """
    step = dt_grid[1] - dt_grid[0]
    sig = oscillatory - np.mean(oscillatory)
    size = 1 << (pad * len(sig) - 1).bit_length()
    spec = np.abs(np.fft.rfft(sig, n=size))
    freqs = np.fft.rfftfreq(size, d=step)
    k = int(np.argmax(spec[1:])) + 1
    if 1 <= k < len(spec) - 1:
        y0, y1, y2 = spec[k - 1], spec[k], spec[k + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    else:
        shift = 0.0
    f_peak = (k + shift) * (freqs[1] - freqs[0])
    return 1.0 / f_peak if f_peak > 0 else np.inf


def scan_interference(config, dt_min_fs, dt_max_fs, samples):
    """Scan P over a dt grid and extract period and visibility.

    Raises AliasingError when the grid puts fewer than 16 samples on the
    expected fringe period h/|dE|.
    """
    if samples < 2 or dt_max_fs <= dt_min_fs:
        raise ValueError("need an increasing dt range and samples >= 2")
    grid = np.linspace(dt_min_fs, dt_max_fs, samples)
    step = grid[1] - grid[0]
    expected = fringe_period_fs(config.delta_e_ev)
    flat = not np.isfinite(expected)
    if not flat and expected / step < 16:
        raise AliasingError(
            f"grid step {step:.4g} fs gives {expected / step:.1f} samples per "
            f"expected period {expected:.4g} fs; need at least 16")
    env = direct_part(config, grid)
    osc = interference_part(config, grid)
    prob = env + osc
    if flat:
        period = np.inf
    else:
        period = _fourier_period(grid, osc)
    # fringe visibility: oscillation amplitude relative to the strongest
    # direct signal; 1 for perfectly overlapping pulses, ~0 when the
    # emission spacing kills the envelope overlap
    env_max = float(np.max(env))
    visibility = 0.0 if env_max == 0 else float(np.max(np.abs(osc))) / env_max
    visibility = min(max(visibility, 0.0), 1.0)
    return InterferenceResult(grid, prob, env, osc, float(period),
                              float(expected), visibility, flat)


def feasibility_report(config):
    """Energy-spread feasibility summary for temporal coherence.

    Compares the computed minimal energy spread hbar / (2 * emission spacing)
    with two literature-quoted scales (a 1e-3 eV threshold and a 1e-6 eV
    natural linewidth); the discrepancy flag records that the quoted
    threshold does not follow from the stated uncertainty formula.
    """
    spacing = abs(config.emission_spacing_fs)
    computed = np.inf if spacing == 0 else energy_spread_for_time_width(spacing)
    quoted_threshold_ev = 1e-3
    quoted_linewidth_ev = 1e-6
    return {
        "emission_spacing_fs": spacing,
        "computed_min_delta_e_ev": computed,
        "quoted_threshold_ev": quoted_threshold_ev,
        "quoted_linewidth_ev": quoted_linewidth_ev,
        "threshold_discrepancy": bool(
            np.isfinite(computed)
            and abs(computed - quoted_threshold_ev) > 0.5 * computed),
        "linewidth_allows_coherence": quoted_linewidth_ev
        < (computed if np.isfinite(computed) else np.inf),
    }
