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
from functools import cached_property

import numpy as np

from . import minkowski
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
        minkowski.positive(self.sigma_t_fs, "pulse width")
        minkowski.positive(self.e1_ev, "energy e1_ev")
        minkowski.positive(self.e2_ev, "energy e2_ev")
        minkowski.finite(self.t_emit1_fs, "t_emit1_fs")
        minkowski.finite(self.t_emit2_fs, "t_emit2_fs")

    @property
    def delta_e_ev(self):
        return self.e2_ev - self.e1_ev

    @property
    def emission_spacing_fs(self):
        return self.t_emit2_fs - self.t_emit1_fs


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


def coincidence_probability_quadrature(config, dt_fs):
    """Trapezoid quadrature of |A|^2 over the mean time (oracle)."""
    center = 0.5 * (config.t_emit1_fs + config.t_emit2_fs)
    half = 12.0 * config.sigma_t_fs + abs(dt_fs)
    t_mean = np.linspace(center - half, center + half, 4001)
    vals = np.abs(amplitude_relative(config, t_mean, dt_fs)) ** 2
    return float(np.trapezoid(vals, t_mean))


@dataclass(frozen=True)
class InterferenceResult:
    dt_grid_fs: np.ndarray
    probability: np.ndarray
    envelope: np.ndarray
    interference: np.ndarray
    predicted_period_fs: float
    visibility: float
    flat_oscillation: bool

    def __post_init__(self):
        if np.any(np.asarray(self.probability) < -1e-12):
            raise ValueError("coincidence probability must be nonnegative")

    @cached_property
    def fringe_period_fs(self):
        """Dominant period of the oscillatory term, inf when it is flat;
        estimated on first read, so a scan that never reports it does no
        spectral work."""
        if self.flat_oscillation:
            return np.inf
        return _dtft_period(self.dt_grid_fs, self.interference)


NEWTON_STEPS = 8


def _dtft_period(dt_grid, signal):
    """Dominant period of a real signal: the maximiser of its DTFT power.

    The peak bin of an unpadded power-of-two rfft is refined by Newton steps
    on P(f) = |S0|^2, where S_j = sum (-2 pi i t)^j s exp(-2 pi i f t), so
    P' = 2 Re(conj(S0) S1) and P'' = 2 (|S1|^2 + Re(conj(S0) S2)) (Rife &
    Boorstyn, IEEE Trans. Inf. Theory 20, 591 (1974)).  The signal is not
    mean-subtracted, which would move the peak.  t counts samples from the
    middle of the grid: a shift of t leaves P unchanged and keeps S1, S2 small.

    Raises ValueError when the signal is zero, when an iterate leaves the
    coarse bin +-1, when NEWTON_STEPS steps do not converge to |step| <=
    1e-13 f, or when the converged peak is lower than the coarse bin (a side
    lobe).
    """
    size = 1 << (len(signal) - 1).bit_length()
    spec = np.abs(np.fft.rfft(signal, n=size))
    k = int(np.argmax(spec[1:])) + 1
    if not spec[k] > 0:
        raise ValueError("no oscillation to take a fringe period from")
    m = np.arange(len(signal)) - 0.5 * (len(signal) - 1)
    moments = np.stack([signal, signal * m, signal * m * m])
    scale = np.array([1.0, -2j * np.pi, -4 * np.pi**2])
    f = k / size
    for _ in range(NEWTON_STEPS):
        arg = (2 * np.pi * f) * m
        s0, s1, s2 = scale * (moments @ np.cos(arg) - 1j * (moments @ np.sin(arg)))
        df = -(s0.conjugate() * s1).real / (abs(s1) ** 2 + (s0.conjugate() * s2).real)
        f += df
        if not (k - 1) / size < f < (k + 1) / size:
            raise ValueError(f"fringe frequency left the coarse DFT bin {k} +- 1 "
                             f"of {size}")
        if abs(df) <= 1e-13 * f:
            if abs(s0) < (1 - 1e-8) * spec[k]:
                raise ValueError("fringe frequency converged to a side lobe")
            return float((dt_grid[1] - dt_grid[0]) / f)
    raise ValueError(f"fringe frequency not converged in {NEWTON_STEPS} "
                     f"Newton steps (last step {df:.3g} of {f:.6g} per sample)")


def scan_interference(config, dt_min_fs, dt_max_fs, samples):
    """Scan P over a dt grid and measure the fringe visibility; the result
    estimates its fringe period when that is first read.

    Raises AliasingError when the grid puts fewer than 16 samples on the
    expected fringe period h/|dE|, and ValueError when a value of the scan
    overflows or is undefined (such as a pulse width whose square underflows).
    """
    if samples < 2 or not dt_max_fs > dt_min_fs:
        raise ValueError("need an increasing dt range and samples >= 2")
    grid = np.linspace(dt_min_fs, dt_max_fs, samples)
    step = grid[1] - grid[0]
    expected = fringe_period_fs(config.delta_e_ev)
    flat = not np.isfinite(expected)
    if not flat and expected / step < 16:
        raise AliasingError(
            f"grid step {step:.4g} fs gives {expected / step:.1f} samples per "
            f"expected period {expected:.4g} fs; need at least 16")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            env = direct_part(config, grid)
            osc = interference_part(config, grid)
            prob = env + osc
    except ArithmeticError as exc:  # FloatingPointError, and Python's float errors
        raise ValueError(f"scan is out of floating-point range for dt in [{dt_min_fs!r},"
                         f" {dt_max_fs!r}] fs, pulse width {config.sigma_t_fs!r} fs and"
                         f" emission spacing {config.emission_spacing_fs!r} fs") from exc
    # fringe visibility: oscillation amplitude relative to the strongest
    # direct signal; 1 for perfectly overlapping pulses, ~0 when the
    # emission spacing kills the envelope overlap
    env_max = float(np.max(env))
    visibility = 0.0 if env_max == 0 else float(np.max(np.abs(osc))) / env_max
    visibility = min(max(visibility, 0.0), 1.0)
    return InterferenceResult(grid, prob, env, osc, float(expected),
                              visibility, flat)


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
