"""Tests for the two-electron unequal-time interference computation."""

from pathlib import Path

import numpy as np
import pytest

from shpqm import cli, interference as itf, spin_coupling as sc
from shpqm.constants import H_EV_FS, HBAR_EV_FS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reference_config(**overrides):
    params = dict(e1_ev=35.0, e2_ev=39.2, t_emit1_fs=0.0, t_emit2_fs=0.75,
                  sigma_t_fs=0.5)
    params.update(overrides)
    return itf.EmissionConfig(**params)


def test_config_validation():
    with pytest.raises(ValueError):
        reference_config(sigma_t_fs=0.0)
    with pytest.raises(ValueError):
        reference_config(e1_ev=-1.0)


def test_amplitude_is_symmetric():
    cfg = reference_config()
    rng = np.random.default_rng(0)
    for _ in range(50):
        t1, t2 = rng.normal(scale=1.5, size=2)
        assert itf.amplitude(cfg, t1, t2) == pytest.approx(
            itf.amplitude(cfg, t2, t1), abs=1e-14)


def test_degenerate_amplitude_factorizes():
    cfg = reference_config(e2_ev=35.0, t_emit2_fs=0.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        t1, t2 = rng.normal(scale=1.0, size=2)
        expect = (2.0 * itf.envelope(t1, 0.0, 0.5) * itf.envelope(t2, 0.0, 0.5)
                  * np.exp(-1j * 35.0 * (t1 + t2) / HBAR_EV_FS))
        assert itf.amplitude(cfg, t1, t2) == pytest.approx(expect, abs=1e-12)


def test_relative_coordinate_form_agrees():
    cfg = reference_config()
    rng = np.random.default_rng(2)
    for _ in range(100):
        t1, t2 = rng.normal(scale=2.0, size=2)
        t_mean, dt = 0.5 * (t1 + t2), t2 - t1
        assert abs(itf.amplitude(cfg, t1, t2)
                   - itf.amplitude_relative(cfg, t_mean, dt)) < 1e-12
    assert itf.from_relative_coords(1.5, 1.0) == (1.0, 2.0)
    assert itf.from_relative_coords(0.0, 0.0) == (0.0, 0.0)


def test_total_state_antisymmetric():
    # spacetime factor symmetric, spin singlet antisymmetric
    cfg = reference_config()
    singlet = sc.singlet()
    exchanged_spin = sc.exchange(singlet)
    t1, t2 = 0.4, 1.3
    total = itf.amplitude(cfg, t1, t2) * singlet.coefficients
    swapped = itf.amplitude(cfg, t2, t1) * exchanged_spin.coefficients
    assert np.max(np.abs(total + swapped)) < 1e-14


def test_closed_form_matches_quadrature():
    cfg = reference_config()
    for dt in np.linspace(-3.0, 3.0, 25):
        closed = itf.coincidence_probability(cfg, dt)
        quad = itf.coincidence_probability_quadrature(cfg, dt)
        assert abs(closed - quad) <= 1e-6 * max(abs(quad), 1e-12)


def test_probability_nonnegative_and_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cfg = reference_config(e2_ev=35.0 + rng.uniform(0, 40),
                           t_emit2_fs=rng.uniform(0, 2),
                           sigma_t_fs=rng.uniform(0.2, 1.0))
        grid = np.linspace(-6, 6, 501)
        p = itf.coincidence_probability(cfg, grid)
        assert np.all(p >= -1e-12)
    # symmetric configuration: equal widths, offset absorbed
    cfg = reference_config()
    grid = np.linspace(0.0, 5.0, 100)
    assert np.allclose(itf.coincidence_probability(cfg, grid),
                       itf.coincidence_probability(cfg, -grid), atol=1e-14)


def test_fringe_period_corrected_energies():
    cfg = reference_config()
    res = itf.scan_interference(cfg, -4.0, 4.0, 4001)
    assert res.fringe_period_fs == pytest.approx(H_EV_FS / 4.2, abs=1e-3)
    assert res.predicted_period_fs == pytest.approx(0.9847, abs=1e-3)


def test_fringe_period_raw_energies():
    cfg = reference_config(e2_ev=69.0)
    res = itf.scan_interference(cfg, -2.0, 2.0, 8001)
    assert res.fringe_period_fs == pytest.approx(H_EV_FS / 34.0, abs=5e-4)
    assert res.predicted_period_fs == pytest.approx(0.1216, abs=5e-4)


def test_fringe_period_against_peak_spacing_oracle():
    cfg = reference_config()
    grid = np.linspace(-4.0, 4.0, 16001)
    osc = itf.interference_part(cfg, grid) / np.exp(
        -(grid**2 + 0.75**2) / (4 * 0.25))  # divide out the envelope
    # successive maxima of the pure cosine
    peaks = [grid[i] for i in range(1, len(grid) - 1)
             if osc[i] > osc[i - 1] and osc[i] > osc[i + 1]]
    spacings = np.diff(peaks)
    res = itf.scan_interference(cfg, -4.0, 4.0, 4001)
    assert np.mean(spacings) == pytest.approx(res.fringe_period_fs, abs=1e-3)


def test_energy_shift_leaves_pattern_unchanged():
    cfg = reference_config()
    shifted = reference_config(e1_ev=35.0 + 511000.0, e2_ev=39.2 + 511000.0)
    grid = np.linspace(-4.0, 4.0, 1001)
    assert np.max(np.abs(itf.coincidence_probability(cfg, grid)
                         - itf.coincidence_probability(shifted, grid))) < 1e-10


def test_equal_energies_flat_oscillation():
    cfg = reference_config(e2_ev=35.0)
    res = itf.scan_interference(cfg, -4.0, 4.0, 1001)
    assert res.flat_oscillation
    assert np.isinf(res.fringe_period_fs)


def test_visibility_extremes():
    overlapped = reference_config(t_emit2_fs=0.0)
    res = itf.scan_interference(overlapped, -4.0, 4.0, 4001)
    assert res.visibility == pytest.approx(1.0, abs=1e-6)
    far = reference_config(t_emit2_fs=5.0)
    res = itf.scan_interference(far, -8.0, 8.0, 8001)
    assert res.visibility < 1e-5


def test_aliasing_guard():
    cfg = reference_config(e2_ev=69.0)
    with pytest.raises(itf.AliasingError):
        itf.scan_interference(cfg, -4.0, 4.0, 60)


def test_fourier_peak_matches_energy_difference():
    cfg = reference_config()
    res = itf.scan_interference(cfg, -4.0, 4.0, 4001)
    step = res.dt_grid_fs[1] - res.dt_grid_fs[0]
    bin_width = 1.0 / (len(res.dt_grid_fs) * step)
    freq = 1.0 / res.fringe_period_fs
    assert abs(freq - 4.2 / H_EV_FS) <= bin_width


@pytest.mark.parametrize("source, rel_tol", [
    # the DTFT peak of the raw signal sits 1e-8 from h/|dE| on the example;
    # the wide split's envelope, cut off at +-2 fs, moves it by 1.2e-5
    ("interference_example.cfg", 1e-6),
    ("interference_wide_split.cfg", 2e-5),
    (None, 1e-6),
])
def test_extracted_period_matches_prediction(source, rel_tol):
    if source is None:        # a benchmark-sized scan of 400001 samples
        cfg, lo, hi, samples = itf.EmissionConfig(30.0, 38.0, 0.1, 0.6, 0.7), -4.7, 4.7, 400001
    else:
        values = cli.load_config(CONFIGS / source)
        cfg = itf.EmissionConfig(*(float(values[k]) for k in (
            "e1_ev", "e2_ev", "t_emit1_fs", "t_emit2_fs", "sigma_t_fs")))
        lo, hi = float(values["dt_min_fs"]), float(values["dt_max_fs"])
        samples = int(values["samples"])
    res = itf.scan_interference(cfg, lo, hi, samples)
    assert res.fringe_period_fs == pytest.approx(res.predicted_period_fs, rel=rel_tol)


def test_period_estimated_once_and_only_when_read(monkeypatch):
    calls = []
    estimator = itf._dtft_period
    monkeypatch.setattr(itf, "_dtft_period",
                        lambda *a: calls.append(1) or estimator(*a))
    res = itf.scan_interference(reference_config(), -4.0, 4.0, 4001)
    assert calls == []
    assert res.fringe_period_fs == res.fringe_period_fs
    assert calls == [1]


def tone(offset_bins, size=1024):
    """A full-window cosine `offset_bins` above DFT bin 100 of `size`."""
    n = np.arange(size, dtype=float)
    return n, np.cos(2 * np.pi * (100 + offset_bins) / size * n)


@pytest.mark.parametrize("offset_bins", [0.0, 0.3, 0.5, 0.8])
def test_period_estimator_on_a_gaussian_tone(offset_bins):
    # a Gaussian window keeps the negative-frequency image from moving the
    # peak, so the DTFT maximiser is the tone's frequency
    n, s = tone(offset_bins)
    s *= np.exp(-0.5 * ((n - 512.0) / 60.0) ** 2)
    assert itf._dtft_period(n, s) == pytest.approx(1024 / (100 + offset_bins), rel=1e-10)


@pytest.mark.parametrize("offset_bins, message", [
    # half a bin off the peak of a rectangular window's main lobe is outside
    # its concave core: Newton leaves the coarse bin or lands on a side lobe
    (0.45, "left the coarse DFT bin"),
    (0.5, "side lobe"),
])
def test_period_estimator_raises_off_the_peak(offset_bins, message):
    with pytest.raises(ValueError, match=message):
        itf._dtft_period(*tone(offset_bins))


def test_period_estimator_raises_when_not_converged(monkeypatch):
    res = itf.scan_interference(reference_config(), -4.0, 4.0, 4001)
    monkeypatch.setattr(itf, "NEWTON_STEPS", 1)
    with pytest.raises(ValueError, match="not converged in 1 Newton steps"):
        res.fringe_period_fs


def test_period_estimator_raises_on_a_zero_signal():
    with pytest.raises(ValueError, match="no oscillation"):
        itf._dtft_period(np.arange(64.0), np.zeros(64))


def test_feasibility_report_contents():
    report = itf.feasibility_report(reference_config())
    assert report["computed_min_delta_e_ev"] == pytest.approx(
        HBAR_EV_FS / 1.5, abs=1e-12)
    assert report["quoted_threshold_ev"] == 1e-3
    assert report["quoted_linewidth_ev"] == 1e-6
    assert report["threshold_discrepancy"] is True
    assert report["linewidth_allows_coherence"] is True


def test_scan_runtime(benchmarkish_timer=None):
    import time
    cfg = reference_config()
    start = time.perf_counter()
    itf.scan_interference(cfg, -4.0, 4.0, 4001)
    assert time.perf_counter() - start < 5.0
