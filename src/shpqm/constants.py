"""Physical constants and unit-boundary conversions.

The core modules work in natural units (hbar = c = 1).  These constants are
used only where eV/fs laboratory units enter or leave the library.
"""

import math

# CODATA 2018
HBAR_EV_FS = 0.6582119569   # reduced Planck constant, eV * fs
H_EV_FS = 4.135667696       # Planck constant, eV * fs
ELECTRON_MASS_EV = 510998.95  # electron rest energy, eV


def energy_spread_for_time_width(dt_fs):
    """Minimum-uncertainty energy spread (eV) for a Gaussian of std dt_fs."""
    return HBAR_EV_FS / (2.0 * dt_fs)


def fringe_period_fs(delta_e_ev):
    """Oscillation period h/|dE| (fs) for an energy splitting in eV; infinite
    when dE = 0."""
    if delta_e_ev == 0:
        return math.inf
    return H_EV_FS / abs(delta_e_ev)
