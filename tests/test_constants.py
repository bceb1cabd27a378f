"""Tests for the unit-boundary conversions."""

import math

import pytest

from shpqm import constants


def test_energy_width_conversion():
    assert constants.energy_spread_for_time_width(0.75) == pytest.approx(
        0.4388, abs=2e-4)


def test_fringe_period():
    assert constants.fringe_period_fs(4.2) == pytest.approx(0.9847, abs=1e-4)
    assert constants.fringe_period_fs(-4.2) == constants.fringe_period_fs(4.2)
    assert constants.fringe_period_fs(0.0) == math.inf
