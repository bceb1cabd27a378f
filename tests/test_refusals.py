"""Constructors and functions refuse malformed input with a ValueError."""

import numpy as np
import pytest

from shpqm import dirac, evolution as ev, little_group as lg, minkowski as mk
from shpqm import spin_coupling as sc

N0 = mk.N0
UP, DOWN = sc.spin_half(1, 0), sc.spin_half(0, 1)
SPIN_ONE = sc.SpinState(1.0, [1.0, 0.0, 0.0], N0)
HALF_ONE = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])     # (2j1+1, 2j2+1) for 1/2, 1
PACKET = ev.MomentumPacket.gaussian_energy_axis(35.0, 0.5, [0.0, 0.0, 1.0], 511000.0, num=8)

REFUSALS = {
    "four-vector-nan": (lambda: mk.four_vector(np.nan), "must be finite"),
    "unknown-axis": (lambda: mk.axis_vector("w"), "unknown axis 'w'"),
    "axis-of-two": (lambda: mk.axis_vector([1.0, 0.0]), "nonzero 3-vector"),
    "lorentz-3x3": (lambda: mk.check_proper_lorentz(np.eye(3)), "must be 4x4"),
    "phase-point-3": (lambda: ev.PhasePoint(np.zeros(3), np.zeros(4)),
                      "must be four-vectors"),
    "packet-momenta-3": (lambda: ev.MomentumPacket(
        PACKET.momenta[:, 1:], PACKET.amplitudes, PACKET.weights, 1.0, N0),
        "shape (N, 4)"),
    "packet-amplitudes": (lambda: ev.MomentumPacket(
        PACKET.momenta, PACKET.amplitudes[1:], PACKET.weights, 1.0, N0),
        "must match the grid"),
    # unit amplitudes on weights (2, -1, 2, -2) pass the norm check; on these
    # momenta the mass variance read -1.14e5
    "packet-weight-negative": (lambda: ev.MomentumPacket(
        PACKET.momenta[:4], np.ones(4, complex), [2.0, -1.0, 2.0, -2.0], 1.0, N0),
        "weights must be finite and >= 0, got -1.0 at index 1"),
    "packet-weight-nan": (lambda: ev.MomentumPacket(
        PACKET.momenta[:3], np.ones(3, complex), [0.5, 0.5, np.nan], 1.0, N0),
        "weights must be finite and >= 0, got nan at index 2"),
    "packet-weight-inf": (lambda: ev.MomentumPacket(
        PACKET.momenta[:2], np.ones(2, complex), [np.inf, 0.0], 1.0, N0),
        "weights must be finite and >= 0, got inf at index 0"),
    "packet-amplitude-inf": (lambda: ev.MomentumPacket(
        PACKET.momenta, np.where(np.arange(8) == 5, np.inf, PACKET.amplitudes),
        PACKET.weights, 1.0, N0), "amplitudes must be finite, got (inf+0j) at index 5"),
    "induced-three-spins": (lambda: lg.InducedPacketState(
        N0, [1.0, 0.0, 0.0], np.zeros(4), np.zeros(4)), "length 2"),
    "induced-unnormalised": (lambda: lg.InducedPacketState(
        N0, [1.0, 1.0], np.zeros(4), np.zeros(4)), "must be normalized"),
    "induced-width-0": (lambda: lg.InducedPacketState(
        N0, [1.0, 0.0], np.zeros(4), np.zeros(4), 0.0), "width must be positive"),
    "induced-width-nan": (lambda: lg.InducedPacketState(
        N0, [1.0, 0.0], np.zeros(4), np.zeros(4), np.nan), "positive and finite, got nan"),
    "induced-center-nan": (lambda: lg.InducedPacketState(
        N0, [1.0, 0.0], [np.nan] * 4, np.zeros(4)), "center_x must be a finite four-vector"),
    "induced-momentum-3": (lambda: lg.InducedPacketState(
        N0, [1.0, 0.0], np.zeros(4), np.zeros(3)), "center_p must be a finite four-vector"),
    "field-not-antisymmetric": (lambda: dirac.FieldTensor(np.eye(4), 1.0, 1.0),
                                "exactly antisymmetric"),
    "spin-0.3": (lambda: sc.SpinState(0.3, [1.0], N0), "not a half-integer spin"),
    "spin-length": (lambda: sc.SpinState(0.5, [1.0, 0.0, 0.0], N0), "length must be 2j+1"),
    "spin-unnormalised": (lambda: sc.SpinState(0.5, [1.0, 1.0], N0), "must be normalized"),
    "two-body-shape": (lambda: sc.TwoBodySpinState(0.5, 0.5, HALF_ONE, N0),
                       "shape must be (2j1+1, 2j2+1)"),
    "two-body-unknown-tag": (lambda: sc.TwoBodySpinState(
        0.5, 0.5, np.eye(2) / np.sqrt(2), N0, symmetry_tag="odd"), "unknown symmetry tag"),
    "two-body-tag-unequal-spins": (lambda: sc.TwoBodySpinState(
        0.5, 1.0, HALF_ONE, N0, symmetry_tag="symmetric"), "requires j1 = j2"),
    "two-body-tag-broken": (lambda: sc.TwoBodySpinState(
        0.5, 0.5, np.eye(2) / np.sqrt(2), N0, symmetry_tag="antisymmetric"),
        "not antisymmetric"),
    "couple-no-component": (lambda: sc.couple_two(UP, UP, 0.0, 0.0),
                            "no (J=0.0, M=0.0) component"),
    "symmetrize-sign-2": (lambda: sc.symmetrize(UP, DOWN, 2), "sign must be +1 or -1"),
    "symmetrize-different-spins": (lambda: sc.symmetrize(UP, SPIN_ONE, 1),
                                   "requires identical spins"),
    "exchange-unequal-spins": (lambda: sc.exchange(sc.TwoBodySpinState(
        0.5, 1.0, HALF_ONE, N0)), "identical spins only"),
    "couple-sequence-targets": (lambda: sc.couple_sequence([UP, DOWN, UP], [1.0]),
                                "N-1 coupling targets"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)
