"""Constructors and functions refuse malformed input with a ValueError or
TypeError whose message is one line, and no numpy warning on the way."""

import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from shpqm import dirac, evolution as ev, interference as itf, little_group as lg
from shpqm import minkowski as mk, sl2c, spin_coupling as sc

N0 = mk.N0
UP, DOWN = sc.spin_half(1, 0), sc.spin_half(0, 1)
SPIN_ONE = sc.SpinState(1.0, [1.0, 0.0, 0.0], N0)
HALF_ONE = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])     # (2j1+1, 2j2+1) for 1/2, 1
PACKET = ev.MomentumPacket.gaussian_energy_axis(35.0, 0.5, [0.0, 0.0, 1.0], 511000.0, num=8)
START = ev.PhasePoint(np.zeros(4), mk.four_vector(1.0, 0.1, 0.0, 0.0))
I2 = np.eye(2, dtype=complex)
N3 = [1.0, 0.0, 0.0]
HALF_HALF = np.eye(2) / np.sqrt(2)

# Every constructor argument that must be a finite real number.
TAKES_SCALAR = {
    "PhasePoint.tau": lambda x: ev.PhasePoint(np.zeros(4), np.zeros(4), x),
    "MomentumPacket.tau": lambda x: ev.MomentumPacket(
        PACKET.momenta, PACKET.amplitudes, PACKET.weights, 1.0, N0, x),
    "gaussian_energy_axis.tau": lambda x: ev.MomentumPacket.gaussian_energy_axis(
        35.0, 0.5, [0.0, 0.0, 1.0], 511000.0, num=8, tau=x),
    "SpinState.tau": lambda x: sc.SpinState(0.5, [1.0, 0.0], N0, x),
    "spin_half.tau": lambda x: sc.spin_half(1.0, 0.0, tau=x),
    "singlet.tau": lambda x: sc.singlet(tau=x),
    "TwoBodySpinState.tau": lambda x: sc.TwoBodySpinState(0.5, 0.5, HALF_HALF, N0, x),
    "FieldTensor.charge": lambda x: dirac.FieldTensor(np.zeros((4, 4)), x, 1.0),
    "EmissionConfig.t_emit1_fs": lambda x: itf.EmissionConfig(30.0, 38.0, x, 0.6, 0.7),
    "EmissionConfig.t_emit2_fs": lambda x: itf.EmissionConfig(30.0, 38.0, 0.1, x, 0.7),
}
# SpinState and TwoBodySpinState took any tau, so couple_two joined spins at
# tau = NaN and 5; PhasePoint and MomentumPacket took a complex tau
BAD_TAU = {"nan": np.nan, "inf": np.inf, "complex": 1j, "str": "0.5"}
TAU_REFUSALS = {
    f"{constructor}-{kind}": (lambda make=TAKES_SCALAR[constructor], tau=tau: make(tau),
                              f"tau must be a finite real number, got {tau!r}")
    for constructor in ("PhasePoint.tau", "MomentumPacket.tau", "SpinState.tau",
                        "TwoBodySpinState.tau")
    for kind, tau in BAD_TAU.items()}

REFUSALS = {
    "four-vector-nan": (lambda: mk.four_vector(np.nan), "must be finite"),
    "unknown-axis": (lambda: mk.axis_vector("w"), "unknown axis 'w'"),
    "axis-of-two": (lambda: mk.axis_vector([1.0, 0.0]), "nonzero 3-vector"),
    "lorentz-3x3": (lambda: mk.check_proper_lorentz(np.eye(3)), "must be 4x4"),
    "phase-point-3": (lambda: ev.PhasePoint(np.zeros(3), np.zeros(4)),
                      "must be four-vectors"),
    "packet-momenta-3": (lambda: ev.MomentumPacket(
        PACKET.momenta[:, 1:], PACKET.amplitudes, PACKET.weights, 1.0, N0),
        "momenta must be four-vectors"),
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
        N0, [1.0, 0.0], [np.nan] * 4, np.zeros(4)), "center_x must be finite"),
    "induced-momentum-3": (lambda: lg.InducedPacketState(
        N0, [1.0, 0.0], np.zeros(4), np.zeros(3)), "center_p must be four-vectors"),
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
    # an M that is not one of -J..J used to give a zero matrix, and couple_two
    # to report a missing component
    "cg-matrix-m-0.3": (lambda: sc.cg_matrix(0.5, 0.5, 1.0, 0.3),
                        "invalid magnetic number m=0.3 for j=1.0"),
    "cg-matrix-m-2": (lambda: sc.cg_matrix(0.5, 0.5, 1.0, 2.0),
                      "invalid magnetic number m=2.0 for j=1.0"),
    "couple-m-0.5": (lambda: sc.couple_two(UP, UP, 1, 0.5),
                     "invalid magnetic number m=0.5 for j=1"),
    "symmetrize-sign-2": (lambda: sc.symmetrize(UP, DOWN, 2), "sign must be +1 or -1"),
    "symmetrize-different-spins": (lambda: sc.symmetrize(UP, SPIN_ONE, 1),
                                   "requires identical spins"),
    "exchange-unequal-spins": (lambda: sc.exchange(sc.TwoBodySpinState(
        0.5, 1.0, HALF_ONE, N0)), "identical spins only"),
    "couple-sequence-targets": (lambda: sc.couple_sequence([UP, DOWN, UP], [1.0]),
                                "N-1 coupling targets"),
    # a foliation vector of three components used to raise IndexError
    "packet-n-3": (lambda: ev.MomentumPacket(
        PACKET.momenta, PACKET.amplitudes, PACKET.weights, 1.0, N3),
        "n must be four-vectors (last axis 4), got shape (3,)"),
    "wigner-d-n-3": (lambda: lg.wigner_d(I2, N3), "n must be four-vectors"),
    "canonical-boost-n-3": (lambda: sl2c.canonical_boost(N3), "n must be four-vectors"),
    "spin-state-n-3": (lambda: sc.SpinState(0.5, [1.0, 0.0], N3), "n must be four-vectors"),
    "induced-n-3": (lambda: lg.InducedPacketState(N3, [1.0, 0.0], np.zeros(4), np.zeros(4)),
                    "n must be four-vectors"),
    "transport-n-3": (lambda: lg.transport(I2, N3), "n must be four-vectors"),
    # complex input used to lose its imaginary part with a ComplexWarning
    "packet-weights-complex": (lambda: ev.MomentumPacket(
        PACKET.momenta, PACKET.amplitudes, PACKET.weights + 1j, 1.0, N0),
        "weights must be real numbers, got dtype complex128"),
    "packet-n-complex": (lambda: ev.MomentumPacket(
        PACKET.momenta, PACKET.amplitudes, PACKET.weights, 1.0, N0 + 0j),
        "n must be real numbers, got dtype complex128"),
    "phase-point-x-complex": (lambda: ev.PhasePoint(np.zeros(4) + 1j, np.zeros(4)),
                              "x must be real numbers, got dtype complex128"),
    "transport-n-complex": (lambda: lg.transport(I2, N0 + 1j), "n must be real numbers"),
    # free_evolve's phase cache raised struct.error
    "free-evolve-dtau-str": (lambda: ev.free_evolve(PACKET, "1"),
                             "dtau must be a real number, got '1'"),
    "free-evolve-dtau-none": (lambda: ev.free_evolve(PACKET, None),
                              "dtau must be a real number, got None"),
    "free-evolve-dtau-complex": (lambda: ev.free_evolve(PACKET, 1j),
                                 "dtau must be a real number, got 1j"),
    "integrate-dtau-str": (lambda: ev.classical_integrate(START, ev.FreeModel(1.0), "0.1", 3),
                           "dtau must be positive and finite, got '0.1'"),
    "integrate-steps-2.5": (lambda: ev.classical_integrate(START, ev.FreeModel(1.0), 0.1, 2.5),
                            "steps must be non-negative and an integer, got 2.5"),
    "gaussian-num-2.5": (lambda: ev.MomentumPacket.gaussian_energy_axis(
        35.0, 0.5, [0.0, 0.0, 1.0], 511000.0, num=2.5),
        "energy grid needs at least 2 samples (integer num), got 2.5"),
    "field-charge-nan": (lambda: dirac.FieldTensor(np.zeros((4, 4)), np.nan, 1.0),
                         "charge must be a finite real number, got nan"),
    "field-mass-str": (lambda: dirac.FieldTensor(np.zeros((4, 4)), 1.0, "1"),
                       "mass parameter must be positive and finite, got '1'"),
    "emission-t1-nan": (lambda: itf.EmissionConfig(30.0, 38.0, np.nan, 0.6, 0.7),
                        "t_emit1_fs must be a finite real number, got nan"),
    "emission-e1-inf": (lambda: itf.EmissionConfig(np.inf, 38.0, 0.1, 0.6, 0.7),
                        "energy e1_ev must be positive and finite, got inf"),
    "emission-sigma-inf": (lambda: itf.EmissionConfig(30.0, 38.0, 0.1, 0.6, np.inf),
                           "pulse width must be positive and finite, got inf"),
    "field-charge-complex": (lambda: TAKES_SCALAR["FieldTensor.charge"](1j),
                             "charge must be a finite real number, got 1j"),
    "emission-t2-complex": (lambda: TAKES_SCALAR["EmissionConfig.t_emit2_fs"](0.6 + 1j),
                            "t_emit2_fs must be a finite real number, got (0.6+1j)"),
    # NaN coefficients used to pass the norm check, and (0, 0) to divide by zero
    "spin-state-nan": (lambda: sc.SpinState(0.5, [np.nan, np.nan], N0), "must be normalized"),
    "induced-spin-nan": (lambda: lg.InducedPacketState(
        N0, [np.nan, 0.0], np.zeros(4), np.zeros(4)), "must be normalized"),
    "spin-half-zero": (lambda: sc.spin_half(0, 0),
                       "spin_half amplitudes must be finite and not both 0, got 0, 0"),
    "spin-state-str": (lambda: sc.SpinState(0.5, ["1", "0"], N0),
                       "spin coefficients must be numbers, got dtype <U1"),
    # a NaN pair gave a NaN sector norm, a 3-spinor a matmul error later on
    "pair-psi-nan": (lambda: dirac.TwoSpinorPair([np.nan, 0.0], [0.0, 1.0], N0),
                     "psi must be finite"),
    "pair-phi-3": (lambda: dirac.TwoSpinorPair([1.0, 0.0], [1.0, 0.0, 0.0], N0),
                   "phi must be 2-spinors (last axis 2), got shape (3,)"),
    # squares that overflow: numpy's overflow warning used to come, not a refusal
    "pair-phi-huge": (lambda: dirac.TwoSpinorPair([1.0, 0.0], [1e200, 0.0], N0),
                      "phi must be finite, with a finite squared norm, got [(1e+200+0j), 0j]"),
    "packet-amplitude-huge": (lambda: ev.MomentumPacket(
        PACKET.momenta, np.where(np.arange(8) == 2, 1e200, PACKET.amplitudes),
        PACKET.weights, 1.0, N0), "packet must be normalized to 1 within 1e-8"),
    # n0^2 overflows: numpy's overflow warning used to come before the refusal
    "unit-n-overflow": (lambda: mk.check_unit_timelike_future([1e200, 0.0, 0.0, 0.0]),
                        "expected unit future-timelike vector"),
    **TAU_REFUSALS,
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_input_is_refused(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, TypeError)) as info:
            call()
    assert message in str(info.value)
    assert "\n" not in str(info.value)


# Every public entry point that takes a foliation vector n and checks it.
# The batch kernels that verify runs on drawn samples (k_all, sigma_n_pairs,
# k_l, moved, ...) trust their input and are not listed.
FIELD = dirac.FieldTensor.from_fields([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
P = mk.four_vector(2.0, 0.3, -0.4, 0.5)
TAKES_N = {
    "check_unit_timelike_future": mk.check_unit_timelike_future,
    "four_vectors": lambda n: mk.four_vectors(n, "n"),
    "unit_timelike": mk.unit_timelike,
    "canonical_boost": sl2c.canonical_boost,
    "wigner_d": lambda n: lg.wigner_d(I2, n),
    "transport": lambda n: lg.transport(I2, n),
    "InducedPacketState": lambda n: lg.InducedPacketState(
        n, [1.0, 0.0], np.zeros(4), np.zeros(4)),
    "free_k0": lambda n: dirac.free_k0(P, 1.0, n),
    "spin_hamiltonian": lambda n: dirac.spin_hamiltonian(P, n, FIELD),
    "dipole_rhs": lambda n: dirac.dipole_rhs(n, FIELD),
    "projections": lambda n: dirac.projections(P, n),
    "TwoSpinorPair": lambda n: dirac.TwoSpinorPair([1.0, 0.0], [0.0, 1.0], n),
    "FourSpinor": lambda n: dirac.FourSpinor(np.full(4, 0.5), n),
    "SpinState": lambda n: sc.SpinState(0.5, [1.0, 0.0], n),
    "spin_half": lambda n: sc.spin_half(1.0, 0.0, n),
    "TwoBodySpinState": lambda n: sc.TwoBodySpinState(0.5, 0.5, HALF_HALF, n),
    "MomentumPacket": lambda n: ev.MomentumPacket(
        PACKET.momenta, PACKET.amplitudes, PACKET.weights, 1.0, n),
    "gaussian_energy_axis": lambda n: ev.MomentumPacket.gaussian_energy_axis(
        35.0, 0.5, [0.0, 0.0, 1.0], 511000.0, n, num=8),
}
# None stands for the rest frame N0 in these
N_DEFAULTS_TO_REST = {"free_k0", "spin_half", "gaussian_energy_axis"}

_UNIT_N = st.builds(mk.rest_boosted, st.sampled_from("xyz"), st.floats(0.0, 3.0))
_SPOILED_ENTRY = st.tuples(_UNIT_N, st.integers(0, 3),
                           st.sampled_from([np.nan, np.inf, -np.inf]))


def _spoil(case):
    """A copy of the array with its flat entry i set to value."""
    n, i, value = case
    n = np.array(n)
    n.flat[i] = value
    return n


MALFORMED_N = st.one_of(
    # wrong last axis, single and batched
    st.integers(0, 7).filter(lambda k: k != 4).flatmap(
        lambda k: st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)),
    st.sampled_from([(2, 3), (3, 5), (4, 3), (1, 1)]).map(np.ones),
    # complex, with or without an imaginary part
    st.tuples(_UNIT_N, st.floats(-1.0, 1.0)).map(lambda c: c[0] + 1j * c[1]),
    _SPOILED_ENTRY.map(_spoil),     # NaN or inf
    st.text(max_size=6),
    st.just(None),
    st.sampled_from([[], np.empty(0), (), np.empty((0, 3))]),
)


def _assert_refused(call, x):
    """call(x) raises a ValueError or TypeError with a one-line message, and
    no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, TypeError)) as info:
            call(x)
    assert "\n" not in str(info.value), str(info.value)


@pytest.mark.parametrize("name", TAKES_N)
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(n=MALFORMED_N)
def test_malformed_n_is_refused_by_every_entry_point(name, n):
    if n is None and name in N_DEFAULTS_TO_REST:
        return
    _assert_refused(TAKES_N[name], n)


# Every public entry point that takes an SL(2,C) element and checks it
# (through sl2c.check_sl2c).
TAKES_ELEMENT = {
    "spinor_map": sl2c.spinor_map,
    "second_rep": sl2c.second_rep,
    "s_lambda": dirac.s_lambda,
    "wigner_d": lambda a: lg.wigner_d(a, N0),
    "transport": lambda a: lg.transport(a, N0),
}
_ELEMENT = st.builds(lambda rot, angle, boost, w: sl2c.sl2c_rotation(rot, angle)
                     @ sl2c.sl2c_boost(boost, w),
                     st.sampled_from("xyz"), st.floats(0.0, 6.3),
                     st.sampled_from("xyz"), st.floats(0.0, 3.0))


@np.errstate(over="ignore", invalid="ignore")     # a huge scale may give inf entries
def _scaled(case):
    a, scale = case
    return scale * a


_FLOAT_MAX = np.finfo(float).max

MALFORMED_ELEMENT = st.one_of(
    # a NaN or inf entry
    st.tuples(_ELEMENT, st.integers(0, 3), st.sampled_from(
        [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, -np.inf)])).map(
        _spoil),
    # not 2x2, single and batched
    st.sampled_from([(3, 3), (2, 3), (3, 2), (1, 1), (2,), (4,), (5, 3, 3), (0,)]).map(
        lambda shape: np.ones(shape, dtype=complex)),
    # det != 1: a scaled element, a singular one, det = -1
    st.tuples(_ELEMENT, st.floats(0.5, 0.99) | st.floats(1.01, 1e3)).map(_scaled),
    st.just(np.zeros((2, 2))),
    _ELEMENT.map(lambda a: 1j * a),
    # a determinant, or its tolerance max(1, max|a|)^2, that overflows
    st.tuples(_ELEMENT, st.sampled_from([1e160, 1e200, _FLOAT_MAX])).map(_scaled),
    st.sampled_from([1e160, 1e200, _FLOAT_MAX]).map(lambda x: np.diag([x, 1.0])),
)


@pytest.mark.parametrize("name", TAKES_ELEMENT)
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=MALFORMED_ELEMENT)
def test_malformed_element_is_refused_by_every_entry_point(name, a):
    _assert_refused(TAKES_ELEMENT[name], a)


# four-momenta of unit mass: malformed as n is, or off shell (p^0 scaled,
# zero or negative)
MALFORMED_P = MALFORMED_N | st.tuples(
    _UNIT_N, st.sampled_from([-1.0, 0.0, 0.5, 0.999, 1.001, 2.0])).map(
    lambda case: case[0] * [case[1], 1.0, 1.0, 1.0])


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(p=MALFORMED_P)
def test_malformed_momentum_is_refused_by_momentum_wigner_d(p):
    _assert_refused(lambda p: lg.momentum_wigner_d(I2, p, 1.0), p)


MALFORMED_SCALAR = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, np.float64(np.nan)]),
    # complex, with or without an imaginary part
    st.complex_numbers(max_magnitude=10.0),
    st.text(max_size=6),
    st.just(None),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
    st.floats(-1.0, 1.0).map(lambda x: np.array([x])),
)


@pytest.mark.parametrize("name", TAKES_SCALAR)
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(x=MALFORMED_SCALAR)
def test_malformed_scalar_is_refused_by_every_constructor(name, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            TAKES_SCALAR[name](x)
    assert "must be a finite real number" in str(info.value), str(info.value)
    assert "\n" not in str(info.value), str(info.value)


def _entries(k):
    return st.lists(st.complex_numbers(max_magnitude=1.0), min_size=k, max_size=k)


def _spoiled(k):
    """k complex numbers of which one is NaN or inf."""
    bad = st.sampled_from([np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)])
    return st.tuples(_entries(k), st.integers(0, k - 1), bad).map(_spoil)


def _huge(k):
    """k finite complex numbers of which one has a square that overflows."""
    huge = st.sampled_from([1e200, -1e300j, _FLOAT_MAX, complex(-_FLOAT_MAX, _FLOAT_MAX)])
    return st.tuples(_entries(k), st.integers(0, k - 1), huge).map(_spoil)


def _extreme(k):
    """k finite complex numbers whose norm overflows or underflows as the sum
    of squares: one entry of huge magnitude, or every entry tiny."""
    tiny = st.sampled_from([1e-200, 5e-324])
    return _huge(k) | st.tuples(_entries(k), tiny).map(lambda case: np.multiply(*case))


def _wrong_length(k):
    return st.integers(0, k + 2).filter(lambda m: m != k).flatmap(
        lambda m: st.lists(st.complex_numbers(max_magnitude=1.0), min_size=m, max_size=m))


def _malformed(k):
    """Vectors that should hold k complex numbers: one NaN or inf entry, the
    wrong length, a str, and the zero vector."""
    return _spoiled(k) | _wrong_length(k) | st.text(max_size=6) | st.just(np.zeros(k))


# Every entry point that takes spin coefficients, a 2-spinor or packet
# amplitudes.  A zero psi or phi is a valid half of a pair and is not drawn,
# nor are tiny entries of psi and phi, which are valid too; a huge entry is
# drawn, since the sector norm squares it.  spin_half's pair is not drawn
# extreme: it rescales any finite pair before it normalises.
TAKES_COEFFICIENTS = {
    "SpinState": (lambda c: sc.SpinState(0.5, c, N0), _malformed(2) | _extreme(2)),
    "SpinState-spin-1": (lambda c: sc.SpinState(1.0, c, N0), _malformed(3) | _extreme(3)),
    "TwoBodySpinState": (lambda c: sc.TwoBodySpinState(0.5, 0.5, np.reshape(c, (2, 2)), N0),
                         _spoiled(4) | _extreme(4) | st.just(np.zeros(4))),
    "spin_half": (lambda c: sc.spin_half(*c), _spoiled(2) | st.just(np.zeros(2))
                  | st.tuples(st.text(max_size=6), st.just(1.0))),
    "InducedPacketState": (lambda c: lg.InducedPacketState(
        N0, c, np.zeros(4), np.zeros(4)), _malformed(2) | _extreme(2)),
    "TwoSpinorPair.psi": (lambda c: dirac.TwoSpinorPair(c, [0.0, 1.0], N0),
                          _spoiled(2) | _wrong_length(2) | st.text(max_size=6) | _huge(2)),
    "TwoSpinorPair.phi": (lambda c: dirac.TwoSpinorPair([1.0, 0.0], c, N0),
                          _spoiled(2) | _wrong_length(2) | st.text(max_size=6) | _huge(2)),
    "MomentumPacket.amplitudes": (lambda c: ev.MomentumPacket(
        PACKET.momenta, c, PACKET.weights, 1.0, N0),
        _malformed(len(PACKET.amplitudes)) | _extreme(len(PACKET.amplitudes))),
}


@pytest.mark.parametrize("name", TAKES_COEFFICIENTS)
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_malformed_coefficients_are_refused_by_every_entry_point(name, data):
    call, malformed = TAKES_COEFFICIENTS[name]
    _assert_refused(call, data.draw(malformed))
