"""Clebsch-Gordan coupling of spins carried on a common foliation fiber.

Coupling two states is physically meaningful only when both sit at the same
point n of the orbit and the same value of the evolution parameter tau, so
every coupling operation enforces a fiber match and raises
FiberMismatchError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import minkowski

FIBER_TOL = 1e-9


class FiberMismatchError(ValueError):
    """Coupling attempted across different n or tau."""


class PauliExclusionError(ValueError):
    """Antisymmetrization of identical states yields the zero state."""


def _two_j(j):
    tj = int(round(2 * j))
    if tj < 0 or abs(2 * j - tj) > 1e-9:
        raise ValueError(f"not a half-integer spin: {j!r}")
    return tj


def _validate_jm(j, m):
    tj, tm = _two_j(j), int(round(2 * m))
    if abs(2 * m - tm) > 1e-9 or abs(tm) > tj or (tj - tm) % 2 != 0:
        raise ValueError(f"invalid magnetic number m={m!r} for j={j!r}")
    return tj, tm


@lru_cache(maxsize=None)
def _cg_doubled(tj1, tm1, tj2, tm2, tbig_j, tbig_m):
    """Clebsch-Gordan coefficient from doubled quantum numbers.

    Exact rational arithmetic throughout (Condon-Shortley phase); the value
    is sign * sqrt(rational), converted to float at the end.
    """
    if tm1 + tm2 != tbig_m:
        return 0.0

    def fact(twice):
        if twice % 2 != 0 or twice < 0:
            raise ValueError("factorial of a non-integer")
        return math.factorial(twice // 2)

    pref = Fraction(
        (tbig_j + 1)
        * fact(tbig_j + tj1 - tj2) * fact(tbig_j - tj1 + tj2) * fact(tj1 + tj2 - tbig_j)
        * fact(tbig_j + tbig_m) * fact(tbig_j - tbig_m)
        * fact(tj1 - tm1) * fact(tj1 + tm1) * fact(tj2 - tm2) * fact(tj2 + tm2),
        fact(tj1 + tj2 + tbig_j + 2),
    )
    total = Fraction(0)
    k_min = max(0, -(tbig_j - tj2 + tm1) // 2, -(tbig_j - tj1 - tm2) // 2)
    k_max = min((tj1 + tj2 - tbig_j) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    for k in range(k_min, k_max + 1):
        denom = (
            math.factorial(k)
            * fact(tj1 + tj2 - tbig_j - 2 * k)
            * fact(tj1 - tm1 - 2 * k)
            * fact(tj2 + tm2 - 2 * k)
            * fact(tbig_j - tj2 + tm1 + 2 * k)
            * fact(tbig_j - tj1 - tm2 + 2 * k)
        )
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(pref * total * total))


def _check_triangle(j1, j2, big_j):
    """Doubled (j1, j2, J); raises unless spins j1 and j2 couple to total spin J."""
    tj1, tj2, tbj = _two_j(j1), _two_j(j2), _two_j(big_j)
    if not (abs(tj1 - tj2) <= tbj <= tj1 + tj2) or (tj1 + tj2 + tbj) % 2 != 0:
        raise ValueError(f"triangle rule violated for ({j1}, {j2}, {big_j})")
    return tj1, tj2, tbj


def cg(j1, m1, j2, m2, big_j, big_m):
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention."""
    tj1, tm1 = _validate_jm(j1, m1)
    tj2, tm2 = _validate_jm(j2, m2)
    tbj, tbm = _validate_jm(big_j, big_m)
    _check_triangle(j1, j2, big_j)
    return _cg_doubled(tj1, tm1, tj2, tm2, tbj, tbm)


@lru_cache(maxsize=None)
def _coupled_blocks(tj1, tj2):
    """The coupled basis of spins j1, j2 from doubled quantum numbers: for each
    2J, a read-only (2J+1, 2j1+1, 2j2+1) block of <j1 m1; j2 m2 | J M>."""
    blocks = {}
    for tbj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        block = np.zeros((tbj + 1, tj1 + 1, tj2 + 1))
        for i, k in np.ndindex(tj1 + 1, tj2 + 1):
            tm1, tm2 = 2 * i - tj1, 2 * k - tj2
            if abs(tm1 + tm2) <= tbj:
                block[(tm1 + tm2 + tbj) // 2, i, k] = _cg_doubled(
                    tj1, tm1, tj2, tm2, tbj, tm1 + tm2)
        block.flags.writeable = False
        blocks[tbj] = block
    return blocks


def coupled_basis(j1, j2):
    """Rows |J M>, J ascending then M ascending, over the raveled (m1, m2)."""
    blocks = _coupled_blocks(_two_j(j1), _two_j(j2)).values()
    return np.concatenate([block.reshape(len(block), -1) for block in blocks])


def cg_matrix(j1, j2, big_j, big_m):
    """Coefficient matrix over (m1, m2) of the coupled state |J M>, a read-only
    row of the cached coupled basis; raises on a bad J or M."""
    tj1, tj2, tbj = _check_triangle(j1, j2, big_j)
    tbm = _validate_jm(big_j, big_m)[1]
    return _coupled_blocks(tj1, tj2)[tbj][(tbm + tbj) // 2]


@dataclass(frozen=True)
class SpinState:
    """Single spin-j state on a fiber: coefficients over m = -j..j."""

    j: float
    coefficients: np.ndarray
    n: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        c = minkowski.complex_array(self.coefficients, "spin coefficients")
        if c.shape != (_two_j(self.j) + 1,):
            raise ValueError("coefficient vector length must be 2j+1")
        minkowski.unit_norm(c, "spin coefficients")
        minkowski.finite(self.tau, "tau")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "n", minkowski.check_unit_timelike_future(self.n))


def spin_half(up_amp, down_amp, n=None, tau=0.0):
    n = minkowski.N0 if n is None else n
    c = minkowski.complex_array([down_amp, up_amp], "spin_half amplitudes")  # m = -1/2, +1/2
    # scaled by the largest real or imaginary part first, as real numbers: the
    # norm of c, or a complex division by a subnormal scale, could overflow
    parts = c.view(float)
    scale = np.abs(parts).max()
    if not 0 < scale < np.inf:
        raise ValueError(f"spin_half amplitudes must be finite and not both 0,"
                         f" got {up_amp!r}, {down_amp!r}")
    c = (parts / scale).view(complex)
    return SpinState(0.5, c / np.linalg.norm(c), n, tau)


@dataclass(frozen=True)
class TwoBodySpinState:
    """Two-spin state on a common fiber; coefficients indexed by (m1, m2).

    The coefficients may carry leading sample axes, one state per sample.
    """

    j1: float
    j2: float
    coefficients: np.ndarray
    n: np.ndarray
    tau: float = 0.0
    symmetry_tag: str = "none"

    def __post_init__(self):
        c = minkowski.complex_array(self.coefficients, "two-body coefficients")
        if c.shape[-2:] != (_two_j(self.j1) + 1, _two_j(self.j2) + 1):
            raise ValueError("coefficient matrix shape must be (2j1+1, 2j2+1)")
        minkowski.unit_norm(c, "two-body coefficients", axis=(-2, -1))
        if self.symmetry_tag not in ("none", "symmetric", "antisymmetric"):
            raise ValueError(f"unknown symmetry tag {self.symmetry_tag!r}")
        if self.symmetry_tag != "none":
            if self.j1 != self.j2:
                raise ValueError("exchange symmetry requires j1 = j2")
            c_t = np.swapaxes(c, -1, -2)
            want = c_t if self.symmetry_tag == "symmetric" else -c_t
            if np.max(np.abs(c - want)) > 1e-9:
                raise ValueError(f"coefficients are not {self.symmetry_tag}")
        minkowski.finite(self.tau, "tau")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "n", minkowski.check_unit_timelike_future(self.n))


def _check_fiber(a, b):
    if np.max(np.abs(a.n - b.n)) > FIBER_TOL or abs(a.tau - b.tau) > FIBER_TOL:
        raise FiberMismatchError(
            "states live on different fibers (n or tau mismatch); "
            "coupling is defined only at identical n and tau")


def couple_two(a, b, big_j, big_m):
    """Project the product a (x) b onto the coupled |J M> direction.

    Returns the normalized coupled state carrying the overlap phase; raises
    when a (x) b has no |J M> component.
    """
    _check_fiber(a, b)
    basis = cg_matrix(a.j, b.j, big_j, big_m)
    amp = np.einsum("ik,i,k->", basis, a.coefficients, b.coefficients)
    if abs(amp) < 1e-12:
        raise ValueError(f"product state has no (J={big_j}, M={big_m}) component")
    coeff = (amp / abs(amp)) * basis
    tag = "none"
    if a.j == b.j:
        # coupled states of two equal spins have definite exchange parity
        parity = (-1) ** int(round(2 * a.j - big_j))
        tag = "symmetric" if parity > 0 else "antisymmetric"
    return TwoBodySpinState(a.j, b.j, coeff, a.n, a.tau, tag)


def symmetrize(a, b, sign):
    """(1/sqrt 2)[a (x) b +- b (x) a], normalized."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a.j != b.j:
        raise ValueError("symmetrization requires identical spins")
    _check_fiber(a, b)
    raw = (np.outer(a.coefficients, b.coefficients)
           + sign * np.outer(b.coefficients, a.coefficients)) / np.sqrt(2.0)
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise PauliExclusionError(
            "antisymmetrized state vanishes: identical states excluded")
    tag = "symmetric" if sign > 0 else "antisymmetric"
    return TwoBodySpinState(a.j, b.j, raw / norm, a.n, a.tau, tag)


def singlet(n=None, tau=0.0):
    """The antisymmetric J=0 state of two spin-1/2 particles."""
    n = minkowski.N0 if n is None else n
    up = spin_half(1, 0, n, tau)
    down = spin_half(0, 1, n, tau)
    return symmetrize(up, down, -1)


def exchange(state):
    """Interchange the two particles (transpose the coefficient matrix)."""
    if state.j1 != state.j2:
        raise ValueError("exchange defined for identical spins only")
    return TwoBodySpinState(state.j1, state.j2, np.swapaxes(state.coefficients, -1, -2),
                            state.n, state.tau, state.symmetry_tag)


def total_spin_decompose(state):
    """Squared overlaps with each coupled-J subspace, {J: weight}, summing to 1;
    batch-first: a state with leading sample axes has one weight per sample."""
    blocks = _coupled_blocks(_two_j(state.j1), _two_j(state.j2))
    amps = {tbj / 2.0: np.einsum("Mik,...ik->...M", block, state.coefficients)
            for tbj, block in blocks.items()}
    return {big_j: (abs(amp) ** 2).sum(axis=-1) for big_j, amp in amps.items()}


def rotate_two(state, d):
    """Apply the same SU(2)-representation rotation to both factors.

    d may be a (..., 2, 2) batch; the result then holds one state per sample.
    """
    dj1 = _rep_matrix(state.j1, d)
    dj2 = _rep_matrix(state.j2, d)
    return TwoBodySpinState(state.j1, state.j2,
                            dj1 @ state.coefficients @ np.swapaxes(dj2, -1, -2),
                            state.n, state.tau, "none")


def _rep_matrix(j, d):
    """Spin-j representation matrix of an SU(2) element given for j = 1/2."""
    if abs(j - 0.5) < 1e-12:
        # basis order here is m = -1/2, +1/2; the 2x2 input is (+, -) ordered
        return np.asarray(d)[..., ::-1, ::-1]
    raise NotImplementedError("rotations implemented for spin-1/2 factors")


def couple_sequence(states, j_targets):
    """Left-fold pairwise coupling of N spins to the given intermediate Js.

    j_targets holds the N-1 totals J12, J123, ...  Returns the final J and
    the amplitudes of the product state on |((j1 j2) J12, j3) J123 ...; J M>
    for M = -J..J; raises ValueError when a J breaks the triangle rule.
    """
    if len(states) < 2 or len(j_targets) != len(states) - 1:
        raise ValueError("need N >= 2 states and N-1 coupling targets")
    for other in states[1:]:
        _check_fiber(states[0], other)
    # tensor over (coupled M index, m_1 .. m_k) built step by step
    j_acc = states[0].j
    tensor = np.eye(_two_j(j_acc) + 1, dtype=complex)  # (M, m1)
    for big_j, nxt in zip(j_targets, states[1:]):
        # out[M, ..., m2] = sum over m_acc of <j_acc m_acc; j m2 | J M> tensor[m_acc, ...]
        tj1, tj2, tbj = _check_triangle(j_acc, nxt.j, big_j)
        out = np.tensordot(_coupled_blocks(tj1, tj2)[tbj], tensor, axes=([1], [0]))
        j_acc, tensor = big_j, np.moveaxis(out, 1, -1)
    # contract the open m indices with the individual state coefficients
    for state in states:
        tensor = np.tensordot(tensor, state.coefficients, axes=([1], [0]))
    return j_acc, tensor  # amplitudes over final M
