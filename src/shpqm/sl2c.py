"""SL(2,C) double cover of the Lorentz group.

Elements are plain complex (2, 2) arrays with unit determinant.  Convention:
a first-representation element A acts on the Hermitian matrix
X(n) = n0*I + n.sigma built from *contravariant* components as

    A X(n) A^dagger = X(Lambda n),

which fixes the vector-level map Lambda = spinor_map(A).  The second
fundamental representation uses X_bar(n) = n0*I - n.sigma and the element
(A^dagger)^{-1} = second_rep(A).
"""

from __future__ import annotations

import numpy as np

from . import minkowski

DET_TOL = 1e-10

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA0, SIGMA1, SIGMA2, SIGMA3])
PAULI.setflags(write=False)


def check_sl2c(a):
    """Return a as a complex 2x2 array; raise unless it is finite with unit
    determinant within DET_TOL relative to max(1, max|a|)^2."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("SL(2,C) element must be 2x2")
    if not np.all(np.isfinite(a)):
        raise ValueError("SL(2,C) element must be finite")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    tol = DET_TOL * max(1.0, float(np.max(np.abs(a)))) ** 2
    if abs(det - 1.0) > tol:
        raise ValueError(f"determinant {det!r} not 1 within {tol:.3e}")
    return a


def inv(a):
    """Inverse of a unit-determinant element: its adjugate."""
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


def hermitian_form(v):
    """X(v) = v0*I + v.sigma from contravariant components."""
    v = np.asarray(v, dtype=float)
    return v[0] * SIGMA0 + v[1] * SIGMA1 + v[2] * SIGMA2 + v[3] * SIGMA3


def vector_from_form(x):
    """Inverse of hermitian_form: v^mu = (1/2) tr(sigma_mu X)."""
    return 0.5 * np.einsum("mab,ba->m", PAULI, x).real


def spinor_map(a):
    """Vector-level Lorentz matrix of an SL(2,C) element,
    Lambda^mu_nu = (1/2) tr(sigma_mu A sigma_nu A^dagger); validated as proper
    orthochronous before returning."""
    a = check_sl2c(a)
    lam = 0.5 * np.einsum("mab,bc,ncd,ad->mn", PAULI, a, PAULI, a.conj()).real
    return minkowski.check_proper_lorentz(lam, tol=1e-10)


def canonical_boost(n):
    """Positive-definite Hermitian L(n) with spinor_map(L(n)) N0 = n.

    Principal square root of X(n) in closed form: X(n) has unit determinant
    and trace 2 n0, so L(n) = (I + X(n)) / sqrt(2 (1 + n0)).
    """
    minkowski.check_unit_timelike_future(n)
    return (SIGMA0 + hermitian_form(n)) / np.sqrt(2.0 * (1.0 + n[0]))


def second_rep(a):
    """Map to the second fundamental representation, (A^dagger)^{-1}."""
    return inv(check_sl2c(a).conj().T)


def sl2c_rotation(axis, angle):
    """exp(-i angle/2 sigma.axis): SU(2) rotation about a spatial axis."""
    ax = minkowski.axis_vector(axis)
    s = ax[0] * SIGMA1 + ax[1] * SIGMA2 + ax[2] * SIGMA3
    return np.cos(angle / 2) * SIGMA0 - 1.0j * np.sin(angle / 2) * s


def sl2c_boost(axis, rapidity):
    """exp(rapidity/2 sigma.axis): Hermitian boost along a spatial axis."""
    ax = minkowski.axis_vector(axis)
    s = ax[0] * SIGMA1 + ax[1] * SIGMA2 + ax[2] * SIGMA3
    return np.cosh(rapidity / 2) * SIGMA0 + np.sinh(rapidity / 2) * s


def random_sl2c(rng, max_rapidity=3.0):
    """Seeded random element: rotation times bounded boost."""
    rot_axis = rng.normal(size=3)
    rot_axis /= np.linalg.norm(rot_axis)
    boost_axis = rng.normal(size=3)
    boost_axis /= np.linalg.norm(boost_axis)
    rot = sl2c_rotation(rot_axis, rng.uniform(0.0, 2 * np.pi))
    bst = sl2c_boost(boost_axis, rng.uniform(0.0, max_rapidity))
    return rot @ bst
