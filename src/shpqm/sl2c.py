"""SL(2,C) double cover of the Lorentz group.

Elements are plain complex (2, 2) arrays with unit determinant.  Convention:
a first-representation element A acts on the Hermitian matrix
X(n) = n0*I + n.sigma built from *contravariant* components as

    A X(n) A^dagger = X(Lambda n),

which fixes the vector-level map Lambda = spinor_map(A).  The second
fundamental representation uses X_bar(n) = n0*I - n.sigma and the element
(A^dagger)^{-1} = second_rep(A).

The kernels are batch-first: an element is a (..., 2, 2) array and a vector
a (..., 4) array, where the leading axes index samples; a single (2, 2) or
(4,) array goes through the same code.
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
_PAULI_ROWS = PAULI.reshape(4, 4)            # row mu: sigma_mu flattened
# Lambda^mu_nu = (1/2) tr(sigma_mu A sigma_nu A^dag)
#              = sum_{abcd} (1/2) sigma_mu[a, b] sigma_nu[c, d] A[b, c] conj(A[a, d]),
# one matrix product of this (16, 16) table with the products A[b, c] conj(A[a, d])
_SPINOR_MAP = 0.5 * np.einsum("mab,ncd->bcadmn", PAULI, PAULI).reshape(16, 16)
_SPINOR_MAP.setflags(write=False)
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_DET_SIGNS = np.array([1.0, -1.0])


def det(a):
    """Closed-form determinant of (..., 2, 2) arrays, a00 a11 - a01 a10."""
    return (a[..., 0, :] * a[..., 1, ::-1]) @ _DET_SIGNS


def check_sl2c(a):
    """Return a as a complex (..., 2, 2) array; raise unless every element is
    finite with unit determinant within DET_TOL relative to max(1, max|a|)^2.
    A determinant or a tolerance that overflows is refused, without a numpy
    warning."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValueError("SL(2,C) element must be 2x2")
    with np.errstate(over="ignore", invalid="ignore"):
        size = abs(a).max(axis=(-2, -1))
        size2 = size * size
        det_a = det(a)      # not finite if an entry is not, or if a product overflows
        ok = (np.isfinite(det_a) & (size2 < np.inf)
              & minkowski.within(abs(det_a - 1.0), DET_TOL, size2))

    def message(i):
        if not np.isfinite(a[i]).all():
            return "SL(2,C) element must be finite"
        if not np.isfinite(det_a[i]):
            return f"determinant of an element of size {size[i]:.3e} overflows"
        if not size2[i] < np.inf:
            return f"determinant tolerance of an element of size {size[i]:.3e} overflows"
        return f"determinant {det_a[i]!r} not 1 within {DET_TOL * max(1.0, size[i]) ** 2:.3e}"

    minkowski.require(ok, message)
    return a


def inv(a):
    """Inverse of unit-determinant elements: their adjugates."""
    return np.swapaxes(a[..., ::-1, ::-1], -1, -2) * _ADJUGATE_SIGNS


def product(a, b):
    """a @ b for complex matrices or stacks of them, as one real product.

    a's float view (real and imaginary parts interleaved) times the real
    block form of b, whose rows 2l and 2l + 1 are row l of b and of i b as
    floats, i.e. [[Re b, Im b], [-Im b, Re b]] interleaved: the result is
    the float view of Re(a) b + Im(a) (i b) = a b.  numpy's stacked complex
    matmul costs several times a real one of twice the size; on a single
    matrix `@` is cheaper.  Leading axes broadcast as for `@`.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rows, cols = b.shape[-2:]
    block = np.empty(b.shape[:-2] + (rows, 2, cols), dtype=complex)
    block[..., 0, :] = b
    np.multiply(b, 1j, out=block[..., 1, :])
    block = block.view(float).reshape(b.shape[:-2] + (2 * rows, 2 * cols))
    return (a.view(float) @ block).view(complex)


def _pauli_combination(c):
    """c0*I + c1*sigma1 + c2*sigma2 + c3*sigma3 for (..., 4) coefficients."""
    return (c @ _PAULI_ROWS).reshape(c.shape[:-1] + (2, 2))


def hermitian_form(v):
    """X(v) = v0*I + v.sigma from contravariant components."""
    return _pauli_combination(np.asarray(v, dtype=float))


def vector_from_form(x):
    """Inverse of hermitian_form: v^mu = (1/2) tr(sigma_mu X)."""
    return 0.5 * np.einsum("mab,...ba->...m", PAULI, x).real


def spinor_map(a):
    """Vector-level Lorentz matrix of an SL(2,C) element,
    Lambda^mu_nu = (1/2) tr(sigma_mu A sigma_nu A^dagger); validated as proper
    orthochronous before returning."""
    a = check_sl2c(a)
    products = a[..., :, :, None, None] * a.conj()[..., None, None, :, :]
    lam = (products.reshape(a.shape[:-2] + (16,)) @ _SPINOR_MAP).real
    return minkowski.check_proper_lorentz(lam.reshape(a.shape[:-2] + (4, 4)), tol=1e-10)


def canonical_boost(n):
    """Positive-definite Hermitian L(n) with spinor_map(L(n)) N0 = n.

    Principal square root of X(n) in closed form: X(n) has unit determinant
    and trace 2 n0, so L(n) = (I + X(n)) / sqrt(2 (1 + n0)).
    """
    n = minkowski.check_unit_timelike_future(n)
    n0 = minkowski.components(n)[0]
    return hermitian_form(n + minkowski.N0) / np.sqrt(2.0 * (1.0 + n0))[..., None, None]


def second_rep(a):
    """Map to the second fundamental representation, (A^dagger)^{-1}."""
    return inv(np.swapaxes(check_sl2c(a).conj(), -1, -2))


def sl2c_rotation(axis, angle):
    """exp(-i angle/2 sigma.axis): SU(2) rotation about a spatial axis."""
    half = np.asarray(angle, dtype=float)[..., None] / 2
    return _pauli_combination(np.concatenate(
        [np.cos(half), -1.0j * np.sin(half) * minkowski.axis_vector(axis)], axis=-1))


def sl2c_boost(axis, rapidity):
    """exp(rapidity/2 sigma.axis): Hermitian boost along a spatial axis, the
    form X of N0 boosted by half the rapidity."""
    return hermitian_form(minkowski.rest_boosted(axis, np.asarray(rapidity, dtype=float) / 2))


def random_sl2c(rng, max_rapidity=3.0):
    """Seeded random element: rotation times bounded boost."""
    rot_axis, boost_axis = rng.normal(size=3), rng.normal(size=3)
    angle, rapidity = rng.uniform(0.0, 2 * np.pi), rng.uniform(0.0, max_rapidity)
    return sl2c_rotation(rot_axis, angle) @ sl2c_boost(boost_axis, rapidity)
