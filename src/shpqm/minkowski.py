"""Four-vector algebra with metric diag(-1, 1, 1, 1) and proper
orthochronous Lorentz matrices.

Vectors are plain numpy arrays of 4 contravariant components (t, x, y, z).
The metric is a fixed constant, never configurable.
"""

from __future__ import annotations

import enum

import numpy as np

METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.setflags(write=False)

N0 = np.array([1.0, 0.0, 0.0, 0.0])
N0.setflags(write=False)

LORENTZ_TOL = 1e-12
LIGHTLIKE_TOL = 1e-12
UNIT_TIMELIKE_TOL = 1e-9

_AXES = {"x": np.array([1.0, 0.0, 0.0]),
         "y": np.array([0.0, 1.0, 0.0]),
         "z": np.array([0.0, 0.0, 1.0])}


class CausalClass(enum.Enum):
    TIMELIKE_FUTURE = "timelike-future"
    TIMELIKE_PAST = "timelike-past"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


def four_vector(t, x=0.0, y=0.0, z=0.0):
    v = np.array([t, x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("four-vector components must be finite")
    return v


def axis_vector(axis):
    """Unit spatial 3-vector from 'x'/'y'/'z' or an arbitrary 3-sequence."""
    if isinstance(axis, str):
        try:
            return _AXES[axis].copy()
        except KeyError:
            raise ValueError(f"unknown axis {axis!r}") from None
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
    if a.shape != (3,) or norm == 0.0:
        raise ValueError("axis must be a nonzero 3-vector")
    return a / norm


def dot(a, b):
    """Invariant product -a0*b0 + a.b (spatial)."""
    return float(-a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3])


def lower(v):
    """Covariant components g_{mu nu} v^nu."""
    return METRIC @ np.asarray(v, dtype=float)


def classify(v):
    """Causal class of v; lightlike within 1e-12 relative to max component^2.

    The zero vector is classified as lightlike.
    """
    s = dot(v, v)
    scale = float(np.max(np.abs(v))) ** 2
    if abs(s) <= LIGHTLIKE_TOL * scale or scale == 0.0:
        return CausalClass.LIGHTLIKE
    if s < 0.0:
        return CausalClass.TIMELIKE_FUTURE if v[0] > 0 else CausalClass.TIMELIKE_PAST
    return CausalClass.SPACELIKE


def is_unit_timelike_future(n, tol=UNIT_TIMELIKE_TOL):
    """n0 > 0 and n.n = -1 within tol relative to max(1, n0^2), the size of
    the terms that cancel in n.n."""
    return n[0] > 0 and abs(dot(n, n) + 1.0) <= tol * max(1.0, n[0] ** 2)


def check_unit_timelike_future(n, tol=UNIT_TIMELIKE_TOL):
    if not is_unit_timelike_future(n, tol):
        raise ValueError(f"expected unit future-timelike vector, got {n!r} "
                         f"with n.n = {dot(n, n)}")


def unit_timelike(v):
    """v / sqrt(-v.v): the unit vector along a finite timelike v."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"four-vector components must be finite, got {v!r}")
    norm2 = -dot(v, v)
    if not norm2 > 0.0:
        raise ValueError(f"expected a timelike vector, got {v!r} with v.v = {-norm2}")
    return v / np.sqrt(norm2)


def check_proper_lorentz(lam, tol=LORENTZ_TOL):
    """Raise unless lam^T g lam = g, det lam = +1 and lam[0,0] >= 1.

    The metric tolerance is relative to s = max(1, max|lam|)^2, the size of
    the products in lam^T g lam, and the determinant tolerance to s^2.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4, 4):
        raise ValueError("Lorentz matrix must be 4x4")
    scale = max(1.0, float(np.max(np.abs(lam)))) ** 2
    dev = np.max(np.abs(lam.T @ METRIC @ lam - METRIC))
    if not dev <= tol * scale:
        raise ValueError(f"not a Lorentz matrix: metric deviation {dev:.3e}")
    det = np.linalg.det(lam)
    if abs(det - 1.0) > tol * 10 * scale**2:
        raise ValueError(f"not proper: det = {det!r}")
    if lam[0, 0] < 1.0 - tol:
        raise ValueError(f"not orthochronous: lam[0,0] = {lam[0, 0]!r}")
    return lam


def apply(lam, v):
    """Transform a contravariant four-vector."""
    return np.asarray(lam) @ np.asarray(v, dtype=float)


def inverse(lam):
    """Inverse of a Lorentz matrix, g lam^T g (exact up to round-off)."""
    return METRIC @ np.asarray(lam).T @ METRIC


def rotation(axis, angle):
    """Spatial rotation about a unit axis, embedded as a 4x4 matrix."""
    a = axis_vector(axis)
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([[0.0, -a[2], a[1]],
                  [a[2], 0.0, -a[0]],
                  [-a[1], a[0], 0.0]])
    r3 = np.eye(3) + s * k + (1.0 - c) * (k @ k)
    out = np.eye(4)
    out[1:, 1:] = r3
    return out


def boost(axis, rapidity):
    """Pure boost with given rapidity along a unit axis."""
    a = axis_vector(axis)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    out = np.eye(4)
    out[0, 0] = ch
    out[0, 1:] = sh * a
    out[1:, 0] = sh * a
    out[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(a, a)
    return out


def pure_boost(n):
    """The symmetric boost taking N0 to the unit future-timelike n."""
    check_unit_timelike_future(n)
    if np.array_equal(n, N0):
        return np.eye(4)
    sp = n[1:]
    out = np.eye(4)
    out[0, 0] = n[0]
    out[0, 1:] = sp
    out[1:, 0] = sp
    out[1:, 1:] = np.eye(3) + np.outer(sp, sp) / (1.0 + n[0])
    return out


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation(axis, rng.uniform(0.0, np.pi))


def random_proper_lorentz(seed, max_rapidity=3.0):
    """Seeded random proper orthochronous transformation.

    Rapidity is capped (default 3) to keep cosh/sinh conditioning compatible
    with 1e-12 constraint tolerances.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    lam = random_rotation(rng) @ boost(axis, rng.uniform(0.0, max_rapidity))
    return check_proper_lorentz(lam, tol=1e-11)


def random_unit_timelike(rng, max_rapidity=3.0):
    """Random unit future-timelike vector, n = boost applied to N0."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    w = rng.uniform(0.0, max_rapidity)
    return four_vector(np.cosh(w), *(np.sinh(w) * axis))


def random_four_vector(rng, scale=1.0):
    return rng.normal(scale=scale, size=4)
