"""Four-vector algebra with metric diag(-1, 1, 1, 1) and proper
orthochronous Lorentz matrices.

Vectors are plain numpy arrays of 4 contravariant components (t, x, y, z).
The metric is a fixed constant, never configurable.

The kernels are batch-first: a vector is a (..., 4) array and a Lorentz
matrix a (..., 4, 4) array, where the leading axes index samples and
broadcast against each other; a single (4,) or (4, 4) array goes through the
same code.  Checks hold per sample and name the first failing one.
"""

from __future__ import annotations

import enum
import numbers

import numpy as np

METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.setflags(write=False)
_SIGNS = np.diag(METRIC).copy()
_SIGNS.setflags(write=False)
_SIGNS_OUTER = np.outer(_SIGNS, _SIGNS)      # g_mu g_nu, for g lam^T g
_SIGNS_OUTER.setflags(write=False)

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
    return four_vectors([t, x, y, z], "four-vector components")


def require(ok, message):
    """Raise ValueError unless every sample passes a check.

    ok holds one flag per sample (a single flag for an unbatched input);
    message(i) describes the first failing sample, with i its index tuple
    into ok, and a batched error starts by naming that sample.
    """
    ok = np.asarray(ok)
    if not (ok.all() if ok.ndim else ok):
        i = tuple(int(k) for k in np.unravel_index(np.argmin(ok), ok.shape))
        where = f"sample {i[0] if len(i) == 1 else i}: " if i else ""
        raise ValueError(where + message(i))


def real(v, name):
    """v as a float array; raises ValueError unless its dtype is bool, integer or float."""
    a = np.asarray(v)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {a.dtype}")
    return np.asarray(a, dtype=float)


def complex_array(v, name):
    """v as a complex array; raises ValueError unless its dtype is numeric."""
    a = np.asarray(v)
    if a.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be numbers, got dtype {a.dtype}")
    return np.asarray(a, dtype=complex)


def unit_norm(c, name, axis=None):
    """Raise ValueError, naming the first bad sample, unless each vector of c
    (all of c when axis is None) has norm 1 within 1e-10; a norm that
    overflows, or meets an inf entry, is refused without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(c, axis=axis)
    require(abs(norm - 1.0) <= 1e-10, lambda i: f"{name} must be normalized")


def _four(v, name):
    a = real(v, name)
    if a.shape[-1:] != (4,):
        raise ValueError(f"{name} must be four-vectors (last axis 4), got shape {a.shape}")
    return a


def four_vectors(v, name):
    """v as a float (..., 4) array; raises ValueError, naming `name` and the
    first bad sample, unless v is real with last axis 4 and finite entries."""
    a = _four(v, name)
    if not np.isfinite(a).all():
        require(np.isfinite(a).all(axis=-1),
                lambda i: f"{name} must be finite, got {a[i].tolist()}")
    return a


def finite(x, name):
    """Raise ValueError unless x is a real number and finite."""
    if not (isinstance(x, numbers.Real) and -np.inf < x < np.inf):
        raise ValueError(f"{name} must be a finite real number, got {x!r}")


def positive(x, name):
    """Raise ValueError unless x is a real number, finite and > 0."""
    if not (isinstance(x, numbers.Real) and 0 < x < np.inf):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def axis_vector(axis):
    """Unit spatial 3-vector from 'x'/'y'/'z' or a (..., 3) array of
    nonzero 3-vectors."""
    if isinstance(axis, str):
        try:
            return _AXES[axis].copy()
        except KeyError:
            raise ValueError(f"unknown axis {axis!r}") from None
    a = real(axis, "axis")
    if a.shape[-1:] != (3,):
        raise ValueError("axis must be a nonzero 3-vector")
    norm = np.sqrt((a * a).sum(axis=-1))
    require(norm > 0.0, lambda i: "axis must be a nonzero 3-vector")
    return a / norm[..., None]


def inner(a, b):
    """Invariant product -a0*b0 + a.b (spatial) over the last axis of
    (..., 4) arrays."""
    return (np.asarray(a, dtype=float) * b) @ _SIGNS


dot = inner     # a second name, which the benchmark's tracer self-test patches


def components(v):
    """The components (t, x, y, z) of (..., 4) arrays: numbers for a single
    vector, arrays of the sample shape for a batch."""
    c = np.asarray(v, dtype=float)
    c = c.transpose(-1, *range(c.ndim - 1))
    return c[0], c[1], c[2], c[3]


def within(dev, tol, scale):
    """Per sample, dev <= tol * max(1, scale).  Spelled out because on a
    single sample np.maximum costs more than the rest of a check."""
    return (dev <= tol) | (dev <= tol * scale)


def lower(v):
    """Covariant components g_{mu nu} v^nu."""
    return np.asarray(v, dtype=float) * _SIGNS


def classify(v):
    """Causal class of v; lightlike within 1e-12 relative to max component^2.

    The zero vector is classified as lightlike.  Single vectors only.
    """
    s = inner(v, v)
    scale = float(np.max(np.abs(v))) ** 2
    if abs(s) <= LIGHTLIKE_TOL * scale or scale == 0.0:
        return CausalClass.LIGHTLIKE
    if s < 0.0:
        return CausalClass.TIMELIKE_FUTURE if v[0] > 0 else CausalClass.TIMELIKE_PAST
    return CausalClass.SPACELIKE


@np.errstate(over="ignore", invalid="ignore")
def is_unit_timelike_future(n):
    """Per sample: n0 > 0 and n.n = -1 within UNIT_TIMELIKE_TOL relative to max(1, n0^2),
    the size of the terms that cancel in n.n; an n0^2 that overflows (an
    infinite n0 among them) would make that tolerance infinite, so it fails,
    without a numpy warning."""
    t, x, y, z = components(n)
    t2 = t * t
    return ((t > 0) & (t2 < np.inf)
            & within(abs(-t2 + x * x + y * y + z * z + 1.0), UNIT_TIMELIKE_TOL, t2))


@np.errstate(over="ignore", invalid="ignore")     # n.n may overflow
def _not_unit_timelike_future(n):
    return f"expected unit future-timelike vector, got {n!r} with n.n = {inner(n, n)}"


def check_unit_timelike_future(n):
    """Return n as a float array; raise unless every sample is unit
    future-timelike."""
    n = _four(n, "n")   # the unit-norm test refuses NaN and inf
    require(is_unit_timelike_future(n), lambda i: _not_unit_timelike_future(n[i]))
    return n


def unit_timelike(v):
    """v / sqrt(-v.v): the unit vector along each finite timelike v."""
    v = four_vectors(v, "v")
    t, x, y, z = components(v)
    norm2 = t * t - x * x - y * y - z * z
    require(np.isfinite(norm2) & (norm2 > 0.0),     # norm2 may overflow
            lambda i: f"expected a timelike vector, got {v[i]!r} with v.v = {-norm2[i]}")
    return v / np.sqrt(norm2)[..., None]


def moved(lam, n):
    """Unit future-timelike labels n moved by Lorentz matrices lam: the
    spatial part x of lam n, with time part sqrt(1 + x.x), so the label is
    as accurate as lam n; unit_timelike(lam n) would divide by a norm that
    cancels terms of size (lam n)_0^2."""
    v = apply(lam, n)
    x2 = (v[..., 1:] ** 2).sum(axis=-1)
    require(np.isfinite(x2), lambda i: f"moved label not finite: spatial part {v[i][1:]!r}")
    v[..., 0] = np.sqrt(1.0 + x2)
    return v


def check_proper_lorentz(lam, tol=LORENTZ_TOL):
    """Return lam as a float array; raise unless, per sample,
    lam^T g lam = g, det lam = +1 and lam[0,0] >= 1.

    The metric tolerance is relative to s = max(1, max|lam|)^2, the size of
    the products in lam^T g lam, and the determinant tolerance to s^2.
    """
    lam = real(lam, "Lorentz matrix")
    if lam.shape[-2:] != (4, 4):
        raise ValueError("Lorentz matrix must be 4x4")
    size2 = abs(lam).max(axis=(-2, -1)) ** 2
    dev = abs(np.swapaxes(lam, -1, -2) * _SIGNS @ lam - METRIC).max(axis=(-2, -1))
    det = np.linalg.det(lam)
    metric_ok = within(dev, tol, size2)
    proper = within(abs(det - 1.0), tol * 10, size2 * size2)
    orthochronous = lam[..., 0, 0] >= 1.0 - tol
    require(metric_ok & proper & orthochronous, lambda i: (
        f"not a Lorentz matrix: metric deviation {dev[i]:.3e}" if not metric_ok[i] else
        f"not proper: det = {det[i]!r}" if not proper[i] else
        f"not orthochronous: lam[0,0] = {lam[i][0, 0]!r}"))
    return lam


def apply(lam, v):
    """Transform contravariant four-vectors: lam (..., 4, 4) on v (..., 4)."""
    return (lam @ np.asarray(v, dtype=float)[..., None])[..., 0]


def inverse(lam):
    """Inverse of a Lorentz matrix, g lam^T g (exact up to round-off)."""
    return np.swapaxes(lam, -1, -2) * _SIGNS_OUTER


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


def rest_boosted(axis, rapidity):
    """N0 boosted by the given rapidity along axis: (cosh w, sinh w axis)."""
    w = np.asarray(rapidity, dtype=float)[..., None]
    return np.concatenate([np.cosh(w), np.sinh(w) * axis_vector(axis)], axis=-1)


def random_unit_timelike(rng, max_rapidity=3.0):
    """Random unit future-timelike vector, n = boost applied to N0."""
    axis = rng.normal(size=3)
    return rest_boosted(axis, rng.uniform(0.0, max_rapidity))


def random_four_vector(rng, scale=1.0):
    return rng.normal(scale=scale, size=4)
