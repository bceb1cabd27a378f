"""Wigner rotations induced on the foliation vector n (and, for comparison,
on momentum), plus the induced transformation of parametrized packet states.

D(Lambda, n) = L(n)^{-1} Lambda L(Lambda^{-1} n) is an SU(2) element; here n
is the *transformed* fiber label, so a state at n_old picks up
D(Lambda, Lambda n_old) = L(Lambda n_old)^{-1} Lambda L(n_old) acting on its
spin coefficient column.  With that orientation successive transformations
compose as a single one (cocycle identity, see wigner_d docstring).
transport(A, n_old) is the one place that moves a label.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import minkowski, sl2c

SU2_TOL = 1e-10
MASS_SHELL_TOL = 1e-6


def check_su2(d):
    """Return d as a complex (..., 2, 2) array; raise unless every element is
    unitary with unit determinant within SU2_TOL."""
    d = np.asarray(d, dtype=complex)
    dev_u = np.abs(np.swapaxes(d.conj(), -1, -2) @ d - sl2c.SIGMA0).max(axis=(-2, -1))
    dev_det = np.abs(sl2c.det(d) - 1.0)
    minkowski.require((dev_u <= SU2_TOL) & (dev_det <= SU2_TOL),
                      lambda i: f"not SU(2): unitarity dev {dev_u[i]:.3e}, "
                                f"det dev {dev_det[i]:.3e}")
    return d


def wigner_d(a, n):
    """Little-group rotation L(n)^{-1} A L(Lambda^{-1} n) for unit timelike n,
    the adjoint of the unitary factor of inv(A) L(n) = L(Lambda^{-1} n) D^dagger.

    Satisfies the cocycle D(A1 A2, n) = D(A1, n) D(A2, Lambda1^{-1} n).
    a (..., 2, 2) and n (..., 4) broadcast over their leading sample axes.
    """
    m = sl2c.product(sl2c.inv(sl2c.check_sl2c(a)), sl2c.canonical_boost(n))
    return np.swapaxes(_unitary_factor(m).conj(), -1, -2)


def transport(a, n):
    """Move fiber labels n by A: returns (Lambda, n_new, D) with Lambda the
    vector map of A, n_new = minkowski.moved(Lambda, n) and D = D(Lambda, n_new), the
    spin rotation: the unitary factor of A L(n) = L(n_new) D.  a (..., 2, 2)
    and n (..., 4) broadcast over their leading sample axes."""
    lam, boost = sl2c.spinor_map(a), sl2c.canonical_boost(n)   # checks n before moved
    return lam, minkowski.moved(lam, n), _unitary_factor(a @ boost)


def _unitary_factor(m):
    """Unitary factor U of the polar decomposition M = P U, det M = 1, as
    S / sqrt(det S) with S = M + (M^dagger)^{-1} = (P + P^{-1}) U = tr(P) U
    (Cayley-Hamilton); (M^dagger)^{-1} is an adjugate, so nothing cancels."""
    s = m + np.swapaxes(sl2c.inv(m).conj(), -1, -2)
    return check_su2(s / np.sqrt(sl2c.det(s))[..., None, None])


def momentum_wigner_d(a, p, m):
    """Same construction on the momentum orbit: wigner_d at the label of p
    of mass m, with spatial part p/m and time part sqrt(1 + |p/m|^2) as
    minkowski.moved builds a label.  a (..., 2, 2) and p (..., 4) broadcast
    over their leading sample axes.  Each p must be on shell: p^0 equal to
    E = sqrt(m^2 + |p|^2) within MASS_SHELL_TOL relative to p^0 (-p.p is
    not formed: it cancels terms of size (p^0)^2).  A p that is not finite
    is off shell, and a finite p whose E overflows is refused as an overflow
    of its label, both without a numpy warning."""
    minkowski.positive(m, "mass")
    p = minkowski.real_four_vectors(p, "p")
    with np.errstate(over="ignore", invalid="ignore"):
        label = p / m
        label[..., 0] = np.sqrt(1.0 + (label[..., 1:] ** 2).sum(axis=-1))
        p0, energy = p[..., 0], m * label[..., 0]
        on_shell = np.isfinite(p0) & (abs(p0 - energy) <= MASS_SHELL_TOL * p0)
    minkowski.require(on_shell, lambda i: (
        f"label of p overflows: sqrt(1 + |p/m|^2) is inf for p = {p[i].tolist()}, m = {m!r}"
        if np.isinf(energy[i]) and np.isfinite(p[i]).all() else
        f"momentum off shell: p^0 = {float(p0[i])!r}, sqrt(m^2 + |p|^2) = {float(energy[i])!r}"))
    return wigner_d(a, label)


@dataclass(frozen=True)
class InducedPacketState:
    """Gaussian packet parameters plus 2 spin coefficients on a fiber n."""

    n: np.ndarray
    spin: np.ndarray          # 2 complex coefficients, unit norm
    center_x: np.ndarray
    center_p: np.ndarray
    width: float = 1.0

    def __post_init__(self):
        minkowski.check_unit_timelike_future(self.n)
        spin = minkowski.complex_array(self.spin, "spin coefficients")
        if spin.shape != (2,):
            raise ValueError("spin coefficients must have length 2")
        minkowski.unit_norm(spin, "spin coefficients")
        minkowski.positive(self.width, "width")
        for name in ("center_x", "center_p"):
            object.__setattr__(self, name, minkowski.four_vectors(getattr(self, name), name))
        object.__setattr__(self, "spin", spin)


def induced_transform(state, a):
    """Lorentz-transform a packet state: n, centers by the vector map, spin
    coefficients by the little-group rotation at the transformed fiber."""
    lam, n_new, d = transport(a, state.n)
    return replace(
        state,
        n=n_new,
        spin=d @ state.spin,
        center_x=minkowski.apply(lam, state.center_x),
        center_p=minkowski.apply(lam, state.center_p),
    )


def su2_angle_axis(d):
    """Rotation angle in [0, pi] and unit axis of an SU(2) element.

    d = cos(theta/2) I - i sin(theta/2) sigma.axis up to a global sign,
    which is fixed so the half-angle cosine is >= 0.
    """
    (d00, d01), (d10, d11) = np.asarray(d, dtype=complex).tolist()
    # Re(0.5j * trace(sigma_k d)) from the entries; "+ 0.0" turns a -0.0 into
    # 0.0 as the matrix product sigma_k @ d does, so an exact zero component
    # gets the sign that product gives it
    comps = np.array([0.0 * (t.real + 0.0) - 0.5 * (t.imag + 0.0)
                      for t in (d01 + d10, 1j * (d01 - d10), d00 - d11)])
    c = 0.5 * (d00 + d11).real
    if c < 0:
        c, comps = -c, -comps
    s = np.linalg.norm(comps)
    angle = 2.0 * np.arctan2(s, min(c, 1.0))
    if s < 1e-14:
        return 0.0, np.array([0.0, 0.0, 1.0])
    return float(angle), comps / s
