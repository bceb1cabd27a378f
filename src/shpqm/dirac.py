"""Covariant Dirac-operator toolkit on a timelike foliation vector n.

Gamma matrices are the standard Dirac-representation ones (diagonal gamma^0,
off-diagonal spatial gammas).  Index contractions use the library metric
diag(-1,1,1,1), so the Clifford relation reads

    {gamma^mu, gamma^nu} = -2 g^{mu nu} I,

which makes (gamma.n)^2 = +1 for unit timelike n and (gamma5)^2 = +1.  Both
signs are deliberate: they are forced by K_L^2 = (p.n)^2 and by idempotence
of the light-cone and helicity projections, and they are reported as
convention flags by the verification suites.

The operator kernels are batch-first: n and p are (..., 4) arrays and the
operators they build carry the same leading sample axes ahead of their
matrix axes; single (4,) vectors go through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import little_group, minkowski, sl2c

_S0, _S1, _S2, _S3 = sl2c.SIGMA0, sl2c.SIGMA1, sl2c.SIGMA2, sl2c.SIGMA3
_Z = np.zeros((2, 2), dtype=complex)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


GAMMA = np.stack([
    _block(_S0, _Z, _Z, -_S0),
    _block(_Z, _S1, -_S1, _Z),
    _block(_Z, _S2, -_S2, _Z),
    _block(_Z, _S3, -_S3, _Z),
])
GAMMA.setflags(write=False)

GAMMA5 = 1.0j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
GAMMA5.setflags(write=False)

# Block matrix assembling the two-spinor pair into a four-spinor; also the
# basis change between the pair (chiral-like) picture and the gammas above.
ASSEMBLY = np.block([[_S0, _S0], [-_S0, _S0]]) / np.sqrt(2.0)
ASSEMBLY.setflags(write=False)

ID4 = np.eye(4, dtype=complex)

_GAMMA0_ROW_SIGNS = GAMMA[0].diagonal().real[:, None]       # gamma^0 = diag(1, 1, -1, -1)
_GAMMA0_ROW_SIGNS.setflags(write=False)

CONVENTION_FLAGS = ("gamma_dot_n_squared_plus_one", "gamma5_squared_plus_one")


def _table(c):
    """Read-only real table of complex coefficients c, one row per monomial:
    the real and imaginary parts of each entry, interleaved."""
    table = np.ascontiguousarray(c, dtype=complex).reshape(len(c), -1).view(float)
    table.setflags(write=False)
    return table


def _operator(monomials, table, shape):
    """An operator that is a polynomial in n and p, as one real product: its
    monomials (..., rows) @ table, viewed as complex matrices of `shape`."""
    out = monomials @ table
    return out.view(complex).reshape(out.shape[:-1] + shape)


def gamma_dot(v):
    """gamma.v = gamma^mu v_mu (covariant contraction)."""
    return _operator(minkowski.lower(v), _GAMMA_TABLE, (4, 4))


_SIGMA_ALL = np.stack([[0.25j * (GAMMA[m] @ GAMMA[n] - GAMMA[n] @ GAMMA[m])
                        for n in range(4)] for m in range(4)])
_SIGMA_ALL.setflags(write=False)


# The six (mu, nu) with mu < nu; an antisymmetric pair of indices is stored
# as these six entries.  T^{mu nu} = PAIR_SIGN[mu, nu] * (pair PAIR_OF[mu, nu]
# of T): the signed gather of any (mu, nu), 0 on the diagonal.
PAIRS = np.triu_indices(4, 1)
PAIR_OF = np.zeros((4, 4), dtype=int)
PAIR_OF[PAIRS] = PAIR_OF[PAIRS[::-1]] = range(6)
PAIR_SIGN = np.zeros((4, 4))
PAIR_SIGN[PAIRS], PAIR_SIGN[PAIRS[::-1]] = 1.0, -1.0
_SIGMA_PAIRS = _SIGMA_ALL[PAIRS]
for _frozen in (*PAIRS, PAIR_OF, PAIR_SIGN, _SIGMA_PAIRS):
    _frozen.setflags(write=False)

_GAMMA_TABLE = _table(GAMMA)
_K_TABLE = _table(_SIGMA_ALL.transpose(1, 0, 2, 3))    # K^mu = Sigma^{mu nu} n_nu: row nu
_HELICITY_TABLE = _table(2.0j * GAMMA5 @ _SIGMA_ALL.reshape(16, 4, 4))     # row (mu, nu)
# Sigma_n^{mu nu} = Sigma^{mu nu} + g_rr (Sigma^{mu r} n^nu - Sigma^{nu r} n^mu) n^r
# over PAIRS: rows n^r n^c, then the constant Sigma^{mu nu}
_K_N = np.einsum("r,mrab,cn->rcmnab", np.diag(minkowski.METRIC), _SIGMA_ALL, np.eye(4))
_SIGMA_N_TABLE = _table(np.concatenate([
    (_K_N - _K_N.swapaxes(2, 3))[:, :, PAIRS[0], PAIRS[1]].reshape(16, 6, 4, 4),
    _SIGMA_PAIRS[None]]))
del _K_N


def sigma(mu, nu):
    """Spin generator (i/4) [gamma^mu, gamma^nu]."""
    return _SIGMA_ALL[mu, nu]


def k_all(n):
    """All four K^mu stacked, shape (..., 4, 4, 4)."""
    return _operator(minkowski.lower(n), _K_TABLE, (4, 4, 4))


def projector_pi(n):
    """pi^{lambda mu} = g^{lambda mu} + n^lambda n^mu."""
    n = np.asarray(n, dtype=float)
    return minkowski.METRIC + n[..., :, None] * n[..., None, :]


def gamma_n(mu, n):
    """Projected gamma matrix gamma_lambda pi^{lambda mu} = gamma^mu + (gamma.n) n^mu.

    mu is an index, or an index array with the leading shape of n.
    """
    n = np.asarray(n, dtype=float)
    n_mu = np.take_along_axis(n, np.asarray(mu)[..., None], axis=-1)
    return GAMMA[mu] + n_mu[..., None] * gamma_dot(n)


def sigma_n_pairs(n):
    """Sigma_n^{mu nu} = Sigma^{mu nu} + K^mu n^nu - K^nu n^mu over PAIRS,
    shape (..., 6, 4, 4): the six independent generators."""
    n = np.asarray(n, dtype=float)
    monomials = np.ones(n.shape[:-1] + (17,))
    monomials[..., :16] = (n[..., :, None] * n[..., None, :]).reshape(n.shape[:-1] + (16,))
    return _operator(monomials, _SIGMA_N_TABLE, (6, 4, 4))


def sigma_n_all(n):
    """All Sigma_n^{mu nu} stacked, shape (..., 4, 4, 4, 4): the scatter of
    sigma_n_pairs, exactly antisymmetric in (mu, nu)."""
    pairs = sigma_n_pairs(n)
    out = np.zeros(pairs.shape[:-3] + (4, 4, 4, 4), dtype=complex)
    mu, nu = PAIRS
    out[..., mu, nu, :, :] = pairs
    out[..., nu, mu, :, :] = -pairs
    return out


def second_compound(lam):
    """Lambda wedge Lambda on PAIRS, shape (..., 6, 6): an antisymmetric
    T'^{ls} = Lambda^l_m Lambda^s_n T^{mn} has pairs C @ (pairs of T), where
    C[(l, s), (m, n)] = Lambda^l_m Lambda^s_n - Lambda^l_n Lambda^s_m."""
    lam = np.asarray(lam, dtype=float)
    l_row, s_row = (i[:, None] for i in PAIRS)
    m_col, n_col = PAIRS
    return (lam[..., l_row, m_col] * lam[..., s_row, n_col]
            - lam[..., l_row, n_col] * lam[..., s_row, m_col])


def _helicity_numerator(p, n):
    """2i gamma5 (p.K) = 2i gamma5 Sigma^{mu nu} p_mu n_nu."""
    pn = minkowski.lower(p)[..., :, None] * minkowski.lower(n)[..., None, :]
    return _operator(pn.reshape(pn.shape[:-2] + (16,)), _HELICITY_TABLE, (4, 4))


def k_l(p, n):
    """Longitudinal (sector-Hermitian) part of gamma.p, -(p.n)(gamma.n)."""
    return -minkowski.inner(p, n)[..., None, None] * gamma_dot(n)


def k_t(p, n):
    """Transverse part, -2i gamma5 (p.K)(gamma.n)."""
    return -_helicity_numerator(p, n) @ gamma_dot(n)


def k_l_symmetrized(p, n):
    """(1/2)(gamma.p + gamma.n gamma.p gamma.n); equal to k_l."""
    gp, gn = gamma_dot(p), gamma_dot(n)
    return 0.5 * (gp + gn @ gp @ gn)


def k_t_symmetrized(p, n):
    """(1/2) gamma5 (gamma.p - gamma.n gamma.p gamma.n); equal to k_t."""
    gp, gn = gamma_dot(p), gamma_dot(n)
    return 0.5 * GAMMA5 @ (gp - gn @ gp @ gn)


def free_k0(p, m_param, n=None):
    """Free evolution operator (K_T^2 - K_L^2)/2M = (p.p/2M) I.

    The result is independent of n; n only selects the split into K_T, K_L.
    """
    minkowski.positive(m_param, "mass parameter")
    n = minkowski.N0 if n is None else minkowski.check_unit_timelike_future(n)
    kt, kl = k_t(p, n), k_l(p, n)
    return (kt @ kt - kl @ kl) / (2.0 * m_param)


@dataclass(frozen=True)
class FieldTensor:
    """Constant electromagnetic field F_{mu nu} with coupling e and mass M.

    Stored with lower indices; F_{0i} = E_i and F_{ij} = eps_{ijk} B_k.
    """

    f_lower: np.ndarray
    charge: float
    mass: float

    def __post_init__(self):
        f = minkowski.four_vectors(self.f_lower, "field tensor")
        if f.shape != (4, 4) or np.max(np.abs(f + f.T)) != 0.0:
            raise ValueError("field tensor must be exactly antisymmetric 4x4")
        minkowski.finite(self.charge, "charge")
        minkowski.positive(self.mass, "mass parameter")
        f = f.copy()
        f.setflags(write=False)
        object.__setattr__(self, "f_lower", f)

    @classmethod
    def from_fields(cls, e_field, b_field, charge=1.0, mass=1.0):
        ex, ey, ez = minkowski.real(e_field, "e_field")
        bx, by, bz = minkowski.real(b_field, "b_field")
        f = np.array([
            [0.0, ex, ey, ez],
            [-ex, 0.0, bz, -by],
            [-ey, -bz, 0.0, bx],
            [-ez, by, -bx, 0.0],
        ])
        return cls(f, charge, mass)


def _with_field(pairs, field):
    """T^{mu nu} F_{mu nu} = 2 sum over PAIRS of T_p F_p for an antisymmetric
    T given by its pairs, shape (6, 4, 4)."""
    return 2.0 * np.einsum("pab,p->ab", pairs, field.f_lower[PAIRS])


def spin_hamiltonian(p_kinetic, n, field):
    """Interacting evolution operator: kinetic scalar plus (e/2M) Sigma_n.F.

    Only the projection of F into the surface orthogonal to n contributes,
    since Sigma_n projects each index itself.
    """
    minkowski.check_unit_timelike_future(n)
    kinetic = minkowski.inner(p_kinetic, p_kinetic) / (2.0 * field.mass)
    spin_term = _with_field(sigma_n_pairs(n), field)
    return kinetic * ID4 + (field.charge / (2.0 * field.mass)) * spin_term


def dipole_rhs(n, field):
    """Spin coupling that becomes a pure electric dipole term in the n frame:
    -i e gamma5 (K^mu n^nu - K^nu n^mu) F_{mu nu}, the bracket being
    Sigma_n^{mu nu} - Sigma^{mu nu}."""
    minkowski.check_unit_timelike_future(n)
    contracted = _with_field(sigma_n_pairs(n) - _SIGMA_PAIRS, field)
    return -1.0j * field.charge * GAMMA5 @ contracted


def projections(p, n):
    """The three conserved projection pairs (light-cone, energy-sign, helicity).

    Returns a dict with keys 'cone', 'energy', 'helicity', each a (P+, P-) pair.
    """
    n = minkowski.check_unit_timelike_future(n)
    pn = minkowski.inner(p, n)
    minkowski.require(minkowski.inner(p, p) + pn * pn > 0,
                      lambda i: "p^2 + (p.n)^2 must be positive for the helicity pair")
    minkowski.require(pn != 0.0, lambda i: "p.n = 0: energy-sign projection undefined")
    gn = gamma_dot(n)
    cone = (0.5 * (ID4 - gn), 0.5 * (ID4 + gn))
    s = np.sign(pn)[..., None, None]
    energy = (0.5 * (1.0 - s) * ID4, 0.5 * (1.0 + s) * ID4)
    hel_op = helicity_operator(p, n)
    helicity = (0.5 * (ID4 + hel_op), 0.5 * (ID4 - hel_op))
    return {"cone": cone, "energy": energy, "helicity": helicity}


def helicity_operator(p, n):
    """The operator inside the helicity projection, 2i gamma5 K.p / sqrt(p^2+(p.n)^2)."""
    pn = minkowski.inner(p, n)
    norm2 = minkowski.inner(p, p) + pn * pn
    return _helicity_numerator(p, n) / np.sqrt(norm2)[..., None, None]


def sector_metric(n):
    """eta with <psi|phi>_n = psi^dagger eta phi: -+ gamma^0 (gamma.n) for n in
    the future/past light cone.  Reduces to the identity at the rest frame.
    gamma^0 is diagonal, so its product is a sign on each row of gamma.n."""
    sign = 1.0 - 2.0 * (minkowski.components(n)[0] > 0)
    return np.asarray(sign)[..., None, None] * _GAMMA0_ROW_SIGNS * gamma_dot(n)


def is_sector_hermitian(op, n):
    """True when eta op = op^dagger eta, to 1e-10, in the n-sector scalar
    product; one flag per sample."""
    eta = sector_metric(n)
    dev = np.abs(eta @ op - np.swapaxes(op.conj(), -1, -2) @ eta)
    return dev.max(axis=(-2, -1)) <= 1e-10


@dataclass(frozen=True)
class TwoSpinorPair:
    """First- and second-representation 2-spinors on a common fiber n."""

    psi: np.ndarray
    phi: np.ndarray
    n: np.ndarray

    @np.errstate(over="ignore")     # the sector norm squares the entries
    def __post_init__(self):
        for name in ("psi", "phi"):
            a = minkowski.complex_array(getattr(self, name), name)
            if a.shape[-1:] != (2,):
                raise ValueError(f"{name} must be 2-spinors (last axis 2), got shape {a.shape}")
            norm2 = (a.real * a.real + a.imag * a.imag).sum(axis=-1)
            minkowski.require(np.isfinite(norm2), lambda i: (
                f"{name} must be finite, with a finite squared norm, got {a[i].tolist()}"))
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n", minkowski.four_vectors(self.n, "n"))


@dataclass(frozen=True)
class FourSpinor:
    """4-component spinor labeled by its fiber n."""

    components: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components",
                           np.asarray(self.components, dtype=complex))
        object.__setattr__(self, "n", minkowski.four_vectors(self.n, "n"))


def _matvec(m, v):
    """Matrix times vector over leading sample axes."""
    return (m @ v[..., None])[..., 0]


def assemble_spinor(pair):
    """Build the four-spinor from the pair via the block assembly matrix.

    The boost factors enter inverted relative to the canonical_boost
    orientation; this is the form for which the sector norm equals
    |psi|^2 + |phi|^2 identically (see the convention notes in README).
    Pairs may carry leading sample axes on psi, phi and n.
    """
    boost = sl2c.canonical_boost(pair.n)
    first = _matvec(sl2c.inv(boost), pair.psi)
    second = _matvec(boost, pair.phi)   # second-rep boost inverse equals L(n)
    stacked = np.concatenate([first, second], axis=-1)
    return FourSpinor(stacked @ ASSEMBLY.T, pair.n)


def sector_norm(spinor):
    """Invariant norm -+ psibar (gamma.n) psi; positive on the future cone."""
    c = spinor.components
    return (c.conj() * _matvec(sector_metric(spinor.n), c)).sum(axis=-1).real


def s_lambda(a):
    """4x4 spinor representation S(Lambda) of SL(2,C) elements a:
    ASSEMBLY diag(b, a) ASSEMBLY^dagger = (1/2)[[a+b, a-b], [a-b, a+b]], b = second_rep(a)."""
    bar = sl2c.second_rep(a)
    out = np.empty(bar.shape[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = out[..., 2:, 2:] = 0.5 * (bar + a)
    out[..., :2, 2:] = out[..., 2:, :2] = 0.5 * (a - bar)
    return out


def transform_pair(pair, a):
    """Wigner-rotate both 2-spinors onto the transformed fiber."""
    _, n_new, d = little_group.transport(a, pair.n)
    return TwoSpinorPair(_matvec(d, pair.psi), _matvec(d, pair.phi), n_new)
