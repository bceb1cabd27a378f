"""Randomized identity suites over the operator algebra and representations.

Each sampled suite draws its seeded random inputs in bulk, one stream per
input variable (the axis and rapidity of n, the momentum, each parameter of a
group element, ...): a generator seeded by one child of
`SeedSequence(seed)`, whose row i is the variable of sample i.  It builds the
matrices as batches over a leading sample axis and measures the deviation of
a family of matrix identities per sample.  The first k rows of every stream
are the same however many samples follow, so `samples=k+1` reproduces sample
k of any longer run with the same seed.  A result reports the largest
deviation, the sample it occurred at, and pass/fail against a tolerance.
Informational checks record known sign discrepancies of commonly quoted
closed forms without affecting the overall status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dirac, little_group, minkowski, sl2c, spin_coupling

# Samples drawn and evaluated together.  The operator suite's traced peak
# is about 6 kB per sample, 2.9 MiB on a chunk of 500 (numpy 2.4); fewer
# samples a chunk cost more calls, more a larger heap.
CHUNK = 500

# sum_m n_m Sigma^{m nu} = ((n_lower @ _FIRST_INDEX) @ pairs)[nu]
_FIRST_INDEX = (dirac.PAIR_SIGN[..., None] * np.eye(6)[dirac.PAIR_OF]).reshape(4, 24)


@dataclass(frozen=True)
class IdentityResult:
    identity: str
    description: str
    samples: int
    max_deviation: float
    tolerance: float
    informational: bool = False
    convention_flags: tuple = ()
    worst_sample: int | None = None   # index of max_deviation; None if unsampled

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance

    def to_dict(self):
        return {**vars(self), "passed": self.passed}


def _mdev(x):
    return float(np.max(np.abs(x)))


def _sample_mdev(x):
    """Largest |entry| of each sample of a batch."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


# {suite: {identity: (description, tolerance)}}, in the order of the report
IDENTITIES = {
    "operator_algebra": {
        "k_squares": ("squares of the longitudinal/transverse operators", 1e-9),
        "k_commute_free": ("free-case commutation of K_T and K_L", 1e-9),
        "k_n_orthogonal": ("K contracted with the foliation vector vanishes", 1e-9),
        "sigma_n_n_orthogonal": ("projected spin contracted with n vanishes", 1e-9),
        "sigma_n_projected_commutator":
            ("projected spin equals (i/4) x projected gamma commutator", 1e-9),
        "kk_commutator": ("[K, K] closes on the projected spin", 1e-9),
        "sigma_k_commutator": ("[Sigma_n, K] closes on K with the projector", 1e-9),
        "sigma_sigma_commutator": ("projected spin algebra closure", 1e-9),
        "covariance": ("Sigma_n transforms as a tensor operator", 1e-9),
        "projections": ("cone/energy/helicity projectors idempotent, orthogonal, "
                        "complete", 1e-9),
        "sigma_sigma_commutator_quoted_variant":
            ("alternative sign pattern sometimes quoted for the spin closure "
             "(does not hold; kept for reference)", 1e-9),
    },
    "little_group": {
        "wigner_su2": ("induced rotation is in SU(2)", 1e-9),
        "wigner_cocycle": ("composition law of the induced rotation", 1e-9),
        "collinear_boosts": ("collinear boosts induce no rotation", 1e-9),
    },
    "rest_frame": {
        "rest_boost_components":
            ("boost components of the projected spin vanish at the rest fiber", 1e-12),
        "rest_spin_eigenvalues": ("rotation components have eigenvalues +-1/2", 1e-9),
        "rest_su2_closure": ("rotation components close the su(2) algebra", 1e-12),
    },
    "norm": {
        "sector_norm_equality": ("sector norm equals the sum of two-spinor norms", 1e-10),
        "sector_norm_invariance": ("sector norm is Lorentz invariant", 1e-10),
    },
    "coupling": {
        "cg_orthogonality": ("Clebsch-Gordan change of basis is orthogonal", 1e-12),
        "singlet_invariance": ("the singlet is invariant under the induced rotation "
                               "up to a unit phase", 1e-10),
    },
}
# recorded for reference, excluded from pass/fail
INFORMATIONAL = {"sigma_sigma_commutator_quoted_variant"}
FLAGGED = {"k_squares": dirac.CONVENTION_FLAGS}


def _report(suite, deviations):
    """The results of `suite`, in table order, from {identity: deviation}: an
    array of per-sample deviations, whose worst sample is named, or a
    (deviation, checks) pair for an unsampled identity."""
    results = []
    for identity, (description, tolerance) in IDENTITIES[suite].items():
        dev = deviations[identity]
        if isinstance(dev, tuple):
            (value, checks), worst = dev, None
        else:
            worst = int(np.argmax(dev))
            value, checks = dev[worst], len(dev)
        results.append(IdentityResult(identity, description, checks, float(value), tolerance,
                                      identity in INFORMATIONAL,
                                      FLAGGED.get(identity, ()), worst))
    return results


# A stream draw(rng, rows) gives the next `rows` rows of one input variable
# in one call (see _per_sample).

def _normal(*shape, scale=1.0):
    return lambda rng, rows: rng.normal(scale=scale, size=(rows, *shape))


def _uniform(low, high, *shape):
    return lambda rng, rows: rng.uniform(low, high, size=(rows, *shape))


def _integers(high, *shape):
    return lambda rng, rows: rng.integers(0, high, size=(rows, *shape))


def _complex(*shape):
    # one draw per chunk: real and imaginary parts side by side in each row
    return lambda rng, rows: rng.normal(size=(rows, *shape, 2)) @ [1.0, 1.0j]


# foliation vector n: spatial axis, rapidity (distributed as the draws of
# minkowski.random_unit_timelike(rng, 1.5))
_N_STREAMS = (_normal(3), _uniform(0.0, 1.5))
# SL(2,C) element: rotation axis, boost axis, angle, rapidity (distributed as
# the draws of sl2c.random_sl2c(rng, 1.0))
_ELEMENT_STREAMS = (_normal(3), _normal(3), _uniform(0.0, 2 * np.pi), _uniform(0.0, 1.0))
# the input variables of each sampled suite, in the order its evaluation takes them
STREAMS = {
    # n, the four-momentum p, the indices (mu, nu), la and (ls, sg), the element
    "operator_algebra": (*_N_STREAMS, _normal(4, scale=2.0), _integers(4, 2), _integers(4),
                         _integers(4, 2), *_ELEMENT_STREAMS),
    # n, two elements, the axis (x, y or z) and rapidities of two collinear boosts
    "little_group": (*_N_STREAMS, *_ELEMENT_STREAMS, *_ELEMENT_STREAMS, _integers(3),
                     _uniform(-1.5, 1.5, 2)),
    # n, the two-spinors psi and phi, the element
    "norm": (*_N_STREAMS, _complex(2), _complex(2), *_ELEMENT_STREAMS),
    "coupling": (*_N_STREAMS, *_ELEMENT_STREAMS),
}


def _element(rot_axis, boost_axis, angle, rapidity):
    """The elements drawn by _ELEMENT_STREAMS.  A complex `@`: the norm and
    coupling reports depend on its round-off, and sl2c.product's differs."""
    return sl2c.sl2c_rotation(rot_axis, angle) @ sl2c.sl2c_boost(boost_axis, rapidity)


def _commutator(x, y):
    """[x, y] = x y - y x of complex matrix stacks."""
    return sl2c.product(x, y) - sl2c.product(y, x)


def _per_sample(seed, samples, streams, evaluate):
    """Per-sample values of a family of identities.

    Each input variable has its own stream: a generator seeded by one child
    of SeedSequence(seed), from which draw(rng, rows) takes the next rows of
    that variable, row i being sample i.  evaluate(*blocks) takes CHUNK rows
    of every stream, in the order of `streams`, and returns {identity: value
    per sample}.  numpy draws a block as consecutive single draws, so the
    first k rows of a stream do not depend on how many follow or how they are
    chunked: a run with samples=k has the first k samples of any longer run.
    """
    if samples < 1:
        raise ValueError("sample count must be positive")
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(len(streams))]
    parts = []
    for start in range(0, samples, CHUNK):
        rows = min(CHUNK, samples - start)
        parts.append(evaluate(*(draw(rng, rows) for draw, rng in zip(streams, rngs))))
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _operator_deviations(n_axis, n_w, p, mu_nu, la, ls_sg, *element):
    """Per-sample deviations of the operator identities on one chunk.  Each
    family of identities has a helper of its own, whose temporaries are freed
    once it has reduced them to deviations."""
    n = minkowski.rest_boosted(n_axis, n_w)
    pn, pp = minkowski.inner(p, n), minkowski.inner(p, p)
    pairs = dirac.sigma_n_pairs(n).reshape(len(n), 6, 16)
    pi = dirac.projector_pi(n)
    return {**_k_deviations(p, n, pn, pp),
            **_sigma_deviations(n, pairs, pi, mu_nu, ls_sg),
            **_k_sigma_deviations(n, pairs, pi, mu_nu, la),
            "covariance": _covariance_deviation(n, pairs, _element(*element)),
            "projections": _projection_deviation(p, n, pn, pp)}


def _sigma_at(pairs, i, j):
    """Sigma_n^{ij} of each sample at its own indices, from its six pairs."""
    rows = len(pairs)
    pair = pairs[np.arange(rows), dirac.PAIR_OF[i, j]]
    return (dirac.PAIR_SIGN[i, j][:, None] * pair).reshape(rows, 4, 4)


def _pi_at(pi, i, j):
    """pi^{ij} of each sample at its own indices, shaped to scale a matrix."""
    return pi[np.arange(len(pi)), i, j][:, None, None]


def _k_deviations(p, n, pn, pp):
    """The squares of K_L and K_T, and their free-case commutator."""
    eye = np.eye(4)
    kl, kt = dirac.k_l(p, n), dirac.k_t(p, n)
    klkl, ktkt = sl2c.product(kl, kl), sl2c.product(kt, kt)
    return {"k_squares": np.maximum.reduce([
                _sample_mdev(klkl - (pn**2)[:, None, None] * eye),
                _sample_mdev(ktkt - (pp + pn**2)[:, None, None] * eye),
                _sample_mdev(ktkt - klkl - pp[:, None, None] * eye)]),
            "k_commute_free": _sample_mdev(_commutator(kt, kl))}


def _sigma_deviations(n, pairs, pi, mu_nu, ls_sg):
    """The algebra of Sigma_n at the drawn indices (mu, nu) and (ls, sg):
    orthogonal to n, the projected gamma commutator, and the closure, with
    the quoted variant of the closure."""
    (mu, nu), (ls, sg) = mu_nu.T, ls_sg.T
    rows = len(n)
    s_mn = _sigma_at(pairs, mu, nu)
    dev = {
        # a real matrix times the float view of complex ones gives the same
        # floats as the complex product, at a real product's cost
        "sigma_n_n_orthogonal": _sample_mdev(
            ((minkowski.lower(n) @ _FIRST_INDEX).reshape(rows, 4, 6)
             @ pairs.view(float)).view(complex)),
        "sigma_n_projected_commutator": _sample_mdev(
            s_mn - 0.25j * _commutator(dirac.gamma_n(mu, n), dirac.gamma_n(nu, n)))}
    s_mu_sg, s_nu_ls, s_nu_sg, s_mu_ls = (
        _sigma_at(pairs, mu, sg), _sigma_at(pairs, nu, ls),
        _sigma_at(pairs, nu, sg), _sigma_at(pairs, mu, ls))
    comm = _commutator(s_mn, _sigma_at(pairs, ls, sg))
    closed = -1j * (_pi_at(pi, nu, ls) * s_mu_sg + _pi_at(pi, mu, sg) * s_nu_ls
                    - _pi_at(pi, mu, ls) * s_nu_sg - _pi_at(pi, nu, sg) * s_mu_ls)
    dev["sigma_sigma_commutator"] = _sample_mdev(comm - closed)
    # a commonly quoted variant of the closure with two signs flipped; its
    # Sigma_n^{ls nu} and Sigma_n^{ls mu} are the exact negations of those above
    alt = -1j * (_pi_at(pi, nu, ls) * s_mu_sg + _pi_at(pi, sg, mu) * -s_nu_ls
                 - _pi_at(pi, mu, ls) * s_nu_sg - _pi_at(pi, sg, nu) * -s_mu_ls)
    dev["sigma_sigma_commutator_quoted_variant"] = _sample_mdev(comm - alt)
    return dev


def _k_sigma_deviations(n, pairs, pi, mu_nu, la):
    """K at the drawn indices mu, nu and la: orthogonal to n, and the
    closures of [K, K] and [Sigma_n, K]."""
    mu, nu = mu_nu.T
    idx = np.arange(len(n))
    kal = dirac.k_all(n)
    dev = {"k_n_orthogonal": _sample_mdev(
        np.einsum("...mab,...m->...ab", kal, minkowski.lower(n)))}
    k_mu, k_nu, k_la = kal[idx, mu], kal[idx, nu], kal[idx, la]
    s_mn = _sigma_at(pairs, mu, nu)
    dev["kk_commutator"] = _sample_mdev(_commutator(k_mu, k_nu) + 1j * s_mn)
    dev["sigma_k_commutator"] = _sample_mdev(
        _commutator(s_mn, k_la)
        + 1j * (_pi_at(pi, nu, la) * k_mu - _pi_at(pi, mu, la) * k_nu))
    return dev


def _covariance_deviation(n, pairs, a):
    """Covariance under the group element a: S^-1 Sigma_{n'} S, n' = Lambda n,
    carried back by Lambda^-1 wedge Lambda^-1, is Sigma_n."""
    rows = len(n)
    lam = sl2c.spinor_map(a)
    s = dirac.s_lambda(a)
    # S^-1 [X_1 ... X_6] with the X_k side by side, then [S^-1 X_k] stacked,
    # times S, then carried back.  One statement a stage: each frees the
    # arrays of the last
    x = (np.linalg.inv(s)
         @ dirac.sigma_n_pairs(minkowski.moved(lam, n)).transpose(0, 2, 1, 3).reshape(rows, 4, 24)
         ).reshape(rows, 4, 6, 4).transpose(0, 2, 1, 3).reshape(rows, 24, 4)
    x = sl2c.product(x, s)
    x = (dirac.second_compound(minkowski.inverse(lam))
         @ x.view(float).reshape(rows, 6, 32)).view(complex)
    x -= pairs
    return _sample_mdev(x)


def _projection_deviation(p, n, pn, pp):
    """The projection pairs idempotent, mutually orthogonal and complete by
    pair; only on samples away from p.n = 0 and p^2 + (p.n)^2 = 0."""
    eye = np.eye(4)
    away = (abs(pn) > 0.2) & (pp + pn**2 > 0.2)
    dev = np.zeros(len(n))
    if away.any():
        proj = dirac.projections(p[away], n[away])
        dev[away] = np.maximum.reduce([
            _sample_mdev(x) for plus, minus in proj.values()
            for x in (sl2c.product(plus, plus) - plus, sl2c.product(minus, minus) - minus,
                      sl2c.product(plus, minus), plus + minus - eye)])
    return dev


def operator_algebra_suite(seed=42, samples=1000):
    """Core operator identities over random (p, n, Lambda)."""
    return _report("operator_algebra", _per_sample(
        seed, samples, STREAMS["operator_algebra"], _operator_deviations))


def little_group_suite(seed=42, samples=1000):
    """Unitarity, cocycle composition, and special cases of the induced
    rotation."""
    def deviations(n_axis, n_w, *rest):
        n = minkowski.rest_boosted(n_axis, n_w)
        a1, a2 = _element(*rest[0:4]), _element(*rest[4:8])
        axis, w = np.eye(3)[rest[8]], rest[9]      # collinear boosts along x, y or z
        d = little_group.wigner_d(a1, n)
        su2 = np.maximum(_sample_mdev(sl2c.product(d, np.swapaxes(d.conj(), -1, -2))
                                      - np.eye(2)),
                         abs(sl2c.det(d) - 1.0))
        lam1 = sl2c.spinor_map(a1)
        n_back = minkowski.moved(minkowski.inverse(lam1), n)
        lhs = little_group.wigner_d(sl2c.product(a1, a2), n)
        rhs = sl2c.product(d, little_group.wigner_d(a2, n_back))
        # collinear boosts compose without rotation at the rest fiber
        b = sl2c.product(sl2c.sl2c_boost(axis, w[:, 0]), sl2c.sl2c_boost(axis, w[:, 1]))
        d_b = little_group.transport(b, minkowski.N0)[2]
        return {"wigner_su2": su2, "wigner_cocycle": _sample_mdev(lhs - rhs),
                "collinear_boosts": _sample_mdev(d_b - np.eye(2))}

    return _report("little_group",
                   _per_sample(seed, samples, STREAMS["little_group"], deviations))


def rest_frame_suite():
    """Reductions at the rest fiber n0."""
    sna = dirac.sigma_n_all(minkowski.N0)
    dev_boost_part = max(_mdev(sna[0, j]) for j in range(1, 4))
    eig_dev = 0.0
    for i, j in ((1, 2), (2, 3), (3, 1)):
        eigs = np.sort(np.linalg.eigvalsh(sna[i, j]))
        eig_dev = max(eig_dev, _mdev(eigs - np.array([-0.5, -0.5, 0.5, 0.5])))
    s12, s23, s31 = sna[1, 2], sna[2, 3], sna[3, 1]
    dev_su2 = _mdev(s12 @ s23 - s23 @ s12 - 1j * s31)
    return _report("rest_frame", {"rest_boost_components": (dev_boost_part, 3),
                                  "rest_spin_eigenvalues": (eig_dev, 3),
                                  "rest_su2_closure": (dev_su2, 1)})


def norm_suite(seed=42, samples=1000):
    """Sector norm equality and Lorentz invariance."""
    def deviations(n_axis, n_w, psi, phi, *element):
        pair = dirac.TwoSpinorPair(psi, phi, minkowski.rest_boosted(n_axis, n_w))
        ref = (np.einsum("...a,...a->...", psi.conj(), psi).real
               + np.einsum("...a,...a->...", phi.conj(), phi).real)
        moved = dirac.assemble_spinor(dirac.transform_pair(pair, _element(*element)))
        return {"sector_norm_equality":
                abs(dirac.sector_norm(dirac.assemble_spinor(pair)) - ref),
                "sector_norm_invariance": abs(dirac.sector_norm(moved) - ref)}

    return _report("norm", _per_sample(seed, samples, STREAMS["norm"], deviations))


def coupling_suite(seed=42, samples=200):
    """Orthogonality of four whole coupled bases, and singlet invariance."""
    dev_orth = 0.0
    for j1, j2 in ((0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (1.5, 1.0)):
        u = spin_coupling.coupled_basis(j1, j2)
        dev_orth = max(dev_orth, _mdev(u @ u.T - np.eye(len(u))))

    def deviations(n_axis, n_w, *element):
        n, a = minkowski.rest_boosted(n_axis, n_w), _element(*element)
        d = little_group.transport(a, n)[2]
        s = spin_coupling.singlet(n)
        rot = spin_coupling.rotate_two(s, d)
        overlap = np.einsum("...ik,...ik->...", rot.coefficients.conj(), s.coefficients)
        return {"singlet_invariance": abs(abs(overlap) - 1.0)}

    devs = _per_sample(seed, samples, STREAMS["coupling"], deviations)
    return _report("coupling", {**devs, "cg_orthogonality": (dev_orth, 4)})


SUITES = {
    "operator_algebra": operator_algebra_suite,
    "little_group": little_group_suite,
    "rest_frame": rest_frame_suite,
    "norm": norm_suite,
    "coupling": coupling_suite,
}


def run_all(seed=42, samples=1000):
    """Run every suite; returns {suite_name: [IdentityResult, ...]}."""
    out = {}
    for name, fn in SUITES.items():
        if name == "rest_frame":
            out[name] = fn()
        elif name == "coupling":
            out[name] = fn(seed=seed, samples=max(10, samples // 5))
        else:
            out[name] = fn(seed=seed, samples=samples)
    return out


def all_passed(report):
    return all(r.passed for results in report.values() for r in results
               if not r.informational)
