"""Tests for the covariant Dirac operator toolkit."""

import numpy as np
import pytest

from shpqm import dirac as dr, minkowski as mk, sl2c


def mdev(x):
    return float(np.max(np.abs(x)))


def unit(v):
    return v / np.sqrt(-mk.dot(v, v))


def test_clifford_algebra():
    for mu in range(4):
        for nu in range(4):
            anti = dr.GAMMA[mu] @ dr.GAMMA[nu] + dr.GAMMA[nu] @ dr.GAMMA[mu]
            assert mdev(anti + 2 * mk.METRIC[mu, nu] * np.eye(4)) < 1e-14


def test_gamma5_properties():
    g5 = dr.GAMMA5
    assert mdev(g5 @ g5 - np.eye(4)) < 1e-14
    for mu in range(4):
        assert mdev(g5 @ dr.GAMMA[mu] + dr.GAMMA[mu] @ g5) < 1e-14


def test_gamma_dot_n_squares_to_plus_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        gn = dr.gamma_dot(n)
        assert mdev(gn @ gn - np.eye(4)) < 1e-12
    assert "gamma_dot_n_squared_plus_one" in dr.CONVENTION_FLAGS
    assert "gamma5_squared_plus_one" in dr.CONVENTION_FLAGS


def test_k_operator_squares_and_difference():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = mk.random_unit_timelike(rng)
        p = mk.random_four_vector(rng, 2.0)
        pn, pp = mk.dot(p, n), mk.dot(p, p)
        kl, kt = dr.k_l(p, n), dr.k_t(p, n)
        assert mdev(kl @ kl - pn**2 * np.eye(4)) < 1e-10
        assert mdev(kt @ kt - (pp + pn**2) * np.eye(4)) < 1e-10
        assert mdev(kt @ kt - kl @ kl - pp * np.eye(4)) < 1e-10
        assert mdev(kt @ kl - kl @ kt) < 1e-10


def test_symmetrized_forms_match():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        p = mk.random_four_vector(rng, 2.0)
        assert mdev(dr.k_l(p, n) - dr.k_l_symmetrized(p, n)) < 1e-12
        assert mdev(dr.k_t(p, n) - dr.k_t_symmetrized(p, n)) < 1e-12


def test_free_k0_is_mass_operator():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        p = mk.random_four_vector(rng, 2.0)
        m_param = rng.uniform(0.5, 3.0)
        k0 = dr.free_k0(p, m_param, n)
        expect = mk.dot(p, p) / (2 * m_param) * np.eye(4)
        assert mdev(k0 - expect) < 1e-10


@pytest.mark.parametrize("mass", [np.nan, np.inf, 0.0, -1.0])
def test_free_k0_and_field_tensor_refuse_a_mass_not_positive_and_finite(mass):
    p = mk.four_vector(2.0, 0.3, -0.4, 0.5)
    with pytest.raises(ValueError, match="mass parameter must be positive"):
        dr.free_k0(p, mass)
    with pytest.raises(ValueError, match="mass parameter must be positive"):
        dr.FieldTensor.from_fields([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], mass=mass)


def test_k_and_sigma_orthogonal_to_n():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        nl = mk.lower(n)
        assert mdev(np.einsum("mab,m->ab", dr.k_all(n), nl)) < 1e-12
        assert mdev(np.einsum("mnab,m->nab", dr.sigma_n_all(n), nl)) < 1e-12


def test_sigma_n_from_projected_gammas():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = mk.random_unit_timelike(rng)
        for mu in range(4):
            for nu in range(4):
                gm, gn = dr.gamma_n(mu, n), dr.gamma_n(nu, n)
                ref = 0.25j * (gm @ gn - gn @ gm)
                assert mdev(dr.sigma_n(mu, nu, n) - ref) < 1e-12


def test_algebra_closure():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = mk.random_unit_timelike(rng)
        kal, sna, pi = dr.k_all(n), dr.sigma_n_all(n), dr.projector_pi(n)
        for _ in range(20):
            mu, nu, la, sg = rng.integers(0, 4, size=4)
            ckk = kal[mu] @ kal[nu] - kal[nu] @ kal[mu]
            assert mdev(ckk + 1j * sna[mu, nu]) < 1e-12
            csk = sna[mu, nu] @ kal[la] - kal[la] @ sna[mu, nu]
            assert mdev(csk + 1j * (pi[nu, la] * kal[mu]
                                    - pi[mu, la] * kal[nu])) < 1e-12
            css = sna[mu, nu] @ sna[la, sg] - sna[la, sg] @ sna[mu, nu]
            ref = -1j * (pi[nu, la] * sna[mu, sg] + pi[mu, sg] * sna[nu, la]
                         - pi[mu, la] * sna[nu, sg] - pi[nu, sg] * sna[mu, la])
            assert mdev(css - ref) < 1e-12


def test_rest_frame_reductions():
    n0 = mk.N0
    for j in range(1, 4):
        assert mdev(dr.sigma_n(0, j, n0)) < 1e-14
    for i, j in ((1, 2), (2, 3), (3, 1)):
        eigs = np.sort(np.linalg.eigvalsh(dr.sigma_n(i, j, n0)))
        assert np.allclose(eigs, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)
    s12, s23, s31 = (dr.sigma_n(1, 2, n0), dr.sigma_n(2, 3, n0),
                     dr.sigma_n(3, 1, n0))
    assert mdev(s12 @ s23 - s23 @ s12 - 1j * s31) < 1e-14


def test_projections_properties():
    rng = np.random.default_rng(7)
    count = 0
    while count < 50:
        n = mk.random_unit_timelike(rng)
        p = mk.random_four_vector(rng, 2.0)
        pn = mk.dot(p, n)
        if abs(pn) < 0.2 or mk.dot(p, p) + pn**2 < 0.2:
            continue
        count += 1
        proj = dr.projections(p, n)
        assert set(proj) == {"cone", "energy", "helicity"}
        for plus, minus in proj.values():
            assert mdev(plus @ plus - plus) < 1e-10
            assert mdev(minus @ minus - minus) < 1e-10
            assert mdev(plus @ minus) < 1e-10
            assert mdev(plus + minus - np.eye(4)) < 1e-12


def test_helicity_limit_at_rest_fiber():
    rng = np.random.default_rng(8)
    p = mk.random_four_vector(rng, 2.0)
    p[0] = abs(p[0]) + 3.0
    sp = p[1:]
    sig_p = np.einsum("i,iab->ab", sp, sl2c.PAULI[1:]) / np.linalg.norm(sp)
    block = np.block([[sig_p, np.zeros((2, 2))], [np.zeros((2, 2)), sig_p]])
    prev = np.inf
    for w in (0.5, 0.25, 0.1, 0.05, 0.01):
        n = mk.four_vector(np.cosh(w), 0.0, 0.0, np.sinh(w))
        dev = mdev(dr.helicity_operator(p, n) + block)
        assert dev < prev
        prev = dev
    assert prev < 5e-2
    assert mdev(dr.helicity_operator(p, mk.N0) + block) < 1e-12


def test_field_tensor_structure():
    f = dr.FieldTensor.from_fields([1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                                   charge=1.0, mass=1.0)
    low = f.f_lower
    assert mdev(low + low.T) == 0.0
    assert np.allclose(low[0, 1:], [1.0, 2.0, 3.0])
    assert low[1, 2] == pytest.approx(6.0)   # eps_{12k} B_k = B_3
    assert low[2, 3] == pytest.approx(4.0)
    assert low[3, 1] == pytest.approx(5.0)


def test_dipole_rhs_pure_electric_at_rest():
    f = dr.FieldTensor.from_fields([0.0, 0.0, 2.5], [0.0, 0.0, 0.0],
                                   charge=1.3, mass=1.0)
    d = dr.dipole_rhs(mk.N0, f)
    eigs = np.sort(np.linalg.eigvals(d).real)
    assert np.allclose(eigs, [-3.25, -3.25, 3.25, 3.25], atol=1e-10)
    assert dr.is_sector_hermitian(d, mk.N0)


def test_dipole_rhs_pure_magnetic_vanishes_at_rest():
    f = dr.FieldTensor.from_fields([0.0, 0.0, 0.0], [1.0, 2.0, 3.0],
                                   charge=1.0, mass=1.0)
    assert mdev(dr.dipole_rhs(mk.N0, f)) < 1e-14


def test_spin_hamiltonian_magnetic_moment():
    f = dr.FieldTensor.from_fields([0.0, 0.0, 0.0], [0.0, 0.0, 3.0],
                                   charge=1.3, mass=2.0)
    h = dr.spin_hamiltonian(mk.four_vector(0, 0, 0, 0), mk.N0, f)
    eigs = np.sort(np.linalg.eigvals(h).real)
    bohr = 1.3 / (2 * 2.0) * 3.0
    assert np.allclose(eigs, [-bohr, -bohr, bohr, bohr], atol=1e-10)


def test_spin_hamiltonian_pure_electric_spin_term_zero_at_rest():
    f = dr.FieldTensor.from_fields([1.0, 2.0, 3.0], [0.0, 0.0, 0.0],
                                   charge=1.0, mass=1.0)
    h = dr.spin_hamiltonian(mk.four_vector(0, 0, 0, 0), mk.N0, f)
    assert mdev(h) < 1e-14


def test_field_couplings_equal_the_sixteen_index_reference():
    # F projected into the surface orthogonal to n, contracted with all
    # sixteen Sigma_n^{mu nu}; K^mu n^nu - K^nu n^mu spelled out
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = mk.rest_boosted(rng.normal(size=3), rng.uniform(0.0, 3.0))
        p = rng.normal(scale=2.0, size=4)
        f = dr.FieldTensor.from_fields(rng.normal(size=3), rng.normal(size=3),
                                       charge=rng.uniform(0.5, 2.0), mass=rng.uniform(0.5, 2.0))
        pim = np.eye(4) + np.outer(n, mk.lower(n))      # pi^alpha_mu
        spin = np.einsum("mnab,mn->ab", dr.sigma_n_all(n), pim.T @ f.f_lower @ pim)
        h_ref = mk.dot(p, p) / (2 * f.mass) * np.eye(4) + f.charge / (2 * f.mass) * spin
        k = dr.k_all(n)
        anti = np.einsum("mab,n->mnab", k, n) - np.einsum("nab,m->mnab", k, n)
        d_ref = -1j * f.charge * dr.GAMMA5 @ np.einsum("mnab,mn->ab", anti, f.f_lower)
        for got, ref in ((dr.spin_hamiltonian(p, n, f), h_ref), (dr.dipole_rhs(n, f), d_ref)):
            assert mdev(got - ref) <= 1e-12 * max(1.0, mdev(ref))


def test_sector_hermiticity():
    rng = np.random.default_rng(9)
    f = dr.FieldTensor.from_fields([1.0, -0.5, 2.0], [0.3, 1.1, -0.7],
                                   charge=1.0, mass=1.0)
    for _ in range(20):
        n = mk.random_unit_timelike(rng)
        p = mk.random_four_vector(rng, 2.0)
        assert dr.is_sector_hermitian(dr.k_l(p, n), n)
        assert dr.is_sector_hermitian(dr.k_t(p, n), n)
        assert dr.is_sector_hermitian(dr.spin_hamiltonian(p, n, f), n)
        assert dr.is_sector_hermitian(dr.dipole_rhs(n, f), n)
        # gamma.p is NOT sector-Hermitian in general
        assert not dr.is_sector_hermitian(dr.gamma_dot(p), n)


def test_sector_norm_equality_and_invariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = mk.random_unit_timelike(rng)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair = dr.TwoSpinorPair(psi, phi, n)
        ref = float(np.vdot(psi, psi).real + np.vdot(phi, phi).real)
        assert dr.sector_norm(dr.assemble_spinor(pair)) == pytest.approx(
            ref, abs=1e-10)
        a = sl2c.random_sl2c(rng)
        moved = dr.assemble_spinor(dr.transform_pair(pair, a))
        assert dr.sector_norm(moved) == pytest.approx(ref, abs=1e-10)


def test_assembled_spinor_covariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair = dr.TwoSpinorPair(psi, phi, n)
        a = sl2c.random_sl2c(rng)
        lhs = dr.assemble_spinor(dr.transform_pair(pair, a)).components
        rhs = dr.s_lambda(a) @ dr.assemble_spinor(pair).components
        assert mdev(lhs - rhs) < 1e-9


def test_s_lambda_gamma_transformation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = sl2c.random_sl2c(rng)
        s = dr.s_lambda(a)
        s_inv = np.linalg.inv(s)
        lam = sl2c.spinor_map(a)
        for mu in range(4):
            lhs = s_inv @ dr.GAMMA[mu] @ s
            rhs = np.einsum("n,nab->ab", lam[mu], dr.GAMMA)
            assert mdev(lhs - rhs) < 1e-9


def test_s_lambda_generators():
    eps = 1e-6
    sb = dr.s_lambda(sl2c.sl2c_boost("z", eps))
    assert mdev(sb - (np.eye(4) + 1j * eps * dr.sigma(3, 0))) < 1e-11
    sr = dr.s_lambda(sl2c.sl2c_rotation("z", eps))
    assert mdev(sr - (np.eye(4) - 1j * eps * dr.sigma(1, 2))) < 1e-11


def test_sigma_n_all_is_the_exact_antisymmetric_scatter_of_the_pairs():
    rng = np.random.default_rng(15)
    n = mk.rest_boosted(rng.normal(size=(200, 3)), rng.uniform(0.0, 1.5, 200))
    for sample in (n, n[0]):
        sna, pairs = dr.sigma_n_all(sample), dr.sigma_n_pairs(sample)
        assert pairs.shape == sample.shape[:-1] + (6, 4, 4)
        mu, nu = dr.PAIRS
        assert sna[..., mu, nu, :, :].tobytes() == pairs.tobytes()
        for i in range(4):
            assert not sna[..., i, i, :, :].any()
            for j in range(i + 1, 4):
                assert sna[..., j, i, :, :].tobytes() == (-sna[..., i, j, :, :]).tobytes()


def test_second_compound_is_a_homomorphism():
    rng = np.random.default_rng(16)
    lam1, lam2 = (sl2c.spinor_map(np.array([sl2c.random_sl2c(rng, 1.0) for _ in range(1000)]))
                  for _ in range(2))
    c = dr.second_compound
    assert mdev(c(lam1 @ lam2) - c(lam1) @ c(lam2)) < 1e-13
    assert mdev(c(mk.inverse(lam1)) @ c(lam1) - np.eye(6)) < 1e-13
    # it moves the pairs of an antisymmetric tensor as Lambda T Lambda^T does
    t = rng.normal(size=(4, 4))
    t -= t.T
    mu, nu = dr.PAIRS
    assert mdev((lam1 @ t @ np.swapaxes(lam1, -1, -2))[:, mu, nu]
                - c(lam1) @ t[mu, nu]) < 1e-13


def test_sigma_n_covariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = mk.random_unit_timelike(rng)
        a = sl2c.random_sl2c(rng)
        lam = sl2c.spinor_map(a)
        lam_inv = mk.inverse(lam)
        s = dr.s_lambda(a)
        s_inv = np.linalg.inv(s)
        n_new = unit(mk.apply(lam, n))
        conj = np.einsum("ab,mnbc,cd->mnad", s_inv, dr.sigma_n_all(n_new), s)
        back = np.einsum("mnad,lm,sn->lsad", conj, lam_inv, lam_inv)
        assert mdev(back - dr.sigma_n_all(n)) < 1e-9


def _defining_forms(p, n, a):
    """The table-built operators by their defining formulas: einsum and @
    over GAMMA and the Sigma^{mu nu}, and S(Lambda) through ASSEMBLY."""
    nl = mk.lower(n)
    gn = np.einsum("...m,mab->...ab", nl, dr.GAMMA)
    k = np.einsum("...r,mrab->...mab", nl, dr._SIGMA_ALL)
    pk = np.einsum("...mab,...m->...ab", k, mk.lower(p))
    mu, nu = dr.PAIRS
    pairs = (dr._SIGMA_ALL[mu, nu] + k[..., mu, :, :] * n[..., nu, None, None]
             - k[..., nu, :, :] * n[..., mu, None, None])
    pn = mk.inner(p, n)
    bar = sl2c.second_rep(a)
    blockdiag = np.zeros(bar.shape[:-2] + (4, 4), dtype=complex)
    blockdiag[..., :2, :2], blockdiag[..., 2:, 2:] = bar, a
    return {"gamma_dot": gn, "k_all": k, "k_t": -2.0j * dr.GAMMA5 @ pk @ gn,
            "helicity_operator": 2.0j * dr.GAMMA5 @ pk
            / np.sqrt(mk.inner(p, p) + pn * pn)[..., None, None],
            "sigma_n_pairs": pairs,
            "s_lambda": dr.ASSEMBLY @ blockdiag @ dr.ASSEMBLY.conj().T}


TABLE_BUILT = {
    "gamma_dot": lambda p, n, a: dr.gamma_dot(n),
    "k_all": lambda p, n, a: dr.k_all(n),
    "k_t": lambda p, n, a: dr.k_t(p, n),
    "helicity_operator": lambda p, n, a: dr.helicity_operator(p, n),
    "sigma_n_pairs": lambda p, n, a: dr.sigma_n_pairs(n),
    "s_lambda": lambda p, n, a: dr.s_lambda(a),
}


@pytest.mark.parametrize("name", TABLE_BUILT)
def test_table_built_operators_equal_their_defining_formulas(name):
    rng = np.random.default_rng(17)
    n = mk.rest_boosted(rng.normal(size=(300, 3)), rng.uniform(0.0, 3.0, 300))
    p = rng.normal(scale=2.0, size=(300, 4))
    a = np.array([sl2c.random_sl2c(rng, 2.0) for _ in range(300)])
    for args in ((p, n, a), (p[0], n[0], a[0]), (p[:1], n[:1], a[:1])):
        got, want = TABLE_BUILT[name](*args), _defining_forms(*args)[name]
        assert got.shape == want.shape and got.dtype == complex
        assert mdev(got - want) <= 1e-14 * mdev(want)


def test_operator_tables_are_read_only():
    tables = [dr._GAMMA_TABLE, dr._K_TABLE, dr._HELICITY_TABLE, dr._SIGMA_N_TABLE]
    for table in tables:
        assert table.dtype == float and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
