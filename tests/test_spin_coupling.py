"""Tests for Clebsch-Gordan coupling on a common foliation fiber."""

import warnings

import numpy as np
import pytest

from shpqm import little_group as lg, minkowski as mk, sl2c
from shpqm import spin_coupling as sc


def unit(v):
    return v / np.sqrt(-mk.inner(v, v))


def test_cg_singlet_values():
    assert sc.cg(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / np.sqrt(2))
    assert sc.cg(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / np.sqrt(2))


def test_cg_highest_weight():
    for j1, j2 in ((0.5, 0.5), (1.0, 0.5), (1.5, 2.0)):
        assert sc.cg(j1, j1, j2, j2, j1 + j2, j1 + j2) == pytest.approx(1.0)


def test_cg_selection_rules():
    assert sc.cg(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0
    with pytest.raises(ValueError):
        sc.cg(0.5, 0.5, 0.5, 0.5, 2, 1)
    with pytest.raises(ValueError):
        sc.cg(0.5, 0.75, 0.5, 0.25, 1, 1)


def angular_momentum_matrices(j):
    dim = int(round(2 * j)) + 1
    ms = np.arange(-j, j + 1)
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for k in range(dim - 1):
        jp[k + 1, k] = np.sqrt(j * (j + 1) - ms[k] * (ms[k] + 1))
    return jz, jp


def basis_labels(j1, j2):
    """(J, M) of each row of coupled_basis: J ascending, then M ascending."""
    return [(bj, bm) for bj in np.arange(abs(j1 - j2), j1 + j2 + 1)
            for bm in np.arange(-bj, bj + 1)]


PAIRS = ((0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (1.5, 1.0), (1.5, 2.0), (2.0, 2.0))


def test_cg_against_j_squared_diagonalization():
    """Oracle: every row of the coupled basis is a simultaneous J^2 and Jz
    eigenvector with the (J, M) of its place in the basis order."""
    for j1, j2 in PAIRS:
        jz1, jp1 = angular_momentum_matrices(j1)
        jz2, jp2 = angular_momentum_matrices(j2)
        d1, d2 = jz1.shape[0], jz2.shape[0]
        jz = np.kron(jz1, np.eye(d2)) + np.kron(np.eye(d1), jz2)
        jp = np.kron(jp1, np.eye(d2)) + np.kron(np.eye(d1), jp2)
        j2op = jp @ jp.T + jz @ jz - jz
        basis = sc.coupled_basis(j1, j2)
        labels = basis_labels(j1, j2)
        assert basis.shape == (len(labels), d1 * d2) == (d1 * d2, d1 * d2)
        for row, (bj, bm) in zip(basis, labels):
            assert np.max(np.abs(j2op @ row - bj * (bj + 1) * row)) < 1e-10
            assert np.max(np.abs(jz @ row - bm * row)) < 1e-10
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)


def test_cg_matrix_orthogonality():
    for j1, j2 in PAIRS:
        u = sc.coupled_basis(j1, j2)
        assert np.max(np.abs(u @ u.T - np.eye(len(u)))) < 1e-12
        # cg_matrix reads its row of the same cached table, which nobody can write
        for row, (bj, bm) in zip(u, basis_labels(j1, j2)):
            block = sc.cg_matrix(j1, j2, bj, bm)
            assert np.array_equal(block.ravel(), row)
            assert not block.flags.writeable


def test_couple_two_stretched_and_singlet():
    up = sc.spin_half(1, 0)
    down = sc.spin_half(0, 1)
    stretched = sc.couple_two(up, up, 1, 1)
    assert stretched.coefficients[1, 1] == pytest.approx(1.0)
    assert stretched.symmetry_tag == "symmetric"
    singlet = sc.couple_two(up, down, 0, 0)
    assert singlet.symmetry_tag == "antisymmetric"
    assert np.max(np.abs(singlet.coefficients
                         + singlet.coefficients.T)) < 1e-12


def test_couple_two_fiber_mismatch():
    rng = np.random.default_rng(0)
    up_rest = sc.spin_half(1, 0)
    up_moving = sc.spin_half(1, 0, mk.random_unit_timelike(rng))
    with pytest.raises(sc.FiberMismatchError):
        sc.couple_two(up_rest, up_moving, 1, 1)
    up_late = sc.spin_half(1, 0, tau=1.0)
    with pytest.raises(sc.FiberMismatchError):
        sc.couple_two(up_rest, up_late, 1, 1)


def test_symmetrize_and_exclusion():
    up = sc.spin_half(1, 0)
    down = sc.spin_half(0, 1)
    singlet = sc.symmetrize(up, down, -1)
    assert singlet.symmetry_tag == "antisymmetric"
    ref = sc.singlet()
    overlap = np.einsum("ik,ik->", singlet.coefficients.conj(),
                        ref.coefficients)
    assert abs(abs(overlap) - 1.0) < 1e-12
    with pytest.raises(sc.PauliExclusionError):
        sc.symmetrize(up, up, -1)
    sym = sc.symmetrize(up, up, +1)
    assert abs(sym.coefficients[1, 1]) == pytest.approx(1.0)


def test_exchange_eigenvalues():
    singlet = sc.singlet()
    assert np.max(np.abs(sc.exchange(singlet).coefficients
                         + singlet.coefficients)) < 1e-12
    up, down = sc.spin_half(1, 0), sc.spin_half(0, 1)
    triplet0 = sc.couple_two(up, down, 1, 0)
    assert np.max(np.abs(sc.exchange(triplet0).coefficients
                         - triplet0.coefficients)) < 1e-12


def test_exchange_on_a_batch_swaps_each_sample():
    singlet = sc.singlet().coefficients
    triplet0 = sc.couple_two(sc.spin_half(1, 0), sc.spin_half(0, 1), 1, 0).coefficients
    batch = sc.TwoBodySpinState(0.5, 0.5, np.stack([singlet, triplet0]), mk.N0)
    swapped = sc.exchange(batch).coefficients
    assert swapped.shape == (2, 2, 2)
    assert np.max(np.abs(swapped - np.stack([-singlet, triplet0]))) < 1e-12


def test_total_spin_decompose_completeness():
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c /= np.linalg.norm(c)
        state = sc.TwoBodySpinState(0.5, 0.5, c, mk.N0)
        weights = sc.total_spin_decompose(state)
        assert set(weights) == {0.0, 1.0}
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert sc.total_spin_decompose(sc.singlet())[0.0] == pytest.approx(1.0)


def test_singlet_invariant_under_induced_rotation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = mk.random_unit_timelike(rng)
        a = sl2c.random_sl2c(rng)
        n_new = unit(mk.apply(sl2c.spinor_map(a), n))
        d = lg.wigner_d(a, n_new)
        s = sc.singlet(n)
        rotated = sc.rotate_two(s, d)
        overlap = np.einsum("ik,ik->", rotated.coefficients.conj(),
                            s.coefficients)
        assert abs(abs(overlap) - 1.0) < 1e-10


def test_pi_rotation_equals_minus_exchange_on_m_zero():
    """A y-axis pi rotation of both spins equals minus the exchange on the
    zero total-magnetic-number subspace."""
    rng = np.random.default_rng(3)
    ry = sl2c.sl2c_rotation("y", np.pi)
    d = sc._rep_matrix(0.5, ry)
    for _ in range(100):
        # random product state of one up and one down spin (M = 0)
        ph1, ph2 = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        up = sc.spin_half(ph1, 0)
        down = sc.spin_half(0, ph2)
        for a, b in ((up, down), (down, up)):
            prod = np.outer(a.coefficients, b.coefficients)
            rotated = d @ prod @ d.T
            exchanged = prod.T
            assert np.max(np.abs(rotated + exchanged)) < 1e-10
        # and on any M = 0 superposition
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1], c[1, 0] = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        assert np.max(np.abs(d @ c @ d.T + c.T)) < 1e-10


def test_spin_factor_time_independent():
    # the coupled coefficients carry no time labels at all: evolving the
    # spacetime factor cannot change them
    s = sc.singlet()
    assert not hasattr(s, "t1")
    assert not hasattr(s, "t2")
    assert s.coefficients.shape == (2, 2)


def test_spin_half_takes_any_finite_magnitude():
    # the amplitudes are scaled before the norm is taken, so it neither
    # overflows nor underflows: the state depends on their ratio alone
    rng = np.random.default_rng(4)
    for up, down in rng.uniform(-1.0, 1.0, (20, 2, 2)) @ [1.0, 1.0j]:
        for scale in (1e200, 1e300, 1e-200, 1e-300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                state = sc.spin_half(up * scale, down * scale)
            assert np.max(np.abs(state.coefficients
                                 - sc.spin_half(up, down).coefficients)) < 1e-15
    assert np.allclose(sc.spin_half(1e200, 1e200).coefficients, [2 ** -0.5] * 2,
                       rtol=0, atol=1e-15)
    assert np.array_equal(sc.spin_half(1e-200, 0).coefficients, [0.0, 1.0])


def test_couple_sequence_stretched():
    states = [sc.spin_half(1, 0) for _ in range(3)]
    j_final, amps = sc.couple_sequence(states, [1.0, 1.5])
    assert j_final == 1.5
    assert np.allclose(amps, [0, 0, 0, 1], atol=1e-12)


def test_couple_sequence_mixed_path():
    up, down = sc.spin_half(1, 0), sc.spin_half(0, 1)
    # (up down) -> J12 = 1, then with up -> J = 1/2: amplitude spread over M
    j_final, amps = sc.couple_sequence([up, down, up], [1.0, 0.5])
    assert j_final == 0.5
    norm = np.linalg.norm(amps)
    # |<(1,1/2) 1/2, M | up down up>|^2 summed over M
    expect = abs(sc.cg(0.5, 0.5, 0.5, -0.5, 1, 0)
                 * sc.cg(1, 0, 0.5, 0.5, 0.5, 0.5))
    assert norm == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("j_targets", [[0.5], [2.0], [1.0, 1.0]])
def test_couple_sequence_rejects_an_unreachable_j(j_targets):
    # spin 1/2 x 1/2 reaches J = 0 or 1 only; (1 x 1/2) reaches 1/2 or 3/2
    states = [sc.spin_half(1, 0) for _ in range(len(j_targets) + 1)]
    with pytest.raises(ValueError, match="triangle rule"):
        sc.couple_sequence(states, j_targets)
