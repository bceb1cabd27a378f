"""Batch-first kernels: one call on a leading sample axis equals a loop of
single calls, and a check on a batch names the first bad sample."""

import numpy as np
import pytest

from shpqm import dirac, little_group as lg, minkowski as mk, sl2c, spin_coupling as sc

N = 1000
BAD = 617          # the sample each corruption test spoils


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(11)
    a = (sl2c.sl2c_rotation(rng.normal(size=(N, 3)), rng.uniform(0.0, 2 * np.pi, N))
         @ sl2c.sl2c_boost(rng.normal(size=(N, 3)), rng.uniform(0.0, 1.0, N)))
    n = mk.rest_boosted(rng.normal(size=(N, 3)), rng.uniform(0.0, 1.5, N))
    v = rng.normal(scale=2.0, size=(N, 4))
    psi = rng.normal(size=(N, 2)) + 1j * rng.normal(size=(N, 2))
    phi = rng.normal(size=(N, 2)) + 1j * rng.normal(size=(N, 2))
    lam = sl2c.spinor_map(a)
    d = lg.wigner_d(a, n)
    timelike = n + 0.1 * v * np.array([0.0, 1.0, 1.0, 1.0])
    timelike[:, 0] += 1.0
    two_body = rng.normal(size=(N, 2, 2, 2)) @ [1.0, 1.0j]
    two_body /= np.linalg.norm(two_body, axis=(-2, -1))[:, None, None]
    return {"a": a, "n": n, "v": v, "psi": psi, "phi": phi, "lam": lam, "d": d,
            "timelike": timelike, "two_body": two_body}


def _assemble(psi, phi, n):
    return dirac.assemble_spinor(dirac.TwoSpinorPair(psi, phi, n)).components


def _sector_norm(psi, phi, n):
    return dirac.sector_norm(dirac.assemble_spinor(dirac.TwoSpinorPair(psi, phi, n)))


def _transform_pair(psi, phi, n, a):
    pair = dirac.transform_pair(dirac.TwoSpinorPair(psi, phi, n), a)
    return np.concatenate([pair.psi, pair.phi, pair.n], axis=-1)


def _transport(a, n):
    lam, n_new, d = lg.transport(a, n)
    lead = n_new.shape[:-1]
    return np.concatenate([lam.reshape(lead + (16,)), n_new, d.reshape(lead + (4,))], axis=-1)


def _sector_hermitian(v, n):
    # k_l is sector-Hermitian and i k_t is not: one True and one False flag
    flags = [dirac.is_sector_hermitian(op, n) for op in (dirac.k_l(v, n), 1j * dirac.k_t(v, n))]
    return np.stack(flags, axis=-1).astype(float)


def _total_spin(two_body):
    # the J = 0 and J = 1 weights of two spin-1/2 particles
    weights = sc.total_spin_decompose(sc.TwoBodySpinState(0.5, 0.5, two_body, mk.N0))
    return np.stack([weights[0.0], weights[1.0]], axis=-1)


def _rotation(v, n):
    return sl2c.sl2c_rotation(v[..., 1:], n[..., 0])


def _boost(v, n):
    return sl2c.sl2c_boost(v[..., 1:], n[..., 1])


# kernel, names of its batched arguments
KERNELS = [
    (sl2c.spinor_map, ("a",)),
    (sl2c.check_sl2c, ("a",)),
    (sl2c.canonical_boost, ("n",)),
    (sl2c.hermitian_form, ("v",)),
    (sl2c.inv, ("a",)),
    (sl2c.second_rep, ("a",)),
    (sl2c.det, ("a",)),
    (mk.check_proper_lorentz, ("lam",)),
    (mk.unit_timelike, ("timelike",)),
    (mk.moved, ("lam", "n")),
    (mk.check_unit_timelike_future, ("n",)),
    (mk.apply, ("lam", "v")),
    (mk.inverse, ("lam",)),
    (mk.inner, ("v", "n")),
    (lg.wigner_d, ("a", "n")),
    (_transport, ("a", "n")),
    (lg.check_su2, ("d",)),
    (dirac.k_all, ("n",)),
    (dirac.sigma_n_pairs, ("n",)),
    (dirac.sigma_n_all, ("n",)),
    (dirac.second_compound, ("lam",)),
    (dirac.gamma_dot, ("v",)),
    (dirac.projector_pi, ("n",)),
    (dirac.s_lambda, ("a",)),
    (dirac.k_l, ("v", "n")),
    (dirac.k_t, ("v", "n")),
    (dirac.sector_metric, ("n",)),
    (_assemble, ("psi", "phi", "n")),
    (_sector_norm, ("psi", "phi", "n")),
    (_transform_pair, ("psi", "phi", "n", "a")),
    (_sector_hermitian, ("v", "n")),
    (_total_spin, ("two_body",)),
    (_rotation, ("v", "n")),
    (_boost, ("v", "n")),
]


@pytest.mark.parametrize("kernel, names", KERNELS, ids=[k.__name__ for k, _ in KERNELS])
def test_batch_equals_loop_of_single_calls(batch, kernel, names):
    args = [batch[name] for name in names]
    batched = kernel(*args)
    looped = np.array([kernel(*sample) for sample in zip(*args)])
    assert batched.shape == looped.shape
    scale = max(1.0, float(np.max(np.abs(looped))))
    assert np.max(np.abs(batched - looped)) <= 1e-14 * scale


def test_batch_broadcasts_a_single_operand(batch):
    # one fiber for every element, and one element for every fiber
    a, n = batch["a"][:50], batch["n"][:50]
    assert np.allclose(lg.wigner_d(a, n[7]), [lg.wigner_d(x, n[7]) for x in a],
                       rtol=0, atol=1e-14)
    assert np.allclose(lg.wigner_d(a[7], n), [lg.wigner_d(a[7], y) for y in n],
                       rtol=0, atol=1e-14)


def _spoiled(x, value_at_bad):
    x = x.copy()
    x[BAD] = value_at_bad(x[BAD])
    return x


CORRUPTIONS = [
    ("det_not_one", lambda b: (sl2c.spinor_map, _spoiled(b["a"], lambda a: 1.001 * a))),
    ("det_not_one_check", lambda b: (sl2c.check_sl2c, _spoiled(b["a"], lambda a: 1.001 * a))),
    ("nan_element", lambda b: (sl2c.second_rep, _spoiled(b["a"], lambda a: a * np.nan))),
    ("det_not_one_s_lambda", lambda b: (dirac.s_lambda, _spoiled(b["a"], lambda a: 2.0 * a))),
    ("non_lorentz", lambda b: (mk.check_proper_lorentz,
                               _spoiled(b["lam"], lambda m: m + 1e-6 * np.eye(4)))),
    ("improper", lambda b: (mk.check_proper_lorentz,
                            _spoiled(b["lam"], lambda m: m @ np.diag([1.0, -1.0, 1.0, 1.0])))),
    ("not_orthochronous", lambda b: (mk.check_proper_lorentz, _spoiled(b["lam"], lambda m: -m))),
    ("non_su2", lambda b: (lg.check_su2, _spoiled(b["d"], lambda d: d + 1e-6))),
    ("nan_vector", lambda b: (mk.unit_timelike,
                              _spoiled(b["timelike"], lambda v: v * np.array([1, np.nan, 1, 1])))),
    ("spacelike_vector", lambda b: (mk.unit_timelike,
                                    _spoiled(b["timelike"], lambda v: np.array([0.1, 1, 0, 0])))),
    ("non_finite_label", lambda b: (lambda lam: mk.moved(lam, b["n"]),
                                    _spoiled(b["lam"], lambda m: m * np.nan))),
    ("spacelike_fiber", lambda b: (sl2c.canonical_boost,
                                   _spoiled(b["n"], lambda n: np.array([0.5, 1, 0, 0])))),
    ("past_fiber", lambda b: (mk.check_unit_timelike_future, _spoiled(b["n"], lambda n: -n))),
]


@pytest.mark.parametrize("make", [m for _, m in CORRUPTIONS], ids=[i for i, _ in CORRUPTIONS])
def test_batch_check_names_the_bad_sample(batch, make):
    kernel, spoiled = make(batch)
    with pytest.raises(ValueError, match=rf"^sample {BAD}: "):
        kernel(spoiled)


def test_wigner_d_names_the_bad_sample(batch):
    a = _spoiled(batch["a"], lambda x: 1.001 * x)
    with pytest.raises(ValueError, match=rf"^sample {BAD}: determinant"):
        lg.wigner_d(a, batch["n"])
    n = _spoiled(batch["n"], lambda y: np.array([0.5, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=rf"^sample {BAD}: expected unit future-timelike"):
        lg.wigner_d(batch["a"], n)


def _transport_by_hand(a, n):
    lam = sl2c.spinor_map(a)
    n_new = mk.moved(lam, n)
    return lam, n_new, lg.wigner_d(a, n_new)


@pytest.mark.parametrize("size", [None, N], ids=["single", "batch"])
def test_transport_equals_the_hand_written_sequence(batch, size):
    # Lambda and n_new bit for bit; D is the unitary factor of A L(n) in
    # transport and the adjoint of that of inv(A) L(n_new) in wigner_d, two
    # closed forms of one rotation
    a, n = (batch["a"][7], batch["n"][7]) if size is None else (batch["a"], batch["n"])
    (lam, n_new, d), (want_lam, want_n, want_d) = lg.transport(a, n), _transport_by_hand(a, n)
    assert lam.shape == want_lam.shape and n_new.shape == want_n.shape
    assert d.shape == want_d.shape
    assert np.array_equal(lam, want_lam) and np.array_equal(n_new, want_n)
    assert np.max(np.abs(d - want_d)) <= 1e-14


def test_transport_names_a_past_fiber(batch):
    n = _spoiled(batch["n"], lambda y: -y)
    with pytest.raises(ValueError, match=rf"^sample {BAD}: expected unit future-timelike"):
        lg.transport(batch["a"], n)
    with pytest.raises(ValueError, match=rf"^sample {BAD}: expected unit future-timelike"):
        _transform_pair(batch["psi"], batch["phi"], n, batch["a"])


def test_multi_axis_batch_names_the_index_tuple(batch):
    a = batch["a"][:12].reshape(3, 4, 2, 2).copy()
    a[2, 1] *= 1.001
    with pytest.raises(ValueError, match=r"^sample \(2, 1\): determinant"):
        sl2c.check_sl2c(a)


def test_single_input_error_has_no_sample_prefix():
    with pytest.raises(ValueError, match=r"^determinant"):
        sl2c.check_sl2c(2.0 * np.eye(2))
