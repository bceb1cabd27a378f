"""Independent checks of every op's output.

Each `check_<workload>(x, out)` takes an op's input and the output it
produced and returns a list of problems, empty when the output is right.
The references here are closed forms written for the benchmark (their own
Pauli matrices, spinor map, Thomas-Wigner angle and Gaussian spread); the one
library routine used is `interference.coincidence_probability_quadrature`, a
numerical integration of |A|^2 that shares no code with the closed form it is
compared against.
"""

from __future__ import annotations

import json
import math

import numpy as np
from shpqm import interference

H_EV_FS = 4.135667696          # Planck constant, eV fs (CODATA 2018)

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

VERIFY_SUITES = {"operator_algebra", "little_group", "rest_frame", "norm", "coupling"}
SCAN_HEADER = "delta_t_fs,probability,envelope,interference_term"
EVOLVE_HEADER = "tau,t,x,y,z,E,px,py,pz,K"


def sl2c_element(rot_axis, angle, boost_axis, rapidity):
    """exp(-i angle/2 sigma.rot_axis) exp(rapidity/2 sigma.boost_axis)."""
    rot = (math.cos(angle / 2) * _PAULI[0]
           - 1j * math.sin(angle / 2) * np.einsum("i,iab->ab", rot_axis, _PAULI[1:]))
    boost = (math.cosh(rapidity / 2) * _PAULI[0]
             + math.sinh(rapidity / 2) * np.einsum("i,iab->ab", boost_axis, _PAULI[1:]))
    return rot @ boost


def lorentz_of(a):
    """Lambda^mu_nu = (1/2) tr(sigma_mu A sigma_nu A^dagger)."""
    return 0.5 * np.einsum("mab,bc,ncd,da->mn", _PAULI, a, _PAULI, a.conj().T).real


def thomas_wigner_angle(w1, w2):
    """Rotation angle of two composed perpendicular boosts."""
    return 2.0 * math.atan(math.tanh(w1 / 2) * math.tanh(w2 / 2))


def gaussian_time_spread(sigma_e, tau, mass):
    """Time spread of a free Gaussian energy packet after evolving by tau."""
    return math.sqrt(1.0 / (4 * sigma_e**2) + sigma_e**2 * tau**2 / mass**2)


def _close(got, want, rel, name):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    dev = float(np.max(np.abs(got - want), initial=0.0))
    tol = rel * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return [] if dev <= tol else [f"{name}: deviation {dev:.3e} > {tol:.3e}"]


def _exit(run):
    return [] if run.rc == 0 else [f"exit code {run.rc}"]


def _csv(run):
    """Header line and float table of a CSV written by the CLI."""
    with open(run.path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return first, table


def check_verify(x, out):
    problems = _exit(out)
    with open(out.path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    if report.get("seed") != x["seed"] or report.get("samples") != x["samples"]:
        problems.append("report seed or sample count differs from the request")
    suites = report.get("suites", {})
    if set(suites) != VERIFY_SUITES:
        problems.append(f"suites {sorted(suites)}")
    for name, results in suites.items():
        for r in results:
            if not r["informational"] and not float(r["max_deviation"]) <= float(r["tolerance"]):
                problems.append(f"{name}/{r['identity']}: deviation {r['max_deviation']} "
                                f"above tolerance {r['tolerance']}")
    return problems


def check_transport(x, out):
    a = sl2c_element(x["rot_axis"], x["angle"], x["boost_axis"], x["rapidity"])
    lam = lorentz_of(a)
    n_want = lam @ x["n"]
    problems = []
    # (a) induced transform of a packet state
    state = out["state"]
    n = state.n
    if not (n[0] > 0 and abs(-n[0] ** 2 + n[1:] @ n[1:] + 1.0) <= 1e-9):
        problems.append("state: transformed n is not unit future-timelike")
    problems += _close(n, n_want, 1e-9, "state: n vs Lambda n")
    problems += _close(state.center_x, lam @ x["center_x"], 1e-9, "state: center_x")
    problems += _close(state.center_p, lam @ x["center_p"], 1e-9, "state: center_p")
    problems += _close(np.linalg.norm(state.spin), 1.0, 1e-10, "state: spin norm")
    # (b) two-spinor pair, assembled four-spinor and its sector norm
    pair = out["pair"]
    problems += _close(pair.n, n_want, 1e-9, "pair: n vs Lambda n")
    ref = float(np.vdot(x["psi"], x["psi"]).real + np.vdot(x["phi"], x["phi"]).real)
    if not abs(out["sector_norm"] - ref) <= 1e-10:
        problems.append(f"pair: sector norm {out['sector_norm']!r} != |psi|^2+|phi|^2 {ref!r}")
    # (c) wigner query against the Thomas-Wigner closed form
    wigner = out["wigner"]
    problems += _exit(wigner)
    angle = float(json.loads(wigner.text)["rotation"]["angle"])
    want = thomas_wigner_angle(x["w1"], x["w2"])
    if not abs(angle - want) <= 1e-10:
        problems.append(f"wigner: angle {angle!r} != Thomas-Wigner {want!r}")
    return problems


def check_scan(x, out):
    problems = _exit(out)
    header, table = _csv(out)
    if header != SCAN_HEADER:
        problems.append(f"header {header!r}")
    if table.shape != (x["samples"], 4):
        return problems + [f"table shape {table.shape}, want ({x['samples']}, 4)"]
    dt, prob, osc = table[:, 0], table[:, 1], table[:, 3]
    problems += _close(dt, np.linspace(x["dt_min_fs"], x["dt_max_fs"], x["samples"]),
                       1e-12, "dt grid")
    if not np.all(prob >= -1e-12):
        problems.append(f"negative probability {prob.min()!r}")
    # the cross term is a positive envelope times cos(dE dt / hbar): its zeros
    # are h / (2 |dE|) apart
    sign = np.signbit(osc)
    i = np.flatnonzero(sign[1:] != sign[:-1])
    if len(i) < 2:
        return problems + ["fewer than two fringe zeros in the scan"]
    zeros = dt[i] - osc[i] * (dt[i + 1] - dt[i]) / (osc[i + 1] - osc[i])
    period = 2.0 * (zeros[-1] - zeros[0]) / (len(zeros) - 1)
    want = H_EV_FS / abs(x["e2_ev"] - x["e1_ev"])
    if not abs(period / want - 1.0) <= 1e-3:
        problems.append(f"fringe period {period!r} fs, want h/|dE| = {want!r} fs")
    emission = interference.EmissionConfig(x["e1_ev"], x["e2_ev"], x["t_emit1_fs"],
                                           x["t_emit2_fs"], x["sigma_t_fs"])
    for k in np.linspace(0, x["samples"] - 1, 7).astype(int)[1:-1]:
        q = interference.coincidence_probability_quadrature(emission, dt[k])
        if not abs(prob[k] - q) <= 1e-9 * prob.max():
            problems.append(f"P({dt[k]!r}) = {prob[k]!r}, quadrature {q!r}")
    return problems


def check_evolve(x, out):
    run, sweep = out["classical"], out["quantum"]
    problems = _exit(run)
    header, table = _csv(run)
    if header != EVOLVE_HEADER:
        problems.append(f"header {header!r}")
    steps = x["steps"]
    if table.shape != (steps + 1, 10):
        problems.append(f"trajectory shape {table.shape}, want ({steps + 1}, 10)")
    else:
        tau = np.arange(steps + 1) * x["dtau"]
        p0, m = np.asarray(x["p0"]), x["mass_param"]
        problems += _close(table[:, 0], tau, 1e-9, "tau")
        problems += _close(table[:, 1:5], x["x0"] + np.outer(tau, p0) / m, 1e-9, "x(tau)")
        problems += _close(table[:, 5:9], np.broadcast_to(p0, (steps + 1, 4)), 1e-12, "p")
        k = (-p0[0] ** 2 + p0[1:] @ p0[1:]) / (2 * m)
        problems += _close(table[:, 9], np.full(steps + 1, k), 1e-12, "K")
    # quantum sweep: unit-modulus phases only
    q = x["quantum"]
    first, last = sweep["initial"], sweep["final"]
    problems += _close(np.abs(last.amplitudes), np.abs(first.amplitudes), 1e-12, "|a|")
    problems += _close(np.sum(last.weights * np.abs(last.amplitudes) ** 2), 1.0, 1e-10,
                       "packet norm")
    problems += _close(last.tau, q["steps"] * q["dtau"], 1e-9, "packet tau")
    moments = np.asarray(sweep["moments"])
    if len(moments) != q["steps"]:
        return problems + [f"{len(moments)} sweep steps, want {q['steps']}"]
    problems += _close(moments[:, 0] / moments[0, 0], 1.0, 1e-9, "mass moment mean")
    problems += _close(moments[:, 1] / moments[0, 1], 1.0, 1e-9, "mass moment variance")
    taus = q["dtau"] * np.arange(1, q["steps"] + 1)
    want = [gaussian_time_spread(q["e_width"], t, q["mass_param"]) for t in taus]
    problems += _close(np.asarray(sweep["spreads"])[:, 0] / want, 1.0, 1e-9,
                       "time spread vs Gaussian")
    return problems
