"""Acceptance suite: one test per headline criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized for a laptop (the heaviest case is the full
observability scenario at hbar = 1e-3).
"""

import numpy as np
import pytest

from blochlab import (CostParams, Discretization, KGrid, ObservabilityScenario, PhaseSpaceDensity,
                      constant_pure, coupling_energy_husimi, coupling_energy_toeplitz, flow,
                      hbar_threshold, husimi, minimize_toeplitz_penalty, periodic_trace,
                      stability_envelope, toeplitz_quantize, verify_theorem)
from blochlab.bloch import grid_weight, position_grid
from blochlab.cli import main as cli_main
from blochlab.quantization import FiberedDensity
from blochlab.quantum_dynamics import FiberHamiltonian, propagate_batch

from conftest import coherent_overlap
from oracles import (CoherentParams, bloch_transform, coeffs_to_values_rolled, coherent_family,
                     coherent_planewave_coeffs, coherent_state, commutator_residual,
                     cosine_potential, coupling_energy_husimi_grid, default_window,
                     interval_region, periodized_coherent, single_box, zero_potential)


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_bloch_isometry(lat1, lat2):
    hbar, m, nk = 0.05, 64, 32
    kg = KGrid.monkhorst_pack(lat1, nk)
    l_cut = default_window(lat1, hbar, 0.5)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        qs = rng.uniform(-0.4, 0.4, (3, 1))
        ps = rng.uniform(-1.0, 1.0, (3, 1))
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        packets = [CoherentParams(qs[i], ps[i], hbar) for i in range(3)]

        def u(pts):
            return sum(a * coherent_state(c, pts) for a, c in zip(amps, packets))

        state = bloch_transform(u, lat1, kg, m, l_cut)
        avg = np.mean(state.fiber_norms_sq())
        norm = sum((np.conj(amps[i]) * amps[j]
                    * coherent_overlap(qs[i], ps[i], qs[j], ps[j], hbar)).real
                   for i in range(3) for j in range(3))
        worst = max(worst, abs(avg - norm) / norm)
    # d = 2 smoke at reduced resolution; the supercell (4 cells per axis) must
    # exceed the packet reach or periodic images alias at the tolerance level
    kg2 = KGrid.monkhorst_pack(lat2, 4)
    l_cut2 = default_window(lat2, 0.1, 0.5)
    for _ in range(3):
        cp = CoherentParams(rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.5, 0.5, 2), 0.1)
        state = bloch_transform(lambda pts: coherent_state(cp, pts), lat2, kg2, 12, l_cut2)
        worst = max(worst, abs(np.mean(state.fiber_norms_sq()) - 1.0))
    _report(1, worst <= 1e-10, f"isometry defect {worst:.3e} <= 1e-10")


def test_criterion_02_coherent_bloch_identity(lat1):
    m, nk = 64, 32
    kg = KGrid.monkhorst_pack(lat1, nk)
    rng = np.random.default_rng(12)
    worst = 0.0
    for hbar in (0.1, 0.02):
        l_cut = default_window(lat1, hbar, 0.5)
        for _ in range(10):
            cp = CoherentParams(rng.uniform(-0.5, 0.5, 1), rng.uniform(-1, 1, 1), hbar)
            state = bloch_transform(lambda p: coherent_state(cp, p), lat1, kg, m, l_cut)
            for i in range(nk):
                ref = coherent_planewave_coeffs(cp, lat1, kg.points[i], m)
                worst = max(worst, float(np.max(np.abs(state.coeffs[i] - ref))))
    _report(2, worst <= 1e-9, f"fiberwise packet identity defect {worst:.3e} <= 1e-9")


def test_criterion_03_husimi_normalization(lat1):
    hbar, m, nk, band = 0.02, 64, 32, 16
    kg = KGrid.monkhorst_pack(lat1, nk)
    rng = np.random.default_rng(13)
    n_g = 2 * m + 1
    worst_mass = 0.0
    for rank in (1, 4):
        vecs = np.zeros((nk, rank, n_g), dtype=complex)
        core = slice(m - band, m + band + 1)
        vecs[:, :, core] = (rng.standard_normal((nk, rank, 2 * band + 1))
                            + 1j * rng.standard_normal((nk, rank, 2 * band + 1)))
        lam = rng.uniform(0.2, 1.0, (nk, rank))
        lam /= np.mean(np.sum(lam * np.sum(np.abs(vecs) ** 2, axis=2), axis=1))
        rho = FiberedDensity(kg, lat1, m, hbar, lam, vecs)
        p_max = hbar * 2 * np.pi * band + 8 * np.sqrt(hbar)
        n_q, n_p = 80, 192
        qs = position_grid(lat1, n_q)
        dp = 2 * p_max / n_p
        ps = (-p_max + (np.arange(n_p) + 0.5) * dp).reshape(-1, 1)
        w = husimi(rho, qs, ps, grid_weight(lat1, n_q) * dp)
        worst_mass = max(worst_mass, abs(w.mass - 1.0))
        assert np.all(w.values >= -1e-12)

    # momentum-marginal identity at fixed position, single fiber
    vec = np.zeros(n_g, dtype=complex)
    vec[m - band:m + band + 1] = (rng.standard_normal(2 * band + 1)
                                  + 1j * rng.standard_normal(2 * band + 1))
    k = kg.points[5]
    single = FiberedDensity(KGrid(k[None, :], lat1), lat1, m, hbar,
                            np.ones((1, 1)), vec[None, None, :])
    p_max = hbar * 2 * np.pi * band + 8 * np.sqrt(hbar)
    n_p = 256
    dp = 2 * p_max / n_p
    ps = (-p_max + (np.arange(n_p) + 0.5) * dp).reshape(-1, 1)
    q0 = np.array([[0.11]])
    lhs = husimi(single, q0, ps, dp).mass
    n_fine = n_g
    yg = position_grid(lat1, n_fine)
    dens = np.abs(coeffs_to_values_rolled(vec, lat1, n_fine)) ** 2
    rhs = sum(float(np.sum(np.exp(-(yg[:, 0] + ell - q0[0, 0]) ** 2 / hbar) * dens))
              for ell in range(-8, 9)) * grid_weight(lat1, n_fine) * (np.pi * hbar) ** -0.5
    marg_err = abs(lhs - rhs)
    ok = worst_mass <= 1e-6 and marg_err <= 1e-6
    _report(3, ok, f"mass defect {worst_mass:.3e} <= 1e-6, "
                   f"momentum-marginal defect {marg_err:.3e} <= 1e-6")


def test_criterion_04_toeplitz_bound(lat1, lat2, geom1, geom2):
    # the bound holds pointwise at every quadrature node, so modest node sets
    # suffice; d = 2 runs at smoke resolution
    rows = []
    for lat, geom, nq, np_, nk in ((lat1, geom1, 16, 24, 8), (lat2, geom2, 4, 4, 4)):
        d = lat.dimension

        def fn(q, p):
            return np.exp(-np.sum(q ** 2, axis=-1) / (2 * 0.12 ** 2)
                          - np.sum((p - 0.3) ** 2, axis=-1) / (2 * 0.15 ** 2))

        f = PhaseSpaceDensity.from_function(fn, lat, nq, np_, 0.9)
        for hbar in (0.1, 0.01):
            m = max(16, int(np.ceil(4.0 / np.sqrt(hbar))))
            if d == 1:
                m = max(m, 64)
            rho = toeplitz_quantize(f, lat, KGrid.monkhorst_pack(lat, nk if d == 2 else 8), m,
                                    hbar)
            for lam in (0.5, 1.0, 2.0):
                ce = coupling_energy_toeplitz(f, rho, CostParams(lam, geom))
                rows.append((d, hbar, lam, ce.total / ce.bound))
    worst = max(r[-1] for r in rows)
    _report(4, worst <= 1 + 1e-6,
            f"coupling/bound ratio max {worst:.8f} <= 1+1e-6 over {len(rows)} cases")


def test_criterion_05_pure_state_bound(lat1, geom1):
    worst_ratio, worst_ident = 0.0, 0.0
    for hbar in (0.04, 0.02):
        m = 64
        kg = KGrid.monkhorst_pack(lat1, 16)
        rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.4])
        ce = coupling_energy_husimi(rho)
        _, mom = coupling_energy_husimi_grid(rho, 64, 160, 0.4 + 9 * np.sqrt(hbar))
        worst_ratio = max(worst_ratio, ce.total / ce.bound)
        worst_ident = max(worst_ident, float(np.max(np.abs(ce.momentum_per_fiber - mom))))
    ok = worst_ratio <= 1 and worst_ident <= 1e-8
    _report(5, ok, f"energy/bound {worst_ratio:.6f} <= 1, "
                   f"momentum part against the grid oracle {worst_ident:.3e} <= 1e-8")


def test_criterion_06_stability_envelope(lat1, geom1):
    hbar = 0.01

    def fn(q, p):
        return np.exp(-np.sum(q ** 2, axis=-1) / (2 * 0.1 ** 2)
                      - np.sum((p - 0.3) ** 2, axis=-1) / (2 * 0.15 ** 2))

    f = PhaseSpaceDensity.from_function(fn, lat1, 10, 12, 1.0)
    kg = KGrid.monkhorst_pack(lat1, 4)
    vpot = cosine_potential(lat1, (1,), 0.1)
    lam = vpot.lipschitz_gradient().value
    env_v = stability_envelope(f, toeplitz_quantize(f, lat1, kg, 64, hbar),
                               CostParams(lam, geom1), vpot, horizon=1.0, n_times=20, dt=2e-3)
    env_0 = stability_envelope(f, toeplitz_quantize(f, lat1, kg, 64, hbar),
                               CostParams(1.0, geom1), zero_potential(lat1),
                               horizon=1.0, n_times=20, dt=1e-3)
    ok = (env_v.max_ratio() <= 1 + 1e-3 and env_0.max_ratio() <= 1 + 1e-3
          and env_0.eta == pytest.approx(2.0 * geom1.gamma_plus / geom1.gamma_minus))
    _report(6, ok, f"envelope ratios {env_v.max_ratio():.6f} (V=0.1cos), "
                   f"{env_0.max_ratio():.6f} (free) <= 1+1e-3")


def _acceptance_scenario(lat1, geom1, kind):
    # hbar = 1e-3 with momenta up to 2 forces the plane-wave order to 384; the
    # quadrature node count is kept modest (the datum is any probability
    # density supported in K)
    return ObservabilityScenario(
        lat=lat1, geom=geom1, potential=zero_potential(lat1), hbar=1e-3,
        horizon=1.0, delta=0.05, omega=interval_region([-0.1], [0.1], lat1),
        k_set=single_box([-0.5], [0.5], [1.0], [2.0]),
        disc=Discretization(m=384, n_k=32, n_q=12, n_p=20, n_time_obs=200,
                            n_time_gc=2000, gc_per_axis=32, gc_quasi=1000, dt=1e-3),
        initial_kind=kind, center_q=np.array([0.0]), center_p=np.array([1.5]),
        sigma_q=0.1, sigma_p=0.15)


ACCEPTANCE_CONFIG = """\
[lattice]
basis = [[1.0]]

[physics]
hbar = 0.001
T = 1.0
dt = 1e-3

[discretization]
m = 384
n_k = 32
n_q = 12
n_p = 20
n_time_obs = 200
n_time_gc = 2000
gc_per_axis = 32
gc_quasi = 1000

[scenario]
K = [((-0.5,), (0.5,), (1.0,), (2.0,))]
omega = [((-0.1,), (0.1,))]
delta = 0.05

[initial]
kind = toeplitz
center_q = (0.0,)
center_p = (1.5,)
sigma_q = 0.1
sigma_p = 0.15
"""


def test_criterion_07_observability_verification(lat1, geom1, tmp_path):
    t = verify_theorem(_acceptance_scenario(lat1, geom1, "toeplitz")).rows
    p = verify_theorem(_acceptance_scenario(lat1, geom1, "pure")).rows
    cfg = tmp_path / "acceptance.cfg"
    cfg.write_text(ACCEPTANCE_CONFIG)
    code = cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    ok = t["margin"] >= 0 and t["C_GC"] >= 0.09 and p["margin"] >= 0 and code == 0
    _report(7, ok, f"toeplitz margin {t['margin']:.4f} >= 0, "
                   f"C_GC {t['C_GC']:.4f} >= 0.09, "
                   f"pure margin {p['margin']:.4f} >= 0, verify exit {code}")


def test_criterion_08_unitarity_trace(lat1):
    hbar, m = 0.05, 64
    vpot = cosine_potential(lat1, (1,), 0.1)
    h = FiberHamiltonian(lat1, m, np.array([0.2]), vpot, hbar)
    u0 = periodized_coherent(CoherentParams([0.0], [0.4], hbar), lat1, m).coeffs
    out = propagate_batch(u0[None, None].copy(), h, 1.0, 1e-3)     # 1000 strang steps
    norm_drift = abs(np.sqrt(np.sum(np.abs(out) ** 2)) - np.sqrt(np.sum(np.abs(u0) ** 2)))

    kg = KGrid.monkhorst_pack(lat1, 8)
    rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.4])
    tr0 = periodic_trace(rho)
    vectors = propagate_batch(rho.vectors.copy(), FiberHamiltonian(lat1, m, kg.points, vpot, hbar),
                              1.0, 1e-3)
    rho_t = FiberedDensity(kg, lat1, m, hbar, rho.lambdas, vectors)
    trace_drift = abs(periodic_trace(rho_t) - tr0)
    ok = norm_drift <= 1e-9 and trace_drift <= 1e-9
    _report(8, ok, f"norm drift {norm_drift:.3e}, trace drift {trace_drift:.3e} <= 1e-9")


def test_criterion_09_commutator_identities(lat1, geom1):
    hbar = 0.05
    vpot = cosine_potential(lat1, (1,), 0.1)
    u = periodized_coherent(CoherentParams([0.05], [0.3], hbar), lat1, 64)
    res = commutator_residual(vpot, np.array([0.7]), np.array([0.3]), u, hbar, geom1,
                              x_center=np.array([0.2]), lam=1.0)
    ok = (res.potential_gradient <= 1e-8 and res.theta_gradient <= 1e-8
          and res.diagonal == 0.0 and res.kinetic == 0.0)
    _report(9, ok, f"gradient identities {res.potential_gradient:.2e}/"
                   f"{res.theta_gradient:.2e} <= 1e-8, diagonal pair exactly "
                   f"{res.diagonal}, spectral pair exactly {res.kinetic}")


def test_criterion_10_change_of_variable(lat1):
    vpot = cosine_potential(lat1, (1,), 0.1)
    tests = [
        lambda x, xi: np.cos(2 * np.pi * x) * np.exp(-xi ** 2),
        lambda x, xi: (1 + 0.5 * np.sin(2 * np.pi * x)) * np.exp(-(xi - 0.5) ** 2 / 0.5),
        lambda x, xi: np.exp(-xi ** 2 / 0.8) / (1.1 + np.cos(2 * np.pi * x)),
        lambda x, xi: np.cos(4 * np.pi * x) ** 2 * xi ** 2 * np.exp(-xi ** 2),
        lambda x, xi: np.exp(np.cos(2 * np.pi * x)) * np.exp(-np.abs(xi) ** 3),
    ]
    nx, nxi, p_lim = 180, 240, 4.0
    xs = np.arange(nx) / nx - 0.5
    xis = -p_lim + (np.arange(nxi) + 0.5) * (2 * p_lim / nxi)
    xg, pg = np.meshgrid(xs, xis, indexing="ij")
    w = (1.0 / nx) * (2 * p_lim / nxi)
    pts = flow(xg.reshape(-1, 1), pg.reshape(-1, 1), 0.8, vpot, dt=1e-3)
    worst = max(abs(np.sum(g(pts.x[:, 0], pts.xi[:, 0])) * w - np.sum(g(xg, pg)) * w)
                for g in tests)

    rng = np.random.default_rng(10)
    x = rng.uniform(-0.5, 0.5, (30, 1))
    xi = rng.uniform(-1.5, 1.5, (30, 1))
    base = flow(x, xi, 0.8, vpot, dt=1e-3)
    shifted = flow(x + 1.0, xi, 0.8, vpot, dt=1e-3)
    pseudo = max(float(np.max(np.abs(shifted.x - base.x - 1.0))),
                 float(np.max(np.abs(shifted.xi - base.xi))))
    ok = worst <= 1e-4 and pseudo <= 1e-10
    _report(10, ok, f"pushforward defect {worst:.3e} <= 1e-4, "
                    f"pseudo-periodicity {pseudo:.3e} <= 1e-10")


def test_criterion_11_constants(geom1, geom2):
    worst_t = 0.0
    for geom, horizon, lip in ((geom1, 1.0, 0.0), (geom1, 0.5, 3.95), (geom2, 0.3, 1.0)):
        got = minimize_toeplitz_penalty(geom, horizon, lip)[0]
        lam = np.exp(np.linspace(-8, 8, 100_001))
        a = 2 * geom.gamma_plus / geom.gamma_minus
        with np.errstate(over="ignore"):
            vals = (np.expm1(a * (lam + lip ** 2 / lam) * horizon)
                    / (lam ** 2 + lip ** 2) * np.sqrt((1 + lam ** 2) / 2))
        ref = float(np.sqrt(geom.gamma_minus / (2 * geom.gamma_plus)) * np.min(vals))
        worst_t = max(worst_t, abs(got - ref) / ref)

    worst_p = 0.0
    for geom, horizon, lip in ((geom1, 0.1, 0.0), (geom2, 0.7, 1.3)):
        a = 2 * geom.gamma_plus / geom.gamma_minus
        ref = (np.sqrt(geom.gamma_minus / (2 * geom.gamma_plus))
               * (np.exp(a * (1 + lip ** 2) * horizon) - 1) / (1 + lip ** 2))
        worst_p = max(worst_p, abs(constant_pure(geom, horizon, lip) - ref) / ref)

    thr = hbar_threshold(0.1, 1.0, 0.05, 1)
    thr_err = abs(thr - 2.5e-5) / 2.5e-5
    ok = worst_t <= 1e-6 and worst_p <= 1e-12 and thr_err <= 1e-15
    _report(11, ok, f"penalty-constant scan defect {worst_t:.2e} <= 1e-6, "
                    f"closed form {worst_p:.2e} <= 1e-12, threshold {thr_err:.2e} <= 1e-15")
