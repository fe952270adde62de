import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blochlab import (LatticeSpec, PhaseSpaceDensity, TrigPotential, classical_dynamics, flow,
                      gc_constant)
from blochlab.lattice import Region
from blochlab.quantization import PhaseBoxSet
from blochlab.bloch import position_grid
from blochlab.lattice import reduce_to_cell

from conftest import LATTICES
from oracles import (cosine_potential, cubic_lattice, free_occupation, interval_region, k_flow,
                     sampled_occupation, single_box, verlet_flow, verlet_occupation,
                     zero_potential)


@pytest.fixture(scope="module")
def vpot():
    return cosine_potential(cubic_lattice(1), (1,), 0.1)


def rk_oracle(x0, xi0, t, potential, rtol=1e-11):
    def rhs(_, y):
        d = y.size // 2
        return np.concatenate([y[d:], -potential.gradient(y[None, :d])[0]])
    sol = solve_ivp(rhs, (0.0, t), np.concatenate([x0, xi0]),
                    rtol=rtol, atol=1e-13, method="DOP853")
    d = x0.size
    return sol.y[:d, -1], sol.y[d:, -1]


def test_free_flow_exact(lat1):
    v0 = zero_potential(lat1)
    out = flow(np.array([[0.3]]), np.array([[0.7]]), 2.5, v0, dt=0.1)
    np.testing.assert_allclose(out.x, [[0.3 + 2.5 * 0.7]], rtol=1e-14)
    np.testing.assert_allclose(out.xi, [[0.7]], rtol=1e-15)


def _potentials(lat):
    """No terms, terms of amplitude 0 (both V = 0), and a cosine pair (V != 0)."""
    d = lat.dimension
    unit = tuple(int(i == 0) for i in range(d))
    diag = (1,) * d
    return {"no terms": TrigPotential(lat, ()),
            "zero amplitudes": TrigPotential(lat, ((unit, 0.0, 0.3), (diag, -0.0, 1.1))),
            "cosine": TrigPotential(lat, ((unit, 0.2, 0.3), (diag, 0.1, 1.1)))}


@pytest.mark.parametrize("kind", ["no terms", "zero amplitudes", "cosine"])
@pytest.mark.parametrize("t", [2.3, -2.3])
@pytest.mark.parametrize("name", ["line", "hexagonal"])
def test_flow_equals_the_full_verlet_formula_bitwise(rng, name, t, kind):
    # at V = 0 each step is x + h xi with no force evaluated; the full formula
    # adds only signed zeros and gives the same bits, forwards and backwards
    lat = LatticeSpec(LATTICES[name])
    potential = _potentials(lat)[kind]
    assert potential.is_zero == (kind != "cosine")
    x = rng.uniform(-1.5, 1.5, (30, lat.dimension))
    xi = rng.uniform(-2.0, 2.0, (30, lat.dimension))
    xi[0] = 0.0
    out, ref = flow(x, xi, t, potential, 0.05), verlet_flow(x, xi, t, potential, 0.05)
    assert out.x.tobytes() == ref.x.tobytes() and out.xi.tobytes() == ref.xi.tobytes()
    assert not np.array_equal(out.x, x)


@pytest.mark.parametrize("kind, calls", [("no terms", 1), ("zero amplitudes", 1),
                                         ("cosine", 21)])
def test_free_flow_evaluates_the_force_once(monkeypatch, rng, kind, calls):
    # V = 0: one force for the start and none per step; V != 0: the start and
    # each of the 20 steps
    lat = LatticeSpec(LATTICES["hexagonal"])
    potential = _potentials(lat)[kind]
    seen = []
    gradient = TrigPotential.gradient

    def spy(self, x):
        seen.append(x.shape)
        return gradient(self, x)

    monkeypatch.setattr(TrigPotential, "gradient", spy)
    x, xi = rng.uniform(-0.5, 0.5, (2, 7, 2))
    for t in (1.0, -1.0):
        seen.clear()
        flow(x, xi, t, potential, dt=0.05)
        assert seen == [(7, 2)] * calls


def test_flow_matches_rk_oracle(vpot):
    out = flow(np.array([[0.0]]), np.array([[0.7]]), 1.0, vpot, dt=1e-3)
    x_ref, xi_ref = rk_oracle(np.array([0.0]), np.array([0.7]), 1.0, vpot)
    assert abs(out.x[0, 0] - x_ref[0]) < 1e-6
    assert abs(out.xi[0, 0] - xi_ref[0]) < 1e-6


def test_flow_pseudo_periodicity(vpot, rng):
    x = rng.uniform(-0.5, 0.5, (40, 1))
    xi = rng.uniform(-1.5, 1.5, (40, 1))
    base = flow(x, xi, 0.8, vpot, dt=1e-3)
    shifted = flow(x + 1.0, xi, 0.8, vpot, dt=1e-3)
    assert np.max(np.abs(shifted.x - base.x - 1.0)) < 1e-10
    assert np.max(np.abs(shifted.xi - base.xi)) < 1e-10


def test_flow_reversibility(vpot, rng):
    x = rng.uniform(-0.5, 0.5, (20, 1))
    xi = rng.uniform(-1.0, 1.0, (20, 1))
    fwd = flow(x, xi, 1.0, vpot, dt=1e-3)
    back = flow(fwd.x, fwd.xi, -1.0, vpot, dt=1e-3)
    assert np.max(np.abs(back.x - x)) < 1e-9
    assert np.max(np.abs(back.xi - xi)) < 1e-9


def test_energy_drift_golden(vpot):
    # golden constant C ~ 0.435 for this potential/orbit family; assert the
    # measured drift stays below C * dt^2 with margin, over t <= 10
    c_golden = 0.435

    def energy(x, xi):
        return 0.5 * float(np.sum(xi ** 2)) + float(vpot.value(x)[0])

    for dtv in (1e-2, 5e-3):
        x, xi = np.array([[0.2]]), np.array([[0.9]])
        e0 = energy(x, xi)
        drift = 0.0
        for _ in range(10):
            out = flow(x, xi, 1.0, vpot, dtv)
            x, xi = out.x, out.xi
            drift = max(drift, abs(energy(x, xi) - e0))
        assert drift <= 1.25 * c_golden * dtv ** 2


def test_k_flow_zero_k_and_free(lat1, vpot):
    x, xi = np.array([[0.1]]), np.array([[0.5]])
    a = k_flow(x, xi, np.zeros(1), 0.7, vpot, hbar=0.05, dt=1e-3)
    b = flow(x, xi, 0.7, vpot, dt=1e-3)
    np.testing.assert_allclose(a.x, b.x, atol=1e-14)
    np.testing.assert_allclose(a.xi, b.xi, atol=1e-14)
    free = zero_potential(lat1)
    hbar, k, t = 0.05, np.array([0.8]), 0.6
    out = k_flow(x, xi, k, t, free, hbar=hbar, dt=1e-2)
    np.testing.assert_allclose(out.x, x + t * (xi + hbar * k), rtol=1e-13)
    np.testing.assert_allclose(out.xi, xi, rtol=1e-15)


def k_flow_direct(x, xi, k, t, potential, hbar, dt):
    """Fiber flow by Verlet integration of the offset system dx/dt = xi + hbar k."""
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    h = t / n_steps
    x, xi = np.array(x, dtype=float), np.array(xi, dtype=float)
    force = -potential.gradient(x)
    for _ in range(n_steps):
        x = x + h * (xi + hbar * k) + 0.5 * h * h * force
        new_force = -potential.gradient(x)
        xi = xi + 0.5 * h * (force + new_force)
        force = new_force
    return x, xi


def test_k_flow_two_routes_agree(vpot, rng):
    x = rng.uniform(-0.5, 0.5, (10, 1))
    xi = rng.uniform(-1.0, 1.0, (10, 1))
    k = np.array([0.6])
    a = k_flow(x, xi, k, 0.9, vpot, hbar=0.05, dt=1e-3)
    bx, bxi = k_flow_direct(x, xi, k, 0.9, vpot, hbar=0.05, dt=1e-3)
    assert np.max(np.abs(a.x - bx)) < 1e-9
    assert np.max(np.abs(a.xi - bxi)) < 1e-9


def test_transport_identity_and_mass(lat1, vpot):
    def bump(q, p):
        return np.exp(-q[:, 0] ** 2 / 0.02 - (p[:, 0] - 0.4) ** 2 / 0.05)
    # Liouville transport: the nodes ride the flow (reduced to the cell) and keep
    # their weights and values, so t = 0 is the identity and the mass is kept
    f = PhaseSpaceDensity.from_function(bump, lat1, 14, 20, 1.2)
    same = flow(f.nodes_q, f.nodes_p, 0.0, vpot, dt=1e-3)
    np.testing.assert_array_equal(same.x, f.nodes_q)
    np.testing.assert_array_equal(same.xi, f.nodes_p)
    moved = flow(f.nodes_q, f.nodes_p, 1.0, vpot, dt=1e-3)
    moved = PhaseSpaceDensity(reduce_to_cell(moved.x, lat1), moved.xi, f.weights, f.values)
    assert moved.mass == pytest.approx(f.mass, abs=1e-10)
    t = moved.nodes_q @ lat1.inverse_basis
    assert np.all(t >= -0.5) and np.all(t < 0.5)


@pytest.mark.parametrize("case", range(5))
def test_change_of_variable_quadrature(lat1, vpot, case):
    # pushforward invariance of the cell x momentum integral for periodic-in-x
    # integrands (quadrature oracle at 1e-4)
    tests = [
        lambda x, xi: np.cos(2 * np.pi * x) * np.exp(-xi ** 2),
        lambda x, xi: (1 + 0.5 * np.sin(2 * np.pi * x)) * np.exp(-(xi - 0.5) ** 2 / 0.5),
        lambda x, xi: np.exp(-xi ** 2 / 0.8) / (1.1 + np.cos(2 * np.pi * x)),
        lambda x, xi: np.cos(4 * np.pi * x) ** 2 * xi ** 2 * np.exp(-xi ** 2),
        lambda x, xi: np.exp(np.cos(2 * np.pi * x)) * np.exp(-np.abs(xi) ** 3),
    ]
    g = tests[case]
    nx, nxi, p_lim = 180, 240, 4.0
    xs = (np.arange(nx) / nx - 0.5)
    xis = -p_lim + (np.arange(nxi) + 0.5) * (2 * p_lim / nxi)
    xg, pg = np.meshgrid(xs, xis, indexing="ij")
    w = (1.0 / nx) * (2 * p_lim / nxi)
    direct = np.sum(g(xg, pg)) * w
    pts = flow(xg.reshape(-1, 1), pg.reshape(-1, 1), 0.8, vpot, dt=1e-3)
    pushed = np.sum(g(pts.x[:, 0], pts.xi[:, 0])) * w
    assert pushed == pytest.approx(direct, abs=1e-4)


def test_gc_constant_free_traversal(lat1):
    omega = interval_region([-0.1], [0.1], lat1)
    k_set = single_box([-0.5], [0.5], [1.0], [2.0])
    est = gc_constant(1.0, k_set, omega, zero_potential(lat1),
                      n_time=2000, per_axis=24, n_quasi=300)
    # analytic: a speed-xi trajectory spends >= 0.2/xi >= 0.1 per full period,
    # and every start in K completes at least one period within T=1
    assert est.satisfied
    assert est.value >= 0.1 - 2 * (1.0 / 2000) * 2.0
    # the free-1d scenario: the exact route brackets the constant 1/9 (the
    # start at the edge of omega with p = 1.8 crosses it once more at t = 1)
    assert est.n_samples == 0
    assert est.lower <= 1.0 / 9.0 <= est.value <= est.lower + 1e-3


def test_gc_bracket_on_the_cosine_workload(lat1, vpot, monkeypatch):
    # the potential-1d scenario: the least occupation over a 2001^2 grid of K is
    # 0.1147943, and a bracket at tolerance 1e-4 attains 0.1147795 (at the
    # edge of omega, p about 1.75), so the lower end lies below 0.11478
    omega = interval_region([-0.1], [0.1], lat1)
    k_set = single_box([-0.5], [0.5], [1.0], [2.0])
    est = gc_constant(1.0, k_set, omega, vpot)
    assert est.n_samples == 0 and est.satisfied
    assert est.lower <= 0.11478 and est.value - est.lower <= 1e-3
    monkeypatch.setattr(classical_dynamics, "_GC_TOL", 1e-4)
    fine = gc_constant(1.0, k_set, omega, vpot)
    assert fine.value - fine.lower <= 1e-4
    # both brackets hold the constant, so they meet, and the finer one attains
    # an occupation below 0.11478
    assert max(est.lower, fine.lower) <= min(est.value, fine.value)
    assert fine.value <= 0.11478


def test_gc_bracket_stays_valid_when_refinement_stops(lat1, vpot, monkeypatch):
    # past _GC_MAX_CHUNKS chunks of sub-boxes the 1-D route reports the wider
    # bracket it has, which still holds the constant of the cosine workload
    k_set, omega = single_box([-0.5], [0.5], [1.0], [2.0]), interval_region([-0.1], [0.1], lat1)
    full = gc_constant(1.0, k_set, omega, vpot)
    monkeypatch.setattr(classical_dynamics, "_GC_MAX_CHUNKS", 1)
    est = gc_constant(1.0, k_set, omega, vpot)
    assert est.n_samples == 0
    assert max(est.lower, full.lower) <= min(est.value, full.value)
    assert est.value - est.lower > 1e-3


@pytest.mark.parametrize("period", [1.0, 2.0])
def test_exact_occupation_matches_fine_verlet(period):
    # a two-term cosine with phases on cells of length 1 and 2; starts moving
    # either way; omega one box, a box straddling the cell edge, and two
    # overlapping boxes.  A point box of K brackets its start's occupation.
    lat = cubic_lattice(1, period)
    potential = TrigPotential(lat, (((1,), 0.08, 0.3), ((2,), 0.03, -1.1)))
    regions = [Region(period * np.array(boxes)[:, :, None], lat) for boxes in
               ([(-0.1, 0.1)], [(0.4, 0.6)], [(-0.2, 0.05), (0.0, 0.15)])]
    q = period * np.array([0.05, 0.37, -0.42, 0.2, -0.3])
    p = np.array([1.3, 0.9, 1.8, -1.1, -1.7])
    expected = verlet_occupation(q, p, 1.0, potential, regions, dt=1e-5)
    for region, occupation in zip(regions, expected):
        for q0, p0, want in zip(q, p, occupation):
            est = gc_constant(1.0, single_box([q0], [q0], [p0], [p0]), region, potential)
            assert est.n_samples == 0
            assert abs(est.value - want) <= 2e-5
            assert est.lower <= est.value <= est.lower + 1e-6
        # two K boxes, one moving right and one left: the least of the two
        both = PhaseBoxSet(np.array([[[q[0]], [q[0]]], [[q[3]], [q[3]]]]),
                           np.array([[[p[0]], [p[0]]], [[p[3]], [p[3]]]]))
        est = gc_constant(1.0, both, region, potential)
        assert abs(est.value - min(occupation[0], occupation[3])) <= 2e-5


def test_sub_box_lower_bounds_hold_at_every_start():
    # the branch and bound's lower bound over a sub-box of starts, against the
    # exact occupation of a 9 x 9 grid of its starts (centres of point boxes);
    # at T = 0.3 many starts are still in omega at T, so the bound rests on
    # the entry time alone, which needs the sub-box's whole energy range
    lat = cubic_lattice(1)
    potential = TrigPotential(lat, (((1,), 0.08, 0.3), ((2,), 0.03, -1.1)))
    ends = classical_dynamics._omega_intervals(Region(np.array([[[-0.3], [0.3]]]), lat), 1.0)
    occupation = classical_dynamics._Occupation1D(0.3, ends, potential, 1.0, 32,
                                                  np.arange(-4.0, 5.0))
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 9)
    for _ in range(100):
        u1, width, p1, height = rng.uniform([0.0, 0.01, 0.9, 0.01], [1.0, 0.3, 2.0, 0.3])
        if rng.random() < 0.5:
            p1 = -p1 - height
        lower, _ = occupation.bounds(np.array([[u1, u1 + width, p1, p1 + height]]))
        u, p = np.meshgrid(u1 + width * grid, p1 + height * grid)
        _, exact = occupation.bounds(np.stack([u.ravel(), u.ravel(), p.ravel(), p.ravel()], 1))
        assert lower[0] <= exact.min() + 1e-12


@pytest.mark.parametrize("period, terms, energy", [
    (1.0, (((1,), 0.1, 0.0),), 0.25),
    (2.0, (((1,), 0.08, 0.3), ((2,), 0.03, -1.1)), 0.3)])
def test_quadrature_error_bounds_the_rule(period, terms, energy):
    # F_E(r) = int_0^r dq / sqrt(2 (E - V)) from the cell's left edge, by n
    # nodes against 256: the a-priori bound holds at every r <= a and is
    # within 1e4 of the error the short rules make
    potential = TrigPotential(cubic_lattice(1, period), terms)

    def integral(n, r):
        x, w = classical_dynamics._gauss_legendre(n)
        q = -0.5 * period + 0.5 * r * (1.0 + x)
        return 0.5 * r * np.sum(w / np.sqrt(2.0 * (energy - potential.value(q[:, None]))))

    for n in (4, 8, 16):
        error = max(abs(integral(n, r) - integral(256, r))
                    for r in np.linspace(0.05, 1.0, 20) * period)
        bound = classical_dynamics._quadrature_error(potential, n, period, energy)
        assert error <= bound <= 1e4 * error
    x, w = classical_dynamics._gauss_legendre(64)
    order = np.argsort(x)
    reference = np.polynomial.legendre.leggauss(64)
    np.testing.assert_allclose(x[order], reference[0], atol=1e-15)
    np.testing.assert_allclose(w[order], reference[1], rtol=1e-11)


def test_gc_full_cell_is_horizon(lat1):
    omega = interval_region([-0.5], [0.5], lat1)
    k_set = single_box([-0.2], [0.2], [0.5], [1.0])
    est = gc_constant(0.7, k_set, omega, zero_potential(lat1),
                      n_time=500, per_axis=8, n_quasi=50)
    assert est.value == pytest.approx(0.7, abs=1e-12)
    assert est.n_samples == 0 and est.value - 1e-3 <= est.lower <= est.value


def test_gc_full_cell_under_a_cosine_is_horizon(lat1, vpot):
    est = gc_constant(0.7, single_box([-0.2], [0.2], [1.0], [1.5]),
                      interval_region([-0.5], [0.5], lat1), vpot)
    assert est.value == pytest.approx(0.7, abs=1e-12)
    assert est.n_samples == 0 and est.value - 1e-3 <= est.lower <= est.value


def test_gc_empty_region_brackets_zero(lat1, vpot):
    est = gc_constant(1.0, single_box([-0.5], [0.5], [1.0], [2.0]),
                      Region(np.zeros((0, 2, 1)), lat1), vpot)
    assert (est.lower, est.value, est.n_samples, est.satisfied) == (0.0, 0.0, 0, False)


def test_gc_free_route_on_an_empty_region_brackets_zero(lat1):
    # at V = 0 a 2-D K, and a 1-D K whose momenta reach 0 (no exact 1-D bracket),
    # take the free-flow route; with no box of omega the constant is 0
    lat2 = cubic_lattice(2)
    k2 = PhaseBoxSet(np.array([[[-0.1, -0.1], [0.1, 0.1]]]), np.array([[[1.0, 0.0], [1.5, 0.5]]]))
    for k_set, lat in ((k2, lat2), (single_box([-0.5], [0.5], [-1.0], [1.0]), lat1)):
        est = gc_constant(0.5, k_set, Region(np.zeros((0, 2, lat.dimension)), lat),
                          zero_potential(lat))
        assert (est.lower, est.value, est.n_samples, est.satisfied) == (0.0, 0.0, 0, False)


def test_gc_stationary_point_fails(lat1):
    omega = interval_region([0.2], [0.4], lat1)
    k_set = single_box([-0.1], [0.1], [0.0], [0.0])   # immobile starts
    est = gc_constant(1.0, k_set, omega, zero_potential(lat1),
                      n_time=400, per_axis=6, n_quasi=20)
    # momenta that reach 0 take the free-flow route at V = 0, which proves the
    # constant is 0: no start ever meets omega
    assert est.value == est.lower == 0.0
    assert est.n_samples == 0 and not est.satisfied


def test_gc_requires_samples(lat1):
    omega = interval_region([-0.1], [0.1], lat1)
    with pytest.raises(ValueError):
        gc_constant(0.0, single_box([-0.5], [0.5], [1.0], [2.0]),
                    omega, zero_potential(lat1))


def test_gc_flow_route_takes_turning_starts_2d_and_long_horizons(lat1, vpot):
    # under 0.1 cos(2 pi q) a start can turn unless p^2/2 > 2 * 0.1; the flow
    # route reports lower 0 and counts the centres it evaluated, the exact
    # routes none
    omega = interval_region([-0.1], [0.1], lat1)
    turning = gc_constant(1.0, single_box([-0.5], [0.5], [0.3], [0.63]), omega, vpot,
                          n_time=200, per_axis=4, n_quasi=10)
    # a centre that never reaches omega: the estimate 0 is within tolerance of
    # the lower bound 0, so the first level of 4^2 centres is all it evaluates
    assert (turning.value, turning.lower, turning.n_samples) == (0.0, 0.0, 4 * 4)
    rotating = gc_constant(3.0, single_box([-0.5], [0.5], [0.64], [1.0]), omega, vpot)
    assert rotating.n_samples == 0 and rotating.lower > 0.0
    # d >= 2 with a potential takes the flow route, and at V = 0 the free route;
    # the flow route spends its whole budget of 2^4 + 4 centres
    lat2 = cubic_lattice(2)
    k2 = PhaseBoxSet(np.array([[[-0.1, -0.1], [0.1, 0.1]]]), np.array([[[1.0, 0.0], [1.5, 0.5]]]))
    strip = Region(np.array([[[-0.2, -0.5], [0.2, 0.5]]]), lat2)
    est = gc_constant(0.5, k2, strip, cosine_potential(lat2, (1, 0), 0.1),
                      n_time=50, per_axis=2, n_quasi=4)
    assert est.n_samples == 2 ** 4 + 4 and est.lower == 0.0 and not est.satisfied
    assert est.value > 1e-3
    # the start x = 0.1, p_x = 1.4 leaves the strip at t = 1/14 and meets the next one at T
    est = gc_constant(0.5, k2, strip, zero_potential(lat2), n_time=50, per_axis=2, n_quasi=4)
    assert est.n_samples == 0 and 0.0 < est.lower <= 1.0 / 14.0 <= est.value
    # at V = 0 the flow route still takes a box of omega that reaches past the
    # 3^d cells around the cell, and a horizon whose free orbits meet more
    # translates of omega than a chunk holds
    # (the second estimate is 0, within tolerance of lower 0 after one level)
    for horizon, region, samples in (
            (0.5, Region(np.array([[[0.2, -0.1], [1.8, 0.1]]]), lat2), 2 ** 4 + 2),
            (1e5, Region(np.array([[[-0.2, -0.2], [0.2, 0.2]]]), lat2), 2 ** 4)):
        est = gc_constant(horizon, k2, region, zero_potential(lat2), n_time=20, per_axis=2,
                          n_quasi=2)
        assert est.n_samples == samples and est.lower == 0.0
    # so does a horizon whose orbits cross more copies of omega than a chunk holds
    est = gc_constant(1e5, single_box([-0.5], [0.5], [1.0], [2.0]), omega, vpot,
                      n_time=20, per_axis=2, n_quasi=2)
    assert est.n_samples == 2 * 2 + 2 and est.lower == 0.0


def _flow_cases():
    """(K, omega, potential): 1-D starts near rest just left of omega, which can
    turn under 0.1 cos(2 pi q), and whose first midpoints lie in omega only by
    their h^2 F / 8 term; a 2-D K under a cosine; the 2-D K at V = 0 with a
    box of omega beyond the 3^d cells around the cell, which the free route
    does not take."""
    lat1, lat2 = cubic_lattice(1), cubic_lattice(2)
    k2 = PhaseBoxSet(np.array([[[-0.1, -0.1], [0.1, 0.1]]]), np.array([[[1.0, 0.0], [1.5, 0.5]]]))
    strip = Region(np.array([[[-0.2, -0.5], [0.2, 0.5]]]), lat2)
    return [(single_box([0.398], [0.3995], [-0.002], [0.002]),
             interval_region([0.4], [0.6], lat1), cosine_potential(lat1, (1,), 0.1)),
            (k2, strip, cosine_potential(lat2, (1, 1), 0.2, 0.4)),
            (k2, Region(np.array([[[0.2, -0.1], [1.8, 0.1]]]), lat2), zero_potential(lat2))]


@pytest.mark.parametrize("case", range(3))
def test_flow_occupation_is_the_sampled_occupation_of_its_centres(case):
    # the flow route's centre occupation is the sampler's loop along the full
    # Verlet formula from the same starts, bit for bit, and with no exploration
    # budget (n_quasi = 0) the estimate is the least of the first level's
    k_set, omega, potential = _flow_cases()[case]
    boxes = classical_dynamics._cut(np.concatenate([k_set.q_bounds, k_set.p_bounds], axis=1), 3)
    assert boxes.shape == (3 ** (2 * k_set.q_bounds.shape[2]), 4, k_set.q_bounds.shape[2])
    flow = classical_dynamics._FlowOccupation(1.0, omega, potential, 40, boxes.shape[0])
    lower, centre = flow.bounds(boxes)
    want = sampled_occupation(0.5 * (boxes[:, 0] + boxes[:, 1]), 0.5 * (boxes[:, 2] + boxes[:, 3]),
                              1.0, potential, omega, 40)
    assert centre.tobytes() == want.tobytes() and not lower.any()
    assert 0.0 < want.max() and flow.evaluated == boxes.shape[0]
    est = gc_constant(1.0, k_set, omega, potential, n_time=40, per_axis=3, n_quasi=0)
    assert (est.value, est.lower, est.n_samples) == (want.min(), 0.0, boxes.shape[0])


def test_flow_route_spends_its_budget_on_the_least_centres():
    # gc_quasi more centres per box of K: the halves of the sub-boxes whose
    # centres had the least occupation, so the estimate never rises, and the
    # cut pieces tile each box with shared ends
    k_set, omega, potential = _flow_cases()[1]
    two = PhaseBoxSet(np.concatenate([k_set.q_bounds, k_set.q_bounds + 0.2]),
                      np.concatenate([k_set.p_bounds, k_set.p_bounds]))
    first = gc_constant(1.0, two, omega, potential, n_time=40, per_axis=2, n_quasi=0)
    est = gc_constant(1.0, two, omega, potential, n_time=40, per_axis=2, n_quasi=7)
    assert first.n_samples == 2 * 2 ** 4 and est.n_samples == 2 * (2 ** 4 + 7)
    assert est.value <= first.value and est.lower == 0.0
    # with 3 centres left, both halves of the least parent and the first half of
    # the next one
    level = classical_dynamics._cut(np.concatenate([k_set.q_bounds, k_set.p_bounds], axis=1), 2)
    flow = classical_dynamics._FlowOccupation(1.0, omega, potential, 40, level.shape[0] + 3)
    order = np.argsort(flow.bounds(level)[1], kind="stable")
    halves = flow.split(level)
    assert halves.shape == (3, 4, 2)
    for half, parent in zip(halves, level[order[[0, 1, 0]]]):
        assert np.all(half[0::2] >= parent[0::2]) and np.all(half[1::2] <= parent[1::2])
        assert np.any(half != parent)
    boxes = classical_dynamics._cut(np.array([[[0.1], [0.4], [-1.0], [1.0]]]), 3)
    assert boxes[:, :2, 0].tolist()[:3] == [[0.1, 0.2], [0.1, 0.2], [0.1, 0.2]]
    assert sorted(set(boxes[:, 1, 0]) - set(boxes[:, 0, 0])) == [0.4]
    assert sorted(set(boxes[:, 3, 0]) - set(boxes[:, 2, 0])) == [1.0]


def test_every_input_makes_one_branch_and_bound(lat1, vpot, monkeypatch):
    # one result path: the free route, the 1-D route, the flow route behind
    # each guard, and an omega every orbit spends the same time in (none of
    # it, or in 1-D all of it) each bound K in exactly one call
    calls = []
    search = classical_dynamics._branch_and_bound

    def count(*args):
        calls.append(args[-1])
        return search(*args)

    monkeypatch.setattr(classical_dynamics, "_branch_and_bound", count)
    lat2 = cubic_lattice(2)
    k1 = single_box([-0.5], [0.5], [1.0], [2.0])
    k2 = single_box([-0.1, -0.1], [0.1, 0.1], [1.0, 0.0], [1.5, 0.5])
    turning = single_box([-0.5], [0.5], [0.3], [0.63])
    missed = single_box([0.3], [0.35], [0.0], [0.0])
    omega, cell = interval_region([-0.1], [0.1], lat1), interval_region([-0.5], [0.5], lat1)
    strip = interval_region([-0.2, -0.5], [0.2, 0.5], lat2)
    far = interval_region([0.2, -0.1], [1.8, 0.1], lat2)
    none1, none2 = Region(np.zeros((0, 2, 1)), lat1), Region(np.zeros((0, 2, 2)), lat2)
    zero1, zero2 = zero_potential(lat1), zero_potential(lat2)
    cos2 = cosine_potential(lat2, (1, 0), 0.1)
    cases = [(1.0, k1, omega, zero1, 0), (0.5, k2, strip, zero2, 0), (1.0, k1, none1, zero1, 0),
             (0.5, k2, none2, zero2, 0), (1.0, missed, omega, zero1, 0), (1.0, k1, cell, zero1, 0),
             (1.0, k1, omega, vpot, 0), (1.0, k1, none1, vpot, 0), (1.0, k1, cell, vpot, 0),
             (1.0, turning, omega, vpot, 4), (0.5, k2, strip, cos2, 18), (0.5, k2, far, zero2, 18),
             (1e5, k1, omega, vpot, 6), (0.5, k2, none2, cos2, 16)]
    for horizon, k_set, region, potential, samples in cases:
        calls.clear()
        est = gc_constant(horizon, k_set, region, potential, n_time=20, per_axis=2, n_quasi=2)
        assert len(calls) == 1 and est.n_samples == samples
        assert est.lower <= est.value and est.satisfied == (est.lower > 0.0)
    # the closed forms: an omega no orbit meets, or a 1-D cell that omega covers
    for horizon, k_set, region, potential, _ in cases[2:6] + cases[7:9]:
        est = gc_constant(horizon, k_set, region, potential)
        assert est.lower == est.value == (horizon if region is cell else 0.0)


HEXAGONAL = LatticeSpec(np.array(LATTICES["hexagonal"]))
SKEW_2D = LatticeSpec(np.array([[1.0, 0.0], [0.3, 0.9]]))
# a box straddling the cell face t_1 = 1/2, two overlapping boxes, and a strip
# that tiles a_1
FREE_REGIONS = ([[[0.35, -0.2], [0.65, 0.1]]],
                [[[-0.2, -0.2], [0.1, 0.1]], [[0.0, -0.1], [0.25, 0.3]]],
                [[[-0.5, -0.1], [0.5, 0.1]]])


def point_boxes(q, p) -> PhaseBoxSet:
    """One closed point box of K per start."""
    return PhaseBoxSet(np.stack([q, q], axis=1), np.stack([p, p], axis=1))


@pytest.mark.parametrize("lat", [HEXAGONAL, SKEW_2D], ids=["hexagonal", "skew"])
def test_free_occupation_matches_midpoint_sampling(lat):
    # a point box of K at V = 0 brackets its start's occupation exactly, against
    # midpoint sampling of q + t p through Region.contains at h = 3e-6; starts
    # with a zero momentum component lie on no face of a translate
    q = np.array([[0.05, 0.02], [-0.3137, 0.27], [0.41, -0.1317], [0.2, -0.05], [-0.11, 0.33]])
    p = np.array([[1.3, 0.7], [0.0, -1.6], [-1.2, 0.0], [0.9, -2.1], [-0.4, 1.9]])
    for boxes in FREE_REGIONS:
        region = Region(np.array(boxes), lat)
        want = free_occupation(q, p, 0.6, region, dt=3e-6)
        assert want.min() < 0.6 and want.max() > 0.0
        for q0, p0, occupation in zip(q, p, want):
            est = gc_constant(0.6, point_boxes(q0[None], p0[None]), region, zero_potential(lat))
            assert est.n_samples == 0 and est.value == est.lower
            assert abs(est.value - occupation) <= 2e-5
        # several K boxes: the least of their starts
        est = gc_constant(0.6, point_boxes(q, p), region, zero_potential(lat))
        assert abs(est.value - want.min()) <= 2e-5


def test_free_route_follows_the_half_open_boxes(lat2):
    # orbits gliding along a face of omega: Region.contains counts lo <= y < hi,
    # so the orbit on y = lo stays in the strip and the one on y = hi never enters
    strip = Region(np.array([[[-0.5, -0.1], [0.5, 0.1]]]), lat2)
    q = np.array([[0.2, -0.1], [0.2, 0.1]])
    p = np.array([[1.3, 0.0], [1.3, 0.0]])
    assert free_occupation(q, p, 0.5, strip, dt=1e-3) == pytest.approx([0.5, 0.0], abs=1e-12)
    for q0, p0, want in zip(q, p, (0.5, 0.0)):
        est = gc_constant(0.5, point_boxes(q0[None], p0[None]), strip, zero_potential(lat2))
        assert est.value == est.lower == want


def test_free_sub_box_lower_bounds_hold_at_every_start():
    # the free route's lower bound over a random sub-box of starts, against the
    # exact occupation of its 16 corners and 200 random starts in it
    region = Region(np.array(FREE_REGIONS[0] + FREE_REGIONS[2]), HEXAGONAL)
    k_set = PhaseBoxSet(np.array([[[-0.5, -0.5], [0.5, 0.5]]]),
                        np.array([[[-2.0, -2.0], [2.0, 2.0]]]))
    occupation = classical_dynamics._FreeOccupation(
        0.5, *classical_dynamics._free_translates(0.5, k_set, region))
    corners = classical_dynamics._unit_corners(4)
    rng = np.random.default_rng(2)
    positive = 0
    for _ in range(100):
        lo = rng.uniform([-0.5, -0.5, -2.0, -2.0], [0.4, 0.4, 1.8, 1.8])
        hi = lo + rng.uniform(0.0, [0.1, 0.1, 0.2, 0.2])
        starts = np.concatenate([np.where(corners == 1, hi, lo), rng.uniform(lo, hi, (200, 4))])
        exact = occupation.lower(np.stack([starts[:, :2], starts[:, :2], starts[:, 2:],
                                           starts[:, 2:]], axis=1))
        lower = occupation.lower(np.stack([lo[:2], hi[:2], lo[2:], hi[2:]])[None])[0]
        assert lower <= exact.min() + 1e-12
        positive += lower > 0.0
    assert positive >= 50


def test_gc_free_bracket_on_the_cell_workload():
    # the cell-2d scenario: omega's translates are the strips |y - n sqrt(3)/2| < 0.1;
    # the start y0 = 0.1, p_y = (sqrt(3) - 0.2) / T crosses one full strip and
    # reaches the next at t = T, for 0.2 / p_y
    k_set = PhaseBoxSet(np.array([[[-0.3, -0.3], [0.3, 0.3]]]),
                        np.array([[[0.0, 1.0], [0.5, 2.0]]]))
    omega = Region(np.array(FREE_REGIONS[2]), HEXAGONAL)
    est = gc_constant(0.8, k_set, omega, zero_potential(HEXAGONAL))
    assert est.n_samples == 0 and est.satisfied
    assert 0.0 < est.lower <= 0.16 / (np.sqrt(3) - 0.2) <= est.value <= est.lower + 1e-3
    occupation = classical_dynamics._FreeOccupation(
        0.8, *classical_dynamics._free_translates(0.8, k_set, omega))
    rng = np.random.default_rng(0)
    q = rng.uniform(-0.3, 0.3, (20000, 2))
    p = rng.uniform([0.0, 1.0], [0.5, 2.0], (20000, 2))
    assert occupation.lower(np.stack([q, q, p, p], axis=1)).min() >= est.lower


def test_free_bracket_stays_valid_when_refinement_stops(monkeypatch):
    # past _GC_MAX_CHUNKS chunks' worth of sub-boxes the free route reports the
    # wider bracket it has, which still holds the cell workload's constant
    monkeypatch.setattr(classical_dynamics, "_GC_CHUNK", 1024)
    monkeypatch.setattr(classical_dynamics, "_GC_MAX_CHUNKS", 1)
    k_set = PhaseBoxSet(np.array([[[-0.3, -0.3], [0.3, 0.3]]]),
                        np.array([[[0.0, 1.0], [0.5, 2.0]]]))
    est = gc_constant(0.8, k_set, Region(np.array(FREE_REGIONS[2]), HEXAGONAL),
                      zero_potential(HEXAGONAL))
    assert est.n_samples == 0
    assert est.lower <= 0.16 / (np.sqrt(3) - 0.2) <= est.value
    assert est.value - est.lower > 1e-3


def test_free_route_in_three_dimensions_runs_no_orbit(monkeypatch):
    # the flow route's default first level would be 32^6 centres; the free
    # route reads no flow setting.  The slab |z| < 0.1 tiles x and y, so the
    # constant is that of the motion along z alone, which the 1-D case brackets.
    def refuse(*args, **kwargs):
        raise AssertionError("the flow route ran")

    monkeypatch.setattr(classical_dynamics, "_FlowOccupation", refuse)
    lat3 = cubic_lattice(3)
    k_set = PhaseBoxSet(np.array([[[-0.2, -0.2, -0.2], [0.2, 0.2, 0.2]]]),
                        np.array([[[0.0, -0.3, 1.0], [0.3, 0.0, 2.0]]]))
    slab = Region(np.array([[[-0.5, -0.5, -0.1], [0.5, 0.5, 0.1]]]), lat3)
    est = gc_constant(1.0, k_set, slab, zero_potential(lat3))
    lat1 = cubic_lattice(1)
    line = gc_constant(1.0, single_box([-0.2], [0.2], [1.0], [2.0]),
                       interval_region([-0.1], [0.1], lat1), zero_potential(lat1))
    assert est.n_samples == 0 and 0.0 < est.lower and est.value - est.lower <= 1e-3
    assert max(est.lower, line.lower) <= min(est.value, line.value)


def test_indicator_invariant_under_lattice_shift(lat1, vpot):
    # the observability integrand is unchanged when the start shifts by a cell
    omega = interval_region([-0.1], [0.1], lat1)
    x = np.array([[0.3], [1.3]])
    xi = np.array([[1.1], [1.1]])
    h = 1.0 / 400
    inside = np.zeros(2)
    xx, vv = x.copy(), xi.copy()
    for _ in range(400):
        out = flow(xx, vv, h, vpot, dt=h)
        xx, vv = out.x, out.xi
        inside += omega.contains(reduce_to_cell(xx, lat1))
    assert inside[0] == inside[1]


def test_lipschitz_bounds(lat1, vpot):
    lb = vpot.lipschitz_gradient()
    assert lb.analytic == pytest.approx(0.1 * (2 * np.pi) ** 2, rel=1e-12)
    # the Hessian peak sits on the 512-point grid, which the Bernstein factor inflates
    assert lb.grid == pytest.approx(lb.analytic / (1 - np.pi / 512), rel=1e-12)
    assert lb.value <= lb.analytic
    assert zero_potential(lat1).lipschitz_gradient().value == 0.0


@pytest.mark.parametrize("n", [8, 16, 32])
def test_lipschitz_grid_bound_holds_between_grid_points(lat1, n):
    # the phase pi n / 512 puts every Hessian peak of cos(2 pi n x + phase) halfway
    # between two points of the 512-point grid, where the sampled maximum is
    # cos(pi n / 512) of the true one (2 pi n)^2
    lb = TrigPotential(lat1, [((n,), 1.0, np.pi * n / 512)]).lipschitz_gradient()
    assert lb.grid >= (2 * np.pi * n) ** 2
    assert lb.value == pytest.approx((2 * np.pi * n) ** 2, rel=1e-12)


def test_lipschitz_hessian_grid_is_bounded_in_three_dimensions(monkeypatch):
    # 512^3 positions and Hessians would not fit in memory; the size is checked
    # before the grid is built
    def bounded(lat, n):
        assert n ** lat.dimension <= 512 ** 2, f"{n}^{lat.dimension} Hessian grid points"
        return position_grid(lat, n)

    monkeypatch.setattr(classical_dynamics, "position_grid", bounded)
    c = 0.1
    lb = TrigPotential(cubic_lattice(3), [((1, 0, 0), c, 0.0),
                                          ((0, 1, 0), c, 0.0)]).lipschitz_gradient()
    # the Hessian diag(c (2 pi)^2 cos, c (2 pi)^2 cos, 0) peaks at half the analytic
    # bound, on the 64-point grid, whose Bernstein factor is 1 - 3 pi / 64
    assert lb.analytic == pytest.approx(2 * c * (2 * np.pi) ** 2, rel=1e-12)
    assert lb.grid == pytest.approx(c * (2 * np.pi) ** 2 / (1 - 3 * np.pi / 64), rel=1e-12)
    assert lb.value == lb.grid <= lb.analytic


def test_lipschitz_without_a_grid_bound_is_analytic(lat1):
    # at bandwidth 200 > 512 / pi the Bernstein factor is negative: no grid bound
    lb = TrigPotential(lat1, [((200,), 1.0, 0.3)]).lipschitz_gradient()
    assert lb.grid == np.inf
    assert lb.value == lb.analytic == pytest.approx((400 * np.pi) ** 2, rel=1e-12)
