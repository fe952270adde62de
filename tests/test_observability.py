import numpy as np
import pytest

from blochlab import (Discretization, KGrid, LatticeSpec, ObservabilityScenario, Region,
                      constant_pure, coupling_energy_husimi, gamma_bounds, hbar_threshold,
                      initial_state, toeplitz_quantize, verify_theorem)
from blochlab import bloch, quantum_dynamics
from blochlab.bloch import grid_weight, position_grid
from blochlab.lattice import reduce_to_cell
from blochlab.observability import K_ALIAS_TOL, PRUNE_TOL, _lattice_gauss_sum, initial_density, \
    k_alias_bound, k_grid_size, minimize_toeplitz_penalty, observed_time_integral
from blochlab.quantization import FiberedDensity
from blochlab.quantum_dynamics import FiberHamiltonian, propagate_batch

from conftest import LATTICES, is_11_smooth

from oracles import coeffs_to_values_rolled, coherent_family, cosine_potential, interval_region, \
    k_alias_moves, single_box, zero_potential


def _toeplitz_oracle(geom, horizon, lip, n=100_000):
    lam = np.exp(np.linspace(-8, 8, n + 1))
    a = 2 * geom.gamma_plus / geom.gamma_minus
    with np.errstate(over="ignore"):
        vals = (np.expm1(a * (lam + lip ** 2 / lam) * horizon)
                / (lam ** 2 + lip ** 2) * np.sqrt((1 + lam ** 2) / 2))
    return float(np.sqrt(geom.gamma_minus / (2 * geom.gamma_plus)) * np.min(vals))


@pytest.mark.parametrize("horizon,lip", [(1.0, 0.0), (0.5, 0.0), (1.0, 3.95),
                                         (0.1, 0.0), (0.25, 1.0)])
def test_constant_toeplitz_matches_scan_oracle(geom1, horizon, lip):
    got = minimize_toeplitz_penalty(geom1, horizon, lip)[0]
    ref = _toeplitz_oracle(geom1, horizon, lip)
    assert got == pytest.approx(ref, rel=1e-6)
    assert got <= ref + 1e-12        # refinement can only improve on the scan


def test_constant_toeplitz_monotone_in_horizon(geom1):
    assert (minimize_toeplitz_penalty(geom1, 1.0, 0.5)[0]
            > minimize_toeplitz_penalty(geom1, 0.5, 0.5)[0])


def test_constant_toeplitz_rejects_bad_horizon(geom1):
    with pytest.raises(ValueError):
        minimize_toeplitz_penalty(geom1, 0.0, 1.0)


def test_constant_pure_closed_form(geom1, geom2):
    got = constant_pure(geom1, 0.1, 0.0)
    assert got == pytest.approx((np.exp(0.2) - 1) / np.sqrt(2), rel=1e-12)
    # explicit formula at arbitrary parameters
    for geom, horizon, lip in ((geom1, 0.7, 1.3), (geom2, 0.4, 0.6)):
        a = 2 * geom.gamma_plus / geom.gamma_minus
        ref = (np.sqrt(geom.gamma_minus / (2 * geom.gamma_plus))
               * (np.exp(a * (1 + lip ** 2) * horizon) - 1) / (1 + lip ** 2))
        assert constant_pure(geom, horizon, lip) == pytest.approx(ref, rel=1e-12)
    assert constant_pure(geom1, 1e-9, 0.3) == pytest.approx(0.0, abs=1e-8)


def test_constant_pure_prefactor_scaling(geom1):
    # doubling (1 + L^2) at fixed exponent halves the constant
    a = 2 * geom1.gamma_plus / geom1.gamma_minus
    lip = 1.0                                # 1 + L^2 = 2
    horizon = 0.3
    c2 = constant_pure(geom1, horizon, lip)
    c1 = constant_pure(geom1, 2 * horizon, 0.0)   # same exponent, half the denominator
    assert c2 == pytest.approx(c1 / 2, rel=1e-12)


def test_hbar_threshold_arithmetic():
    assert hbar_threshold(0.1, 1.0, 0.05, 1) == pytest.approx(2.5e-5, rel=1e-15)
    base = hbar_threshold(0.2, 1.7, 0.03, 2)
    assert hbar_threshold(0.2, 1.7, 0.06, 2) == pytest.approx(4 * base, rel=1e-15)
    assert hbar_threshold(0.0, 1.0, 0.05, 1) == 0.0
    with pytest.raises(ValueError):
        hbar_threshold(0.1, 0.0, 0.05, 1)


def test_c_bold_values(lat1):
    kg = KGrid.monkhorst_pack(lat1, 8)
    rho = coherent_family(lat1, kg, 48, 0.05, [0.1], [0.3])
    c_bold = coupling_energy_husimi(rho).c_bold
    assert c_bold == pytest.approx(1.0, abs=1e-4)      # norms fluctuate O(e^{-c/h})
    scaled = FiberedDensity(kg, lat1, 48, 0.05, rho.lambdas, 2.0 * rho.vectors)
    assert coupling_energy_husimi(scaled).c_bold == pytest.approx(16.0 * c_bold, rel=1e-12)
    # normalized fibers give exactly one
    vecs = rho.vectors / np.sqrt(np.sum(np.abs(rho.vectors) ** 2, axis=2))[:, :, None]
    unit = FiberedDensity(kg, lat1, 48, 0.05, rho.lambdas, vecs)
    assert coupling_energy_husimi(unit).c_bold == pytest.approx(1.0, abs=1e-14)


def test_c_bold_toeplitz_point_mass_quadrature(lat1):
    hbar, m = 0.05, 48
    kg = KGrid.monkhorst_pack(lat1, 16)
    rho = coherent_family(lat1, kg, m, hbar, [0.2], [0.5])
    norms4 = np.array([np.sum(np.abs(rho.vectors[i, 0]) ** 2) ** 2
                       for i in range(kg.size)])
    assert coupling_energy_husimi(rho).c_bold == pytest.approx(float(np.mean(norms4)), abs=1e-8)


def test_std_dev_constant_fibers(lat1):
    # constant fibers: no momentum spread; position part is the cell moment
    # 1/24 in one dimension, exactly at every order m
    kg = KGrid.monkhorst_pack(lat1, 4)
    for m in (32, 64, 128):
        n_g = 2 * m + 1
        vecs = np.zeros((4, 1, n_g), dtype=complex)
        vecs[:, 0, m] = 1.0
        rho = FiberedDensity(kg, lat1, m, 0.05, np.ones((4, 1)), vecs)
        assert abs(coupling_energy_husimi(rho).std_dev ** 2 - 1.0 / 24.0) < 1e-14


def test_std_dev_packet_scaling(lat1):
    kg = KGrid.monkhorst_pack(lat1, 8)
    ratios = []
    for hbar in (0.04, 0.02, 0.01):
        m = max(48, int(np.ceil(4 / np.sqrt(hbar))) + 8)
        rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.3])
        ratios.append(coupling_energy_husimi(rho).std_dev ** 2 / hbar)
    assert max(ratios) / min(ratios) < 1.15


def test_std_dev_two_quadrature_routes(lat1):
    # spectral moments vs position-space gradient quadrature
    hbar, m = 0.02, 56
    kg = KGrid.monkhorst_pack(lat1, 4)
    rho = coherent_family(lat1, kg, m, hbar, [0.1], [0.4])
    spectral = coupling_energy_husimi(rho).std_dev ** 2

    n = 4 * m + 1
    pts = position_grid(lat1, n)
    w = grid_weight(lat1, n)
    diff = reduce_to_cell((pts[:, None, :] - pts[None, :, :]).reshape(-1, 1), lat1)
    dist2 = (diff ** 2).reshape(n, n)
    total = 0.0
    for i in range(kg.size):
        psi = rho.vectors[i, 0].reshape(2 * m + 1)
        vals = coeffs_to_values_rolled(psi, lat1, n)
        dens = np.abs(vals) ** 2
        pos = 0.5 * float(dens @ dist2 @ dens) * w * w
        # gradient by spectral differentiation evaluated in position space
        g = np.arange(-m, m + 1) * 2 * np.pi
        dvals = coeffs_to_values_rolled(1j * g * psi, lat1, n)
        norm_sq = float(np.sum(dens) * w)
        grad_sq = hbar ** 2 * float(np.sum(np.abs(dvals) ** 2) * w)
        mean_p = hbar * float(np.sum(np.conj(vals) * -1j * dvals).real * w)
        total += pos + norm_sq * grad_sq - mean_p ** 2
    direct = total / kg.size
    assert direct == pytest.approx(spectral, abs=1e-7)


def test_chi_sandwich_and_lipschitz(lat1, rng):
    delta = 0.07
    region = interval_region([-0.1], [0.1], lat1)

    def chi(points):
        # the Lipschitz cutoff between the region and its dilation that the
        # dilated observation dominates
        return np.clip(1.0 - region.distance(points) / delta, 0.0, None)

    pts = rng.uniform(-0.5, 0.5, (4000, 1))
    vals = chi(pts)
    inside = region.contains(pts)
    dilated = region.contains_dilated(pts, delta)
    assert np.all(vals[inside] == 1.0)
    assert np.all(vals <= dilated + 1e-15)           # chi <= indicator of dilation
    assert np.all(vals >= inside - 1e-15)
    # Lipschitz constant 1/delta by finite differences away from the kinks
    x = np.linspace(-0.4, 0.4, 2001).reshape(-1, 1)
    v = chi(x)
    slopes = np.abs(np.diff(v)) / (x[1, 0] - x[0, 0])
    assert slopes.max() <= 1.0 / delta * (1 + 1e-6)
    interior = (np.abs(np.abs(x[:-1, 0]) - 0.1) > 0.005) \
        & (np.abs(np.abs(x[:-1, 0]) - 0.1 - delta) > 0.005) \
        & (np.abs(x[:-1, 0]) > 0.1) & (np.abs(x[:-1, 0]) < 0.1 + delta - 0.005)
    assert slopes[interior].max() == pytest.approx(1.0 / delta, rel=1e-6)


def base_scenario(lat1, geom1, kind="toeplitz", hbar=1e-3, n_obs=40):
    return ObservabilityScenario(
        lat=lat1, geom=geom1, potential=zero_potential(lat1), hbar=hbar,
        horizon=1.0, delta=0.05, omega=interval_region([-0.1], [0.1], lat1),
        k_set=single_box([-0.5], [0.5], [1.0], [2.0]),
        disc=Discretization(m=384, n_k=16, n_q=10, n_p=14, n_time_obs=n_obs,
                            n_time_gc=600, gc_per_axis=12, gc_quasi=100, dt=1e-3),
        initial_kind=kind, center_q=np.array([0.0]), center_p=np.array([1.5]),
        sigma_q=0.1, sigma_p=0.15)


def test_toeplitz_report_structure(lat1, geom1):
    rep = verify_theorem(base_scenario(lat1, geom1))
    assert rep.passed and rep.rows["margin"] >= 0
    assert rep.rows["lhs"] >= 0 and rep.rows["penalty"] > 0 and rep.rows["C_GC"] > 0
    assert rep.rows["mass_on_K"] == pytest.approx(1.0, abs=1e-9)     # datum supported in K
    # penalty assembly: the report factors reproduce constant * sqrt(d hbar)/delta
    assembled = rep.rows["gronwall_factor"] * rep.rows["energy_bound"]
    assert assembled == pytest.approx(rep.rows["penalty"], rel=1e-6)
    assert rep.rows["hbar"] >= rep.rows["hbar_threshold"]
    assert rep.rows["lhs_quad_error"] < 5e-3 * rep.rows["lhs"]
    assert rep.rows["rank_evolved"] <= rep.rows["rank"] and rep.rows["rank_tail"] <= 1e-10


def _hexagonal_pure_scenario():
    lat = LatticeSpec(LATTICES["hexagonal"])
    return ObservabilityScenario(
        lat=lat, geom=gamma_bounds(lat), potential=zero_potential(lat), hbar=0.03,
        horizon=0.5, delta=0.05, omega=interval_region([-0.1, -0.1], [0.1, 0.1], lat),
        k_set=single_box([-0.5, -0.5], [0.5, 0.5], [0.0, -0.5], [1.0, 0.5]),
        disc=Discretization(m=24, n_k=2, n_q=6, n_p=6, n_time_obs=4, n_time_gc=50,
                            gc_per_axis=4, gc_quasi=10, dt=1e-3),
        initial_kind="pure", center_q=np.array([0.1, -0.05]), center_p=np.array([0.4, 0.2]))


def test_initial_state_quantizes_the_toeplitz_bump(lat1, geom1):
    scn = base_scenario(lat1, geom1)
    f, rho = initial_state(scn)
    bump = initial_density(scn)
    for got, want in zip((f.nodes_q, f.nodes_p, f.weights, f.values),
                         (bump.nodes_q, bump.nodes_p, bump.weights, bump.values)):
        np.testing.assert_array_equal(got, want)
    # at V = 0 and hbar = 1e-3 the 2-point grid meets the alias tolerance; n_k = 16 is the cap
    assert k_grid_size(scn)[0] == 2
    want = toeplitz_quantize(bump, lat1, KGrid.monkhorst_pack(lat1, 2), 384, 1e-3)
    np.testing.assert_array_equal(rho.kgrid.points, want.kgrid.points)
    np.testing.assert_array_equal(rho.lambdas, want.lambdas)
    np.testing.assert_array_equal(rho.vectors, want.vectors)
    assert rho.rank == f.size > 1


@pytest.mark.parametrize("lattice", ["line", "hexagonal"])
def test_initial_state_of_pure_data_is_the_quantized_point_mass(lat1, geom1, lattice):
    # the coherent family is the Toeplitz quantization of a unit point mass at
    # (center_q, center_p): one packet per fiber, at center_p - hbar k, weight 1
    scn = base_scenario(lat1, geom1, kind="pure") if lattice == "line" \
        else _hexagonal_pure_scenario()
    f, rho = initial_state(scn)
    np.testing.assert_array_equal(f.nodes_q, scn.center_q[None])
    np.testing.assert_array_equal(f.nodes_p, scn.center_p[None])
    np.testing.assert_array_equal(f.weights, [1.0])
    np.testing.assert_array_equal(f.values, [1.0])
    # the grid that initial_state chose: 2 of n_k = 16 on the line, n_k = 2 on the cell
    assert k_grid_size(scn)[0] == 2
    want = coherent_family(scn.lat, KGrid.monkhorst_pack(scn.lat, 2), scn.disc.m,
                           scn.hbar, scn.center_q, scn.center_p)
    np.testing.assert_array_equal(rho.kgrid.points, want.kgrid.points)
    np.testing.assert_array_equal(rho.lambdas, want.lambdas)
    np.testing.assert_array_equal(rho.window_vectors(), want.vectors)
    assert rho.rank == 1 and rho.kgrid.size > 1


def _potential_scenario(lat1, geom1):
    scn = base_scenario(lat1, geom1, hbar=0.01, n_obs=20)
    scn.potential = cosine_potential(lat1, (1,), 0.1)
    scn.disc = Discretization(m=64, n_k=4, n_q=10, n_p=14, n_time_obs=20, n_time_gc=200,
                              gc_per_axis=8, gc_quasi=40, dt=1e-3)
    return scn


@pytest.mark.parametrize("case, path", [("potential", "loop"), ("potential", "band"),
                                        ("pure", "loop"), ("toeplitz", "form")])
def test_one_verify_builds_one_fiber_hamiltonian(monkeypatch, lat1, geom1, case, path):
    # V != 0 with one vector per fiber (the rule keeps both the observation and
    # evolution on the Strang loop) and with the quantized bump (the band path's
    # form, one eigendecomposition per fiber); V = 0 with one vector per fiber
    # on the hexagonal cell at hbar = 0.01 (the masked-trace loop, since the
    # packet's W = 533 coefficients exceed the form's chunk budget, whose
    # evolution moves in the plane waves without asking the rule); V = 0 with
    # the 1-D toeplitz datum at 81 samples (one Hermitian form per fiber: rank
    # 30 on W = 187 coefficients)
    built, chosen = [], []
    rule = quantum_dynamics._band_path

    class Counted(quantum_dynamics.FiberHamiltonian):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    def recorded(*args):
        chosen.append(rule(*args))
        return chosen[-1]

    monkeypatch.setattr(quantum_dynamics, "FiberHamiltonian", Counted)
    monkeypatch.setattr(quantum_dynamics, "_band_path", recorded)
    if case == "potential":
        scn = _potential_scenario(lat1, geom1)
        scn.initial_kind = "pure" if path == "loop" else "toeplitz"
    elif case == "pure":
        scn = _hexagonal_pure_scenario()
        scn.hbar, scn.disc.m = 0.01, 20
    else:
        scn = base_scenario(lat1, geom1, kind=case, n_obs=80)
    verify_theorem(scn)
    assert len(built) == 1
    if path == "loop":
        assert chosen == ([False, False] if case == "potential" else [False])
    else:
        assert chosen == [True]


def test_compression_keeps_toeplitz_lhs(lat1, geom1):
    # with a potential the quantized bump has far fewer significant eigenvectors than nodes
    scn = _potential_scenario(lat1, geom1)
    rep = verify_theorem(scn)
    assert rep.rows["rank_evolved"] < rep.rows["rank"]
    assert 0.0 < rep.rows["rank_tail"] <= PRUNE_TOL
    _, rho = initial_state(scn)
    assert rho.rank == rep.rows["rank"]
    lhs = observed_time_integral(rho, scn.omega, scn.delta, scn.potential, scn.horizon,
                                 20, scn.disc.dt)[0]
    assert rep.rows["lhs"] == pytest.approx(lhs, rel=1e-9)


@pytest.mark.parametrize("kind", ["toeplitz", "pure"])
def test_trace_drift_with_a_potential(lat1, geom1, kind):
    # pure data steps: the split step projects onto the plane-wave window, so it
    # is not exactly unitary, yet over 1000 steps a fiber trace moves at
    # round-off level only; the quantized bump moves by the band path's exact,
    # unitary propagator
    scn = base_scenario(lat1, geom1, kind=kind, hbar=0.01, n_obs=20)
    scn.potential = cosine_potential(lat1, (1,), 0.1)
    scn.disc = Discretization(m=64, n_k=4, n_q=10, n_p=14, n_time_obs=20, n_time_gc=200,
                              gc_per_axis=8, gc_quasi=40, dt=1e-3)
    assert verify_theorem(scn).rows["trace_drift"] <= 1e-12


def test_pure_report_structure(lat1, geom1):
    rep = verify_theorem(base_scenario(lat1, geom1, kind="pure"))
    assert rep.passed and rep.rows["margin"] >= 0
    assert rep.rows["mass_on_K"] == pytest.approx(1.0, abs=1e-4)
    assert rep.rows["c_bold"] == pytest.approx(1.0, abs=1e-6)
    assert rep.rows["std_dev"] ** 2 == pytest.approx(rep.rows["hbar"], rel=1e-3)
    assert (rep.rows["rank"], rep.rows["rank_evolved"], rep.rows["rank_tail"]) == (1, 1, 0.0)
    assembled = rep.rows["gronwall_factor"] * rep.rows["energy_bound"]
    assert assembled == pytest.approx(rep.rows["penalty"], rel=1e-6)


def test_full_cell_observation_equals_horizon(lat1, geom1):
    scn = base_scenario(lat1, geom1, n_obs=20)
    scn.omega = interval_region([-0.5], [0.5], lat1)
    scn.delta = 0.01
    rep = verify_theorem(scn)
    assert rep.rows["lhs"] == pytest.approx(scn.horizon, rel=1e-6)
    assert rep.rows["margin"] >= 0


def test_empty_observation_region_trivial_pass(lat1, geom1):
    # with no observation window the control estimate is zero, the right side
    # is minus the penalty, and the margin equals the penalty
    scn = base_scenario(lat1, geom1, n_obs=8)
    scn.disc.n_time_gc = 200
    scn.omega = Region(np.zeros((0, 2, 1)), lat1)
    rep = verify_theorem(scn)
    assert rep.rows["lhs"] == 0.0
    assert rep.rows["C_GC"] == 0.0
    assert rep.rows["classical_term"] == 0.0
    assert rep.rows["rhs"] == pytest.approx(-rep.rows["penalty"])
    assert rep.rows["margin"] == pytest.approx(rep.rows["penalty"])
    assert rep.passed
    assert any("geometric-control" in w for w in rep.warnings)


def test_pure_full_cell_and_short_horizon(lat1, geom1):
    scn = base_scenario(lat1, geom1, kind="pure", n_obs=16)
    scn.omega = interval_region([-0.5], [0.5], lat1)
    scn.delta = 0.01
    rep = verify_theorem(scn)
    assert rep.rows["lhs"] == pytest.approx(scn.horizon, rel=1e-6)
    assert rep.rows["margin"] >= 0
    # vanishing horizon: both sides collapse within time-quadrature error
    short = base_scenario(lat1, geom1, kind="pure", n_obs=8)
    short.horizon = 0.02
    short.disc.n_time_gc = 100
    rep = verify_theorem(short)
    assert abs(rep.rows["lhs"]) <= short.horizon * 1.01
    assert abs(rep.rows["classical_term"]) <= short.horizon * 1.01
    assert rep.rows["margin"] >= 0


def test_rhs_monotone_decreasing_in_hbar(lat1, geom1):
    rhs = []
    for hbar in (4e-3, 2e-3, 1e-3):
        scn = base_scenario(lat1, geom1, hbar=hbar, n_obs=8)
        scn.disc.n_time_gc = 300
        rep = verify_theorem(scn)
        rhs.append(rep.rows["rhs"])
    assert rhs[0] < rhs[1] < rhs[2]


def test_argmin_lambda_consistent(geom1):
    base, lam = minimize_toeplitz_penalty(geom1, 1.0, 0.0)
    a = 2 * geom1.gamma_plus / geom1.gamma_minus
    val = (np.sqrt(geom1.gamma_minus / (2 * geom1.gamma_plus))
           * np.expm1(a * lam * 1.0) / lam ** 2 * np.sqrt((1 + lam ** 2) / 2))
    assert val == pytest.approx(base, rel=1e-12)


def test_observed_time_integral_advances_in_place(lat1):
    # on return the density is the one at the horizon, in the same array, and no
    # copy of the vectors was evolved instead
    hbar, m, dt = 0.01, 64, 1e-2
    vpot = cosine_potential(lat1, (1,), 0.1)
    kg = KGrid.monkhorst_pack(lat1, 2)
    rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.4])
    vectors, fresh = rho.vectors, rho.vectors.copy()
    observed_time_integral(rho, interval_region([-0.1], [0.1], lat1), 0.05, vpot, 0.2, 2, dt)
    assert rho.vectors is vectors
    h = FiberHamiltonian(lat1, m, kg.points, vpot, hbar)
    for _ in range(2):
        propagate_batch(fresh, h, 0.1, dt)
    np.testing.assert_array_equal(rho.vectors, fresh)


def test_observation_transforms_have_11_smooth_lengths(lat1, monkeypatch):
    # at m = 384 the plane-wave grid 2m+1 = 769 is prime; observation must not
    # use it, neither in the form the rule picks for this packet (one transform,
    # of the mask) nor in the loop (one transform per sample)
    lengths = []
    lines = bloch._fft_lines

    def spy(x, d, *args):
        lengths.append(x.shape[-d:])
        return lines(x, d, *args)

    def observe():
        lengths.clear()
        rho = coherent_family(lat1, KGrid.monkhorst_pack(lat1, 2), 384, 1e-3, [0.0], [1.5])
        observed_time_integral(rho, interval_region([-0.1], [0.1], lat1), 0.05,
                               zero_potential(lat1), 0.01, 2, 1e-3)
        assert all(is_11_smooth(n) for shape in lengths for n in shape), lengths
        return len(lengths)

    monkeypatch.setattr(bloch, "_fft_lines", spy)
    assert observe() == 1
    monkeypatch.setattr(quantum_dynamics, "_band_path", lambda *args: False)
    assert observe() == 3


def _v0_scenario(lattice, hbar, horizon, m, kind, n_k):
    """A V = 0 scenario on a line or a cell of ``LATTICES``, packets or bump inside K."""
    lat = LatticeSpec(LATTICES[lattice])
    d = lat.dimension
    centre_q, centre_p = ([0.0], [1.0]) if d == 1 else ([0.1, -0.05, 0.0][:d], [0.4, 0.2, 0.1][:d])
    k_set = (single_box([-0.5], [0.5], [0.5], [1.5]) if d == 1
             else single_box([-0.5] * d, [0.5] * d, [-0.1, -0.5, -0.5][:d], [1.0, 0.5, 0.5][:d]))
    return ObservabilityScenario(
        lat=lat, geom=gamma_bounds(lat), potential=zero_potential(lat), hbar=hbar,
        horizon=horizon, delta=0.05, omega=interval_region([-0.1] * d, [0.1] * d, lat),
        k_set=k_set, disc=Discretization(m=m, n_k=n_k, n_q=6, n_p=8, n_time_obs=8, n_time_gc=20,
                                         gc_per_axis=2, gc_quasi=4, dt=1e-3),
        initial_kind=kind, center_q=np.array(centre_q), center_p=np.array(centre_p))


@pytest.mark.parametrize("lattice", ["line", "hexagonal", "skew"])
def test_lattice_gauss_sum_bounds_the_lattice_sum(lattice):
    # against the sum over every l in [-12, 12]^d: above it everywhere, and on
    # the line within its tail estimate 1 + 1/(2c) of it
    lat = LatticeSpec(LATTICES[lattice])
    d = lat.dimension
    ls = np.stack(np.meshgrid(*([np.arange(-12, 13)] * d), indexing="ij"), axis=-1).reshape(-1, d)
    ls = ls[np.any(ls != 0, axis=1)]
    for rows in (lat.basis, lat.reciprocal):
        for n in (1, 2, 5):
            for a in (0.05, 1.0, 8.0):
                brute = np.sum(np.exp(-np.sum((n * ls @ rows) ** 2, axis=1) / a))
                bound = _lattice_gauss_sum(rows, n, a)
                assert bound >= brute * (1 - 1e-12)
                if lattice == "line":
                    c = n * n * float(rows[0, 0]) ** 2 / a
                    assert bound <= brute * (1 + 1 / (2 * c)) * (1 + 1e-12)
    hexagonal = LatticeSpec(LATTICES["hexagonal"])
    # hexagonal: the six shortest vectors have |L| = 1, the bound reads |L|^2 >= |l|^2 / 2,
    # so it is the four l = (+-1, 0), (0, +-1) at exp(-50), with the tail factor 1 + 1/100
    assert _lattice_gauss_sum(hexagonal.basis, 1, 0.01) == pytest.approx(
        4.04 * np.exp(-50.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lattice", ["line", "hexagonal", "skew"])
def test_k_grid_is_the_coarsest_that_meets_the_tolerance(lattice):
    # n_k_used <= n_k always; at V = 0 it is the least n in [2, n_k] whose bound
    # meets the tolerance, or n_k when none does; the bound falls as n grows
    for hbar in (1e-4, 1e-3, 0.03, 0.3, 1.0):
        for horizon in (0.1, 1.0, 30.0, 1e200):
            for kind in ("toeplitz", "pure"):
                for n_k in (2, 3, 8, 10 ** 6):
                    scn = _v0_scenario(lattice, hbar, horizon, 24, kind, n_k)
                    used, bound = k_grid_size(scn)
                    assert 2 <= used <= n_k and bound == k_alias_bound(scn, used)
                    if bound <= K_ALIAS_TOL:
                        assert used == 2 or k_alias_bound(scn, used - 1) > K_ALIAS_TOL
                    else:
                        assert used == n_k
                    bounds = [k_alias_bound(scn, n) for n in (2, 3, 5, 9, 17)]
                    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    # a long horizon spreads the packets over many cells: no grid meets the tolerance
    assert k_grid_size(_v0_scenario(lattice, 0.01, 1e200, 24, "toeplitz", 8)) == (8, np.inf)


def test_k_grid_at_v_nonzero_is_the_configured_one(lat1, geom1):
    # the potential-1d and hexagonal-cosine data keep every configured fiber, bit for bit
    hexagonal = _hexagonal_pure_scenario()
    hexagonal.potential = cosine_potential(hexagonal.lat, (1, 0), 0.1)
    for scn in (_potential_scenario(lat1, geom1), hexagonal):
        for kind in ("toeplitz", "pure"):
            scn.initial_kind = kind
            used, bound = k_grid_size(scn)
            assert used == scn.disc.n_k and np.isnan(bound)
            f, rho = initial_state(scn)
            want = toeplitz_quantize(f, scn.lat, KGrid.monkhorst_pack(scn.lat, scn.disc.n_k),
                                     scn.disc.m, scn.hbar)
            np.testing.assert_array_equal(rho.kgrid.points, want.kgrid.points)
            np.testing.assert_array_equal(rho.vectors, want.vectors)
    rows = verify_theorem(_potential_scenario(lat1, geom1)).rows
    assert rows["n_k_used"] == 4 and np.isnan(rows["k_alias_bound"])


@pytest.mark.parametrize("lattice, hbar, horizon, m", [("line", 0.05, 0.5, 24),
                                                        ("hexagonal", 0.06, 0.3, 20)])
@pytest.mark.parametrize("kind", ["toeplitz", "pure"])
@pytest.mark.parametrize("n", [2, 3])
def test_k_alias_bound_covers_the_move_to_the_doubled_grid(lattice, hbar, horizon, m, kind, n):
    # wide packets, so that the aliased overlaps show: every output moves by at
    # most the bound between n' and 2n', and some move is far above rounding
    scn = _v0_scenario(lattice, hbar, horizon, m, kind, n)
    bound, moves, allowance = k_alias_moves(scn)
    assert k_grid_size(_v0_scenario(lattice, hbar, horizon, m, kind, n))[0] == n
    assert all(moves[k] <= bound + allowance[k] for k in moves), (bound, moves)
    if n == 2:
        assert max(moves.values()) > 1e-10
