import tracemalloc

import numpy as np
import pytest

from blochlab import (CostParams, KGrid, LatticeSpec, PhaseSpaceDensity, Region, TrigPotential,
                      coupling_energy_husimi, coupling_energy_toeplitz,
                      evolution, gamma_bounds, gronwall_rate, observed_time_integral,
                      stability_envelope, toeplitz_quantize)
from blochlab.bloch import grid_weight, position_grid, quadrature_len, window_box
from blochlab.lattice import reduce_to_cell, theta
from blochlab import quantization, quantum_dynamics, transport_metric
from blochlab.quantization import FiberedDensity
from blochlab.quantum_dynamics import FiberHamiltonian, propagate_batch
from blochlab.states import coherent_coeff_batch
from blochlab.transport_metric import _density_coeffs, diagonal_coupling_parts, pair_moment
from scipy.integrate import quad

from conftest import LATTICES, random_density
from oracles import (CoherentParams, coeffs_to_values_rolled, coherent_family, coherent_state,
                     cosine_potential, coupling_energy_husimi_grid, diagonal_coupling_dense,
                     exact_evolution, exact_observation_series, galerkin_propagators,
                     pair_moment_grid, recomputed_stability_energies, scaled_density,
                     values_to_coeffs_rolled, zero_potential)


def bump_density(lat, nq=16, np_=24, p_max=1.0, p0=0.3):
    def fn(q, p):
        return np.exp(-np.sum(q ** 2, axis=-1) / (2 * 0.1 ** 2)
                      - np.sum((p - p0) ** 2, axis=-1) / (2 * 0.15 ** 2))
    return PhaseSpaceDensity.from_function(fn, lat, nq, np_, p_max)


def test_cost_expectation_whole_space_identity(lat1, geom1):
    # k-averaged packet expectation of the |P|^2-cost equals the whole-space
    # Gaussian moment expression, itself below (1 + lam^2) d hbar / 2
    hbar, m, nk, lam = 0.02, 48, 8, 1.3
    kg = KGrid.monkhorst_pack(lat1, nk)
    x = np.array([0.1])
    xi = np.array([0.4])
    n = 2 * m + 1
    grid = position_grid(lat1, n)
    w = grid_weight(lat1, n)
    total = 0.0
    for i in range(nk):
        c = coherent_coeff_batch(x[None, :], (xi - hbar * kg.points[i])[None, :],
                                 hbar, lat1, m)[0]
        vals2 = np.abs(coeffs_to_values_rolled(c, lat1)) ** 2
        red = reduce_to_cell(x[None, :] - grid, lat1)
        pos = lam ** 2 * float(np.sum(np.sum(red ** 2, axis=-1) * vals2.reshape(-1))) * w
        g = (np.arange(-m, m + 1) * 2 * np.pi)
        mom = float(np.sum((xi[0] - hbar * kg.points[i][0] - hbar * g) ** 2 * np.abs(c) ** 2))
        total += pos + mom
    total /= nk

    # whole-space side, by quadrature against the packet envelope
    def integrand(y):
        amp2 = np.abs(coherent_state(CoherentParams(x, xi, hbar), np.array([y]))) ** 2
        redy = reduce_to_cell(np.array([x[0] - y]), lat1)[0]
        return amp2 * (hbar + lam ** 2 * redy ** 2 - (y - x[0]) ** 2)

    ref = quad(integrand, x[0] - 10 * np.sqrt(hbar), x[0] + 10 * np.sqrt(hbar),
               limit=400)[0]
    assert total == pytest.approx(ref, abs=1e-8)
    assert ref <= (1 + lam ** 2) * hbar / 2 + 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_toeplitz_coupling_bound_1d(lat1, geom1, lam):
    hbar, m = 0.01, 64
    kg = KGrid.monkhorst_pack(lat1, 8)
    f = bump_density(lat1)
    ce = coupling_energy_toeplitz(f, toeplitz_quantize(f, lat1, kg, m, hbar),
                                  CostParams(lam, geom1))
    assert ce.total <= ce.bound * (1 + 1e-6)
    assert ce.bound == pytest.approx((1 + lam ** 2) * hbar / 2)
    assert np.all(ce.per_fiber >= -1e-10)
    assert ce.total == pytest.approx(np.mean(ce.per_fiber), rel=1e-10)


@pytest.mark.parametrize("basis, m, nq, np_", [
    ([[1.0]], 48, 10, 12),
    ([[1.0, 0.0], [0.5, np.sqrt(3) / 2]], 10, 4, 5),
    ([[1.0, 0, 0], [0.3, 1.0, 0], [0.2, 0.5, 0.8]], 4, 2, 3)])
def test_diagonal_coupling_matches_dense_symbol_loop(basis, m, nq, np_):
    # oracle: packets rebuilt per fiber and node chunk, momentum part summed
    # against the dense symbol |xi - hbar G|^2 instead of the moments N, P, Q
    lat = LatticeSpec(basis)
    d = lat.dimension
    hbar = 0.05
    p0 = np.linspace(0.3, 0.6, d)

    def fn(q, p):
        return np.exp(-np.sum(q ** 2, axis=-1) / (2 * 0.2 ** 2)
                      - np.sum((p - p0) ** 2, axis=-1) / (2 * 0.3 ** 2))

    f = PhaseSpaceDensity.from_function(fn, lat, nq, np_, 1.0)
    cost = CostParams(1.3, gamma_bounds(lat))
    kg = KGrid.monkhorst_pack(lat, 2)
    ce = coupling_energy_toeplitz(f, toeplitz_quantize(f, lat, kg, m, hbar), cost)
    pos, mom = diagonal_coupling_dense(f, cost, hbar, lat, kg, m, chunk=7)
    np.testing.assert_allclose(ce.position_per_fiber, pos, rtol=1e-11, atol=0)
    np.testing.assert_allclose(ce.momentum_per_fiber, mom, rtol=1e-11, atol=0)


def test_toeplitz_coupling_monotone_in_lambda(lat1, geom1):
    hbar, m = 0.02, 48
    kg = KGrid.monkhorst_pack(lat1, 8)
    f = bump_density(lat1)
    rho = toeplitz_quantize(f, lat1, kg, m, hbar)
    totals = [coupling_energy_toeplitz(f, rho, CostParams(lam, geom1)).total
              for lam in (0.5, 1.0, 2.0)]
    assert totals[0] < totals[1] < totals[2]


def test_toeplitz_coupling_hbar_scaling(lat1, geom1):
    kg = KGrid.monkhorst_pack(lat1, 8)
    f = bump_density(lat1)
    ratios = []
    for hbar in (0.04, 0.02, 0.01):
        m = max(48, int(np.ceil(4 / np.sqrt(hbar))))
        ce = coupling_energy_toeplitz(f, toeplitz_quantize(f, lat1, kg, m, hbar),
                                      CostParams(1.0, geom1))
        ratios.append(ce.total / hbar)
    assert max(ratios) / min(ratios) < 1.10


def test_toeplitz_coupling_rejects_unnormalized(lat1, geom1):
    f = bump_density(lat1)
    bad = PhaseSpaceDensity(f.nodes_q, f.nodes_p, f.weights, 2.0 * f.values)
    # the quantization that every diagonal coupling starts from refuses it
    with pytest.raises(ValueError):
        toeplitz_quantize(bad, lat1, KGrid.monkhorst_pack(lat1, 4), 48, 0.02)


def test_marginals_of_diagonal_coupling(lat1, geom1):
    # trace marginal: k-averaged packet norm is one at every node; operator
    # marginal: integrating the coupling reproduces the quantization factors
    hbar, m, nk = 0.05, 48, 8
    kg = KGrid.monkhorst_pack(lat1, nk)
    f = bump_density(lat1, nq=8, np_=10)
    rho = toeplitz_quantize(f, lat1, kg, m, hbar)
    for j in range(0, f.size, 17):
        norms = np.array([
            np.sum(np.abs(coherent_coeff_batch(
                f.nodes_q[j][None, :], (f.nodes_p[j] - hbar * kg.points[i])[None, :],
                hbar, lat1, m)[0]) ** 2)
            for i in range(nk)])
        assert np.mean(norms) == pytest.approx(1.0, abs=1e-8)
    expected = np.array([coherent_coeff_batch(f.nodes_q, f.nodes_p - hbar * kg.points[i],
                                              hbar, lat1, m) for i in range(nk)])
    assert np.max(np.abs(rho.window_vectors() - expected)) < 1e-9
    np.testing.assert_allclose(rho.lambdas[0], f.weights * f.values, rtol=1e-12)


def test_cost_equivalence_pointwise(rng, lat2, geom2):
    xs = rng.uniform(-1, 1, (100, 2))
    red = reduce_to_cell(xs, lat2)
    r2 = np.sum(red ** 2, axis=1)
    th = theta(r2, geom2)
    lower = geom2.gamma_minus / (2 * geom2.gamma_plus) * r2
    assert np.all(th <= r2 + 1e-15)
    assert np.all(th >= lower - 1e-12)


@pytest.mark.parametrize("hbar", [0.04, 0.02])
def test_husimi_coupling_bound_and_identity(lat1, geom1, hbar):
    m = max(48, int(np.ceil(4 / np.sqrt(hbar))) + 8)
    kg = KGrid.monkhorst_pack(lat1, 8)
    rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.4])
    ce = coupling_energy_husimi(rho)
    assert ce.total <= ce.bound
    assert ce.total == pytest.approx(np.mean(ce.per_fiber), rel=1e-10)
    # the momentum piece is the quadrature of the Husimi grid oracle
    _, mom = coupling_energy_husimi_grid(rho, 64, 160, 0.4 + 9 * np.sqrt(hbar))
    assert np.max(np.abs(ce.momentum_per_fiber - mom)) < 1e-8


def test_husimi_coupling_determinism(lat1, geom1):
    hbar, m = 0.02, 56
    kg = KGrid.monkhorst_pack(lat1, 8)
    rho = coherent_family(lat1, kg, m, hbar, [0.1], [0.4])
    ce = coupling_energy_husimi(rho)
    again = coupling_energy_husimi(rho)
    np.testing.assert_allclose(again.per_fiber, ce.per_fiber, rtol=0, atol=0)


def test_husimi_coupling_scaling_and_constant_fiber(lat1, geom1):
    # packet family: total is O(hbar); constant fibers: momentum variance zero
    kg = KGrid.monkhorst_pack(lat1, 8)
    totals = []
    for hbar in (0.04, 0.02):
        m = 56
        rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.0])
        ce = coupling_energy_husimi(rho)
        totals.append(ce.total / hbar)
    assert abs(totals[0] - totals[1]) / totals[1] < 0.15

    m = 16
    n_g = 2 * m + 1
    vecs = np.zeros((kg.size, 1, n_g), dtype=complex)
    vecs[:, 0, m] = 1.0                      # constant function on the cell
    rho_c = FiberedDensity(kg, lat1, m, 0.05, np.ones((kg.size, 1)), vecs)
    ce = coupling_energy_husimi(rho_c)
    # only the d*hbar/2*norm^4 term is left, and the grid oracle agrees
    assert np.max(np.abs(ce.momentum_per_fiber - 0.05 / 2)) < 1e-15
    _, mom = coupling_energy_husimi_grid(rho_c, 32, 96, 2.0)
    assert np.max(np.abs(mom - 0.05 / 2)) < 1e-12


@pytest.mark.parametrize("basis, n", [([[1.0]], 41), ([[1.0, 0.0], [0.5, np.sqrt(3) / 2]], 13),
                                      ([[1.0, 0, 0], [0.3, 1.0, 0], [0.2, 0.5, 0.8]], 7)])
def test_pair_moment_matches_dense_matrix(basis, n, rng):
    lat = LatticeSpec(basis)
    d = lat.dimension
    dens = rng.uniform(0.0, 1.0, (n,) * d)
    # the grid oracle against the full (n^d x n^d) matrix of periodized pair distances
    pts = position_grid(lat, n)
    red = reduce_to_cell((pts[:, None, :] - pts[None, :, :]).reshape(-1, d), lat)
    dist = np.sum(red * red, axis=-1).reshape(pts.shape[0], pts.shape[0])
    flat = dens.reshape(-1)
    ref = flat @ dist @ flat
    assert pair_moment_grid(dens, lat) == pytest.approx(ref, rel=1e-12)
    # batched over a leading axis
    np.testing.assert_allclose(pair_moment_grid(np.stack([dens, 2.0 * dens]), lat),
                               [ref, 4.0 * ref], rtol=1e-12)


@pytest.mark.parametrize("name, m", [("line", 7), ("hexagonal", 4), ("skew", 2)])
def test_density_coeffs_are_those_of_the_squared_values(name, m):
    # the coefficients of |v|^2 of every vector, on the quadrature_len(2m) grid
    lat = LatticeSpec(LATTICES[name])
    rho = random_density(lat, m, 0.05, 2, seed=11)
    vals = coeffs_to_values_rolled(rho.vectors.reshape(rho.lambdas.shape + rho.coeff_shape),
                                   lat, quadrature_len(2 * m))
    ref = values_to_coeffs_rolled(vals.real ** 2 + vals.imag ** 2, lat, 2 * m)
    got = _density_coeffs(rho)
    assert got.shape == rho.lambdas.shape + (4 * m + 1,) * lat.dimension
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("name, sizes", [("line", (41, 81, 161)), ("hexagonal", (41, 81, 161)),
                                         ("skew", (11, 21, 41))])
def test_pair_moment_is_the_grid_limit(name, sizes, rng):
    # the grid sum converges to the closed form at second order
    lat = LatticeSpec(LATTICES[name])
    d, m = lat.dimension, 3
    v = rng.standard_normal((2 * m + 1,) * d) + 1j * rng.standard_normal((2 * m + 1,) * d)
    vals = coeffs_to_values_rolled(v, lat, quadrature_len(2 * m))
    coeffs = values_to_coeffs_rolled(vals.real ** 2 + vals.imag ** 2, lat, 2 * m)
    exact = pair_moment(np.stack([coeffs, 2.0 * coeffs]), lat)
    assert exact[1] == pytest.approx(4.0 * exact[0], rel=1e-14)
    errs = [abs(pair_moment_grid(np.abs(coeffs_to_values_rolled(v, lat, n)) ** 2, lat)
                * grid_weight(lat, n) ** 2 - exact[0]) / exact[0] for n in sizes]
    assert errs[0] < 3e-2
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_husimi_coupling_is_the_grid_limit(name):
    # refining the oracle's |v|^2 grid by 3 cuts its position error by about 9;
    # its momentum quadrature is spectrally accurate
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    m = 2 if d < 3 else 1
    hbar = 0.05
    rho = random_density(lat, m, hbar, 1, seed=d, n_k=1)
    ce = coupling_energy_husimi(rho)
    p_max = hbar * m * np.max(np.sum(np.abs(lat.reciprocal), axis=0)) + 7 * np.sqrt(hbar)
    n_p = int(np.ceil(2 * p_max / (0.6 * np.sqrt(hbar))))
    nq = 4 * m + 1
    errs = []
    for ny in (nq, 3 * nq, 9 * nq):
        pos, mom = coupling_energy_husimi_grid(rho, nq, n_p, p_max, ny)
        errs.append(np.max(np.abs(pos / ce.position_per_fiber - 1.0)))
        np.testing.assert_allclose(mom, ce.momentum_per_fiber, rtol=1e-10)
    assert errs[0] < 5e-2
    assert errs[0] / errs[1] > 6.0 and errs[1] / errs[2] > 6.0


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("hbar", [0.01, 0.1])
def test_husimi_coupling_bound_holds_per_fiber(name, hbar):
    # a theorem on rectangular cells (``coupling_energy_husimi``); on skew cells
    # random densities stay below the bound as well
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    for seed in range(4):
        rho = random_density(lat, 4 if d < 3 else 2, hbar, 1, seed)
        ce = coupling_energy_husimi(rho)
        for ik, k in enumerate(rho.kgrid.points):
            one = FiberedDensity(KGrid(k[None, :], lat), lat, rho.m, hbar,
                                 rho.lambdas[ik:ik + 1], rho.vectors[ik:ik + 1])
            alone = coupling_energy_husimi(one)
            assert alone.bound == d * hbar * alone.c_bold + 2.0 * alone.std_dev ** 2
            assert ce.per_fiber[ik] <= alone.bound


def test_husimi_coupling_requires_rank_one(lat1):
    kg = KGrid.monkhorst_pack(lat1, 2)
    m = 8
    vecs = np.zeros((2, 2, 2 * m + 1), dtype=complex)
    vecs[:, :, m] = 1.0
    rho = FiberedDensity(kg, lat1, m, 0.05, np.ones((2, 2)), vecs)
    with pytest.raises(ValueError):
        coupling_energy_husimi(rho)


def test_rank_one_quantities_follow_the_fiber_weight(lat1):
    # weight 2 is the vector sqrt(2) v: every quadratic quantity doubles twice
    rho = coherent_family(lat1, KGrid.monkhorst_pack(lat1, 4), 48, 0.02, [0.0], [0.5])
    twice = scaled_density(rho, 2.0)
    one, two = (coupling_energy_husimi(r) for r in (rho, twice))
    assert two.c_bold == pytest.approx(4.0 * one.c_bold, rel=1e-12)
    assert two.std_dev ** 2 == pytest.approx(4.0 * one.std_dev ** 2, rel=1e-12)
    assert two.total == pytest.approx(4.0 * one.total, rel=1e-12)
    assert two.bound == pytest.approx(4.0 * one.bound, rel=1e-12)


def test_stability_envelope_free(lat1, geom1):
    hbar = 0.01
    f = bump_density(lat1, nq=10, np_=12)
    rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 4), 64, hbar)
    env = stability_envelope(f, rho, CostParams(1.0, geom1), zero_potential(lat1),
                             horizon=1.0, n_times=20, dt=1e-3)
    assert env.eta == pytest.approx(gronwall_rate(geom1, 1.0, 0.0))
    assert env.eta == pytest.approx(2.0)     # (2 g+/g-) * lambda for the unit cell
    assert env.max_ratio() <= 1 + 1e-3
    assert np.all(np.isfinite(env.energies))


def _copy(rho):
    return FiberedDensity(rho.kgrid, rho.lat, rho.m, rho.hbar, rho.lambdas, rho.vectors.copy(),
                          rho.box)


def _widened(rho):
    """A copy of ``rho`` stored on the whole window."""
    out = _copy(rho)
    out.widen()
    return out


@pytest.mark.parametrize("name, m", [("line", 384), ("hexagonal", 8), ("skew", 6)])
def test_node_chunks_are_bitwise_invisible(monkeypatch, rng, name, m):
    # rank 7 in chunks of 3, 3 and 1 against one chunk of 7: every kernel that
    # sweeps the chunks gives the same bits
    lat = LatticeSpec(LATTICES[name])
    d, n = lat.dimension, quadrature_len(m)
    assert n > 2 * m + 1                              # padded, so the block has a tail
    rho = random_density(lat, m, 0.05, 7, seed=3)
    shared = rng.uniform(0.0, 1.0, n ** d)
    per_vector = rng.uniform(0.0, 1.0, (rho.rank, n ** d))
    x = rng.uniform(-1.5, 1.5, (rho.rank, d)) @ lat.basis
    xi = rng.normal(0.0, 1.0, (rho.rank, d))
    cost = CostParams(0.7, gamma_bounds(lat))

    def run(chunk_bytes):
        monkeypatch.setattr(quantization, "_CHUNK_BYTES", chunk_bytes)
        r = _copy(rho)
        chunks = [(c.start, c.stop) for c in r.node_chunks()]
        return chunks, (r.grid_expectations(shared), r.grid_expectations(per_vector),
                        r.masked_trace(shared), *diagonal_coupling_parts(r, x, xi, cost))

    node_bytes = 16 * rho.kgrid.size * n ** d
    whole, one = run(2 ** 62)
    split, chunked = run(3 * node_bytes + 1)
    assert whole == [(0, 7)]
    assert split == [(0, 3), (3, 6), (6, 7)]
    for a, b in zip(one, chunked):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("chunk_bytes", [None, 1])
def test_stability_pass_keeps_one_chunk_sized_work_block(monkeypatch, lat1, geom1, chunk_bytes):
    # the work block holds one chunk, at least one node, and every chunk of
    # every sample reuses it
    if chunk_bytes is not None:
        monkeypatch.setattr(quantization, "_CHUNK_BYTES", chunk_bytes)
    f = bump_density(lat1, nq=10, np_=12)
    rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 4), 384, 1e-3)
    cost = CostParams(1.0, geom1)
    assert len(rho.node_chunks()) >= 3
    coupling_energy_toeplitz(f, rho, cost)
    block = rho._work
    stability_envelope(f, rho, cost, zero_potential(lat1), horizon=0.1, n_times=2, dt=1e-2)
    assert rho._work is block
    node_bytes = 16 * rho.kgrid.size * quadrature_len(rho.m)
    assert block.nbytes <= max(quantization._CHUNK_BYTES, node_bytes)


def test_stability_envelope_initial_energy_matches_coupling(lat1, geom1):
    hbar = 0.01
    f = bump_density(lat1, nq=10, np_=12)
    cost = CostParams(1.0, geom1)
    rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 4), 64, hbar)
    # the coupling first: the envelope advances rho's vectors in place
    ce = coupling_energy_toeplitz(f, rho, cost)
    env = stability_envelope(f, rho, cost, zero_potential(lat1),
                             horizon=0.2, n_times=2, dt=1e-2)
    assert env.energies[0] == pytest.approx(ce.total, rel=1e-12)


_ENVELOPE_CASES = pytest.mark.parametrize("basis, terms, m, hbar, nq, np_, n_k", [
    ([[1.0]], (), 64, 0.01, 10, 12, 4),
    ([[1.0]], (((1,), 0.0, 0.4),), 64, 0.01, 10, 12, 4),
    ([[1.0]], (((1,), 0.1, 0.0),), 64, 0.01, 10, 12, 4),
    (LATTICES["hexagonal"], (), 6, 0.05, 4, 4, 2),
    (LATTICES["hexagonal"], (((1, 0), 0.3, 0.2),), 6, 0.05, 4, 4, 2),
])


@_ENVELOPE_CASES
def test_stability_envelope_reads_the_momentum_moments_once_at_v0(monkeypatch, basis, terms, m,
                                                                   hbar, nq, np_, n_k):
    # V = 0: |c_G| and xi are conserved, so the momentum part is read once;
    # V != 0: at every sample
    lat = LatticeSpec(basis)
    potential = TrigPotential(lat, terms)
    f = bump_density(lat, nq=nq, np_=np_)
    rho = toeplitz_quantize(f, lat, KGrid.monkhorst_pack(lat, n_k), m, hbar)
    calls = []
    moments = FiberedDensity.momentum_moments

    def spy(self):
        calls.append(self.rank)
        return moments(self)

    monkeypatch.setattr(FiberedDensity, "momentum_moments", spy)
    stability_envelope(f, rho, CostParams(1.0, gamma_bounds(lat)), potential, horizon=0.4,
                       n_times=5, dt=1e-2, lipschitz=1.0)
    assert len(calls) == (1 if potential.is_zero else 6)


@_ENVELOPE_CASES
def test_stability_envelope_matches_the_per_sample_recomputation(basis, terms, m, hbar, nq, np_,
                                                                 n_k):
    # t, bound and the t = 0 energy are bitwise those of recomputing both
    # coupling parts at every sample; later energies agree to 1e-12 relative
    # (bitwise at V != 0), and the energy moves
    lat = LatticeSpec(basis)
    potential = TrigPotential(lat, terms)
    f = bump_density(lat, nq=nq, np_=np_)
    kg = KGrid.monkhorst_pack(lat, n_k)
    cost = CostParams(1.0, gamma_bounds(lat))
    horizon, n_times, dt = 0.4, 5, 1e-2
    env = stability_envelope(f, toeplitz_quantize(f, lat, kg, m, hbar), cost, potential,
                             horizon, n_times, dt, lipschitz=1.0)
    ref = recomputed_stability_energies(f, toeplitz_quantize(f, lat, kg, m, hbar), cost,
                                        potential, horizon, n_times, dt)
    assert env.times.tobytes() == np.linspace(0.0, horizon, n_times + 1).tobytes()
    assert env.energies[0] == ref[0]
    assert env.bounds.tobytes() == (ref[0] * np.exp(2.0 * env.eta * env.times)).tobytes()
    np.testing.assert_allclose(env.energies, ref, rtol=1e-12, atol=0)
    if not potential.is_zero:
        np.testing.assert_array_equal(env.energies, ref)
    assert env.energies[-1] != env.energies[0]


@pytest.mark.parametrize("basis, m, hbar, nq, np_, n_k", [
    ([[1.0]], 64, 0.01, 10, 12, 4),
    (LATTICES["hexagonal"], 24, 0.03, 4, 4, 2),
])
def test_free_stability_envelope_on_the_support_box_is_that_of_the_window(
        basis, m, hbar, nq, np_, n_k):
    # at V = 0 the evolution and every sample's transforms run on the box the
    # quantized packets are stored on; the same density stored on the whole
    # window gives the same energies and bounds (to the rounding of the
    # momentum moments, summed over more zeros), and the all-zero density,
    # trimmed to the empty box, has zero energies under zero bounds either way
    lat = LatticeSpec(basis)
    d = lat.dimension
    f = bump_density(lat, nq=nq, np_=np_)
    kg = KGrid.monkhorst_pack(lat, n_k)
    cost = CostParams(1.0, gamma_bounds(lat))
    zero = toeplitz_quantize(f, lat, kg, m, hbar)
    zero.vectors[:] = 0.0
    zero = zero.trimmed()
    assert zero.box == (slice(0, 0),) * d

    def run(rho):
        env = stability_envelope(f, rho, cost, zero_potential(lat), horizon=0.4, n_times=5,
                                 dt=1e-2, lipschitz=0.0)
        return np.concatenate([env.energies, env.bounds])

    rho = toeplitz_quantize(f, lat, kg, m, hbar)
    assert window_box(2 * m + 1, d) != rho.box and rho.vectors.shape[-1] < (2 * m + 1) ** d
    boxed, boxed_zero = run(_copy(rho)), run(_copy(zero))
    assert boxed_zero.tobytes() == np.zeros(12).tobytes()
    np.testing.assert_allclose(run(_widened(rho)), boxed, rtol=1e-14, atol=0)
    assert run(_widened(zero)).tobytes() == boxed_zero.tobytes()


def _forced(monkeypatch, band, run):
    """``run()`` with the path rule forced: ``band(observed)`` says which path each consumer takes.

    A forced loop at V != 0 steps by Strang steps.
    """
    with monkeypatch.context() as patch:
        patch.setattr(quantum_dynamics, "_band_path", lambda *args: band(args[-1]))
        return run()


def test_stability_envelope_advances_the_density_in_place(monkeypatch, lat1, geom1):
    # on return the quantized density is the one at the horizon, in the same
    # array: on the band path, and always at V = 0, a fresh quantization moved
    # by the dense exponential gives the same vectors to 1e-12; on the loop,
    # the same Strang steps give them bit for bit
    hbar, horizon, dt = 0.01, 0.2, 1e-2
    f = bump_density(lat1, nq=10, np_=12)
    kg = KGrid.monkhorst_pack(lat1, 4)
    for potential, paths in ((cosine_potential(lat1, (1,), 0.1), (True, False)),
                             (zero_potential(lat1), (True,))):
        h = FiberHamiltonian(lat1, 64, kg.points, potential, hbar)
        for band in paths:
            rho = toeplitz_quantize(f, lat1, kg, 64, hbar)
            if not potential.is_zero:
                rho.widen()     # as the evolution does first at V != 0
            vectors = rho.vectors
            _forced(monkeypatch, lambda observed: band, lambda: stability_envelope(
                f, rho, CostParams(1.0, geom1), potential, horizon=horizon, n_times=2, dt=dt))
            assert rho.vectors is vectors
            fresh = toeplitz_quantize(f, lat1, kg, 64, hbar).window_vectors()
            if band:
                exact = fresh @ galerkin_propagators(h, horizon)
                assert np.max(np.abs(rho.window_vectors() - exact)) <= 1e-12
            else:
                for _ in range(2):
                    propagate_batch(fresh, h, horizon / 2, dt)
                np.testing.assert_array_equal(rho.vectors, fresh)


def test_one_evolution_pass_feeds_observation_and_stability(monkeypatch, lat1, geom1):
    # one pass with nodes gives, at every sample, the masked trace and the
    # coupling energies that the two consumers compute on fresh copies of the
    # datum, on either path of the pass (observed_time_integral held to the
    # loop, which reads the masked trace at every yield); on the band path the
    # series is the dense exponential's
    hbar, horizon, n_samples, dt, delta = 0.01, 0.2, 4, 1e-2, 0.05
    vpot = cosine_potential(lat1, (1,), 0.1)
    f = bump_density(lat1, nq=10, np_=12)
    kg = KGrid.monkhorst_pack(lat1, 4)
    cost = CostParams(1.0, geom1)
    omega = Region([[[-0.1], [0.1]]], lat1)

    def run():
        rho = toeplitz_quantize(f, lat1, kg, 64, hbar)
        mask = rho.region_mask(omega, delta)
        series, energies = [], []
        for x, xi in evolution(rho, vpot, horizon, n_samples, dt, nodes=(f.nodes_q, f.nodes_p)):
            series.append(rho.masked_trace(mask))
            pos, mom = diagonal_coupling_parts(rho, x, xi, cost)
            energies.append(np.mean(pos + mom))
        observed = observed_time_integral(toeplitz_quantize(f, lat1, kg, 64, hbar), omega, delta,
                                          vpot, horizon, n_samples, dt)[1]
        env = stability_envelope(f, toeplitz_quantize(f, lat1, kg, 64, hbar), cost, vpot,
                                 horizon, n_samples, dt)
        return series, energies, observed, env.energies

    for band in (True, False):
        series, energies, observed, env_energies = _forced(
            monkeypatch, lambda observed: band and not observed, run)
        assert len(series) == n_samples + 1
        np.testing.assert_array_equal(series, observed)
        np.testing.assert_array_equal(energies, env_energies)
        assert energies[-1] != energies[0] and series[-1] != series[0]
        if band:
            rho = toeplitz_quantize(f, lat1, kg, 64, hbar)
            h = FiberHamiltonian(lat1, 64, kg.points, vpot, hbar)
            exact = exact_observation_series(rho, rho.region_mask(omega, delta), h,
                                             np.linspace(0.0, horizon, n_samples + 1))
            assert np.max(np.abs(np.array(series) - exact)) <= 1e-12


def test_stability_envelope_with_potential(lat1, geom1):
    hbar = 0.01
    vpot = cosine_potential(lat1, (1,), 0.1)
    lam = vpot.lipschitz_gradient().value
    f = bump_density(lat1, nq=10, np_=12)
    rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 4), 64, hbar)
    env = stability_envelope(f, rho, CostParams(lam, geom1), vpot,
                             horizon=1.0, n_times=20, dt=2e-3)
    assert env.max_ratio() <= 1 + 1e-3
    assert env.eta == pytest.approx((2 * geom1.gamma_plus / geom1.gamma_minus)
                                    * (lam + lam ** 2 / lam))
    # the energy genuinely moves (the check is not vacuous at t > 0)
    assert env.energies[-1] > env.energies[0]


@pytest.mark.parametrize("basis, terms, m, hbar, nq, np_, n_k", [
    ([[1.0]], (((1,), 0.1, 0.0),), 64, 0.01, 10, 12, 4),
    (LATTICES["hexagonal"], (((1, 0), 0.3, 0.2), ((1, -1), 0.2, 0.0)), 6, 0.05, 4, 4, 2),
])
def test_band_evolution_matches_the_stepped_evolution(monkeypatch, basis, terms, m, hbar,
                                                      nq, np_, n_k):
    # the band path is the exact Galerkin flow: the observation series and the
    # stability energies match the dense exponential to 1e-12, and the stepped
    # (Strang) series agrees with it within the step-doubling estimate of the
    # split-step error, 2 |s(dt) - s(dt/2)|: the error of a method of order p
    # is 2^p / (2^p - 1) times that difference, 2 for p = 1 and 4/3 for p = 2.
    # Both windows resolve the potential on the quadrature grid (15 > 13 + 1
    # points per axis on the hexagonal cell), where the split step converges
    # to the Galerkin flow.
    lat = LatticeSpec(basis)
    vpot = TrigPotential(lat, terms)
    horizon, n_samples, dt, delta = 0.4, 4, 1e-2 / 2, 0.05
    f = bump_density(lat, nq=nq, np_=np_)
    kg = KGrid.monkhorst_pack(lat, n_k)
    cost = CostParams(1.0, gamma_bounds(lat))
    omega = Region([[[-0.1] * lat.dimension, [0.1] * lat.dimension]], lat)
    h = FiberHamiltonian(lat, m, kg.points, vpot, hbar)

    def run(step):
        observed = observed_time_integral(toeplitz_quantize(f, lat, kg, m, hbar), omega, delta,
                                          vpot, horizon, n_samples, step)
        env = stability_envelope(f, toeplitz_quantize(f, lat, kg, m, hbar), cost, vpot,
                                 horizon, n_samples, step, lipschitz=0.0)
        return observed[1], observed[4], env.energies

    rho = toeplitz_quantize(f, lat, kg, m, hbar)
    n_g = rho.vectors.shape[-1]
    assert quantum_dynamics._band_path(rho, n_g, n_samples + 1, 10, True)
    assert quantum_dynamics._band_path(rho, n_g, n_samples, 10, False)
    series, drift, energies = run(dt)
    exact = exact_observation_series(rho, rho.region_mask(omega, delta), h,
                                     np.linspace(0.0, horizon, n_samples + 1))
    assert np.max(np.abs(series - exact)) <= 1e-12
    assert drift <= 1e-13
    with monkeypatch.context() as patch:
        patch.setattr(transport_metric, "evolution", exact_evolution)
        energies_exact = run(dt)[2]
    np.testing.assert_allclose(energies, energies_exact, rtol=1e-12, atol=0)
    coarse, fine = (_forced(monkeypatch, lambda observed: False, lambda: run(step))[0]
                    for step in (dt, dt / 2))
    assert np.all(np.abs(series - coarse) <= 2 * np.abs(coarse - fine) + 1e-13)
    assert energies[-1] != energies[0] and series[-1] != series[0]


def _sized(lat, m, n_k, rank):
    """A density of the given sizes whose weights and vectors are zero blocks of no memory."""
    kg = KGrid.monkhorst_pack(lat, n_k)
    n_g = (2 * m + 1) ** lat.dimension
    return FiberedDensity(kg, lat, m, 1e-3, np.broadcast_to(0.0, (kg.size, rank)),
                          np.broadcast_to(0j, (kg.size, rank, n_g)))


def test_propagator_cache_rule_follows_the_flop_count(lat1):
    # the one path rule at V != 0: evolution in the band basis (observed False)
    # and the observation form (observed True) pay one eigendecomposition per fiber
    rule = quantum_dynamics._band_path
    # potential-1d: 200 samples of 5 Strang steps at n_G = 129; verify with 25
    # vectors per fiber after compression, stability 20 samples of 50 steps and 48
    assert rule(_sized(lat1, 64, 4, 25), 129, 201, 5, True)
    assert rule(_sized(lat1, 64, 4, 48), 129, 20, 50, False)
    # rank-1 pure data stays on the loop, both as observation and as evolution
    pure = _sized(lat1, 64, 4, 1)
    assert not rule(pure, 129, 201, 5, True) and not rule(pure, 129, 200, 5, False)
    # m = 176 (n_G = 353) with 32 fibers, pure: the eigendecompositions cost more
    # than every step they replace
    wide = _sized(lat1, 176, 32, 1)
    assert not rule(wide, 353, 201, 5, True) and not rule(wide, 353, 200, 5, False)
    # without Strang steps an unobserved loop costs nothing
    assert not rule(_sized(lat1, 64, 4, 48), 129, 20, 0, False)
    # one fiber's matrix fits the chunk budget up to n_G = 362
    many = _sized(lat1, 180, 4, 1000)
    assert rule(many, 361, 1000, 1000, False) and rule(many, 361, 1000, 1000, True)
    many = _sized(lat1, 181, 4, 1000)
    assert not rule(many, 363, 1000, 1000, False) and not rule(many, 363, 1000, 1000, True)


def test_cached_stability_pass_propagates_once(monkeypatch, lat1, geom1):
    # stability sizes on a cosine at m = 64: one eigendecomposition per fiber,
    # no Strang step
    calls, eigh = [], []
    real_eigh = np.linalg.eigh

    def counted(coeffs, h, t, dt):
        calls.append(coeffs.shape)
        return propagate_batch(coeffs, h, t, dt)

    def counted_eigh(a):
        eigh.append(a.shape)
        return real_eigh(a)

    monkeypatch.setattr(quantum_dynamics, "propagate_batch", counted)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    vpot = cosine_potential(lat1, (1,), 0.1)
    f = bump_density(lat1, nq=10, np_=12)
    rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 4), 64, 0.01)
    rho.widen()     # as the evolution does first at V != 0
    vectors = rho.vectors
    stability_envelope(f, rho, CostParams(1.0, geom1), vpot, horizon=1.0, n_times=20, dt=1e-3)
    assert calls == []
    assert eigh == [(129, 129)] * 4
    assert rho.vectors is vectors


_FREE_DATA = pytest.mark.parametrize("basis, m, hbar, nq, np_, n_k, n_support", [
    ([[1.0]], 64, 0.01, 10, 12, 4, 57),
    (LATTICES["hexagonal"], 6, 0.05, 4, 4, 2, 157),
])


def _free_observation(basis, m, hbar, nq, np_, n_k):
    """A V = 0 quantized bump and ``run(rho)``, its observed time integral up to T = 0.4.

    The region is not symmetric about the origin, so the mask's Fourier
    coefficients are not real.
    """
    lat = LatticeSpec(basis)
    f = bump_density(lat, nq=nq, np_=np_)
    kg = KGrid.monkhorst_pack(lat, n_k)
    omega = Region([[[-0.1] * lat.dimension, [0.15] * lat.dimension]], lat)

    def datum():
        return toeplitz_quantize(f, lat, kg, m, hbar)

    def run(rho):
        return observed_time_integral(rho, omega, 0.05, zero_potential(lat), 0.4, 8, 1e-2)
    return datum, run


@_FREE_DATA
def test_free_observation_form_matches_the_loop(monkeypatch, basis, m, hbar, nq, np_, n_k,
                                                n_support):
    # at V = 0 a sample is u^H A u per fiber, A the fiber's masked form on the
    # support of the vectors and u the phases of the kinetic diagonal; the loop
    # transforms every vector at every sample instead
    datum, run = _free_observation(basis, m, hbar, nq, np_, n_k)
    rho, rho_loop = datum(), datum()
    # the floored packets vanish on 72 of the 129 coefficients of the line and
    # on 12 of the 169 of the hexagonal cell
    assert np.count_nonzero(np.any(rho.vectors, axis=(0, 1))) == n_support
    vectors = rho.vectors
    lhs, series, _, quad, drift = _forced(monkeypatch, lambda observed: True, lambda: run(rho))
    lhs_l, series_l, _, quad_l, drift_l = _forced(monkeypatch, lambda observed: False,
                                                  lambda: run(rho_loop))
    assert rho._work is None and rho_loop._work is not None
    np.testing.assert_allclose(series, series_l, rtol=1e-13, atol=0)
    assert lhs == pytest.approx(lhs_l, rel=1e-13, abs=0)
    # the quadrature error is the difference of two trapezoid sums of size lhs,
    # so it carries their rounding, not its own
    assert abs(quad - quad_l) <= 1e-13 * lhs
    assert abs(drift - drift_l) <= 1e-13
    assert series[-1] != series[0]
    # the vectors end at T, in the same array, by the exact flow
    assert rho.vectors is vectors
    fresh = datum()
    h = FiberHamiltonian(fresh.lat, m, fresh.kgrid.points, zero_potential(fresh.lat), hbar)
    np.testing.assert_allclose(rho.window_vectors(),
                               fresh.window_vectors() @ galerkin_propagators(h, 0.4),
                               rtol=0, atol=1e-13)


def test_free_observation_form_holds_no_more_memory_than_the_loop(monkeypatch):
    # the largest form the rule admits, W = 361 of a hexagonal m = 9 window: the
    # one (W, W) buffer and one fiber's vectors on W, against the loop's work block
    datum, run = _free_observation(LATTICES["hexagonal"], 9, 0.02, 4, 4, 2)
    peaks = {}
    for form in (True, False):
        rho = datum()
        tracemalloc.start()
        _forced(monkeypatch, lambda observed: form, lambda: run(rho))
        peaks[form] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (rho._work is None) == form
    assert np.count_nonzero(np.any(rho.vectors, axis=(0, 1))) == 361
    assert peaks[True] <= peaks[False]


def test_observation_form_rule_follows_the_flop_count(lat1):
    # the one path rule at V = 0 (no Strang steps): the form's products at a
    # tenth of an FFT flop against the masked trace of every vector
    def rule(rho, n_support, n_samples):
        return quantum_dynamics._band_path(rho, n_support, n_samples, 0, True)
    # free-1d verify toeplitz: 201 samples of 48 vectors on 327 coefficients,
    # 21 M against 449 M flops
    assert rule(_sized(lat1, 384, 8, 48), 327, 201)
    # free-1d verify pure: one vector on 268 or 269 coefficients, 11.6 M against 9.4 M
    pure = _sized(lat1, 384, 8, 1)
    assert not rule(pure, 268, 201) and not rule(pure, 269, 201)
    # cell-2d: a form of 1555^2 x 16 B = 39 MB exceeds the chunk budget
    assert not rule(_sized(LatticeSpec(LATTICES["hexagonal"]), 24, 2, 57), 1555, 21)
    # one fiber's form fits the chunk budget up to W = 362
    many = _sized(lat1, 384, 8, 1000)
    assert rule(many, 362, 1000)
    assert not rule(many, 363, 1000)
