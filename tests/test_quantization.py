import numpy as np
import pytest
from scipy.special import erf

from blochlab import quantization
from blochlab import (KGrid, LatticeSpec, PhaseSpaceDensity, Region, husimi, periodic_trace,
                      toeplitz_quantize)
from blochlab.bloch import g_vectors, grid_weight, position_grid, quadrature_len
from blochlab.quantization import FiberedDensity, PhaseBoxSet, husimi_mass_on_boxes

from conftest import LATTICES, random_density
from oracles import coeffs_to_values_rolled, coherent_family, cosine_potential, husimi_mass_grid, \
    interval_region, position_density, scaled_density, single_box


def gaussian_bump(q0, p0, sq, sp):
    def fn(q, p):
        return np.exp(-np.sum((q - q0) ** 2, axis=-1) / (2 * sq ** 2)
                      - np.sum((p - p0) ** 2, axis=-1) / (2 * sp ** 2))
    return fn


def test_density_validation(lat1):
    with pytest.raises(ValueError):
        PhaseSpaceDensity(np.zeros((2, 1)), np.zeros((2, 1)), np.array([1.0, 1.0]),
                          np.array([0.5, -0.5]))


def test_density_mass_and_pruning(lat1):
    f = PhaseSpaceDensity.from_function(gaussian_bump(0.0, 0.3, 0.1, 0.15),
                                        lat1, 16, 24, 1.0)
    assert f.mass == pytest.approx(1.0, abs=1e-12)
    g = f.pruned(1e-10)
    assert g.size < f.size
    assert g.mass == pytest.approx(1.0, abs=1e-9)


def test_periodic_trace_identities(lat1):
    hbar, m, nk = 0.05, 48, 8
    kg = KGrid.monkhorst_pack(lat1, nk)
    rho = coherent_family(lat1, kg, m, hbar, [0.1], [0.4])
    assert periodic_trace(rho) == pytest.approx(1.0, abs=1e-8)
    assert periodic_trace(scaled_density(rho, 2.5)) == pytest.approx(2.5, abs=2.5e-8)
    zero = FiberedDensity(kg, lat1, m, hbar, np.zeros((nk, 1)), rho.vectors)
    assert periodic_trace(zero) == 0.0


def test_toeplitz_trace_one(lat1):
    hbar, m, nk = 0.02, 64, 8
    f = PhaseSpaceDensity.from_function(gaussian_bump(0.0, 0.3, 0.12, 0.18),
                                        lat1, 20, 28, 1.2)
    rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, nk), m, hbar)
    assert periodic_trace(rho) == pytest.approx(1.0, abs=1e-7)


def test_toeplitz_rejects_unnormalized(lat1):
    f = PhaseSpaceDensity.from_function(gaussian_bump(0.0, 0.3, 0.12, 0.18), lat1, 12, 16, 1.2)
    f = PhaseSpaceDensity(f.nodes_q, f.nodes_p, f.weights, 1.01 * f.values)
    with pytest.raises(ValueError):
        toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 4), 32, 0.05)


def test_toeplitz_single_node_rank_one(lat1):
    hbar, m = 0.05, 48
    kg = KGrid.monkhorst_pack(lat1, 4)
    f = PhaseSpaceDensity(np.array([[0.1]]), np.array([[0.5]]), np.array([1.0]),
                          np.array([1.0]))
    rho = toeplitz_quantize(f, lat1, kg, m, hbar)
    assert rho.rank == 1
    expected = coherent_family(lat1, kg, m, hbar, [0.1], [0.5])
    np.testing.assert_allclose(rho.window_vectors(), expected.vectors, atol=1e-14)
    np.testing.assert_allclose(rho.lambdas, 1.0)


def test_toeplitz_fiber_nonnegative_dense_oracle(lat1):
    hbar, m = 0.1, 24
    f = PhaseSpaceDensity.from_function(gaussian_bump(0.0, 0.0, 0.15, 0.2),
                                        lat1, 10, 12, 1.0)
    rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 4), m, hbar)
    for i in range(rho.kgrid.size):
        v = rho.vectors[i]
        w = np.linalg.eigvalsh((v.conj().T * rho.lambdas[i]) @ v)   # dense fiber oracle
        assert w.min() >= -1e-12


def _dense_fibers(rho):
    """sum_j lambda_j v_j v_j^H of every fiber, shape (n_k, n_G, n_G)."""
    return np.stack([(v.T * lam) @ v.conj() for lam, v in zip(rho.lambdas, rho.vectors)])


@pytest.mark.parametrize("basis, m, nq, npd, hbar", [
    ([[1.0]], 32, 10, 14, 0.02),
    ([[1.0, 0.0], [0.5, 0.8660254037844386]], 8, 5, 6, 0.05),
])
def test_compressed_matches_dense_fiber_operator(rng, basis, m, nq, npd, hbar):
    lat = LatticeSpec(basis)
    d = lat.dimension
    f = PhaseSpaceDensity.from_function(gaussian_bump(np.zeros(d), np.full(d, 0.3), 0.15, 0.2),
                                        lat, nq, npd, 1.0)
    rho = toeplitz_quantize(f, lat, KGrid.monkhorst_pack(lat, 2), m, hbar)
    tol = 1e-6
    small, tail = rho.compressed(tol)
    assert small.rank < rho.rank and 0.0 < tail <= tol
    # the floored packets vanish on some coefficients, and so do their eigenvectors
    off = ~np.any(rho.window_vectors(), axis=(0, 1))
    assert off.any() and not np.any(small.window_vectors()[..., off])
    traces = rho.fiber_traces()
    np.testing.assert_allclose(small.fiber_traces(), traces, rtol=1e-13)
    # the tail is dropped and its trace put back on the kept part: trace norm 2 tail
    for diff, tr in zip(_dense_fibers(rho) - _dense_fibers(small), traces):
        assert np.sum(np.abs(np.linalg.eigvalsh(diff))) <= 2.0 * tail * tr * (1 + 1e-6) + 1e-14
    # a density with nothing to drop comes back as it is
    vecs = rng.standard_normal((2, 3, (2 * m + 1) ** d)) + 0j
    full = FiberedDensity(rho.kgrid, lat, m, hbar, np.full((2 ** d, 3), 0.5),
                          np.tile(vecs, (2 ** (d - 1), 1, 1)))
    same, tail = full.compressed(1e-10)
    assert same is full and tail == 0.0


@pytest.mark.parametrize("rank", [1, 4])
def test_husimi_normalization(rng, lat1, rank):
    hbar, m, nk = 0.02, 32, 8
    kg = KGrid.monkhorst_pack(lat1, nk)
    n_g = 2 * m + 1
    # random band-limited fibers (narrow band keeps the momentum support modest)
    band = 10
    vecs = np.zeros((nk, rank, n_g), dtype=complex)
    core = slice(m - band, m + band + 1)
    vecs[:, :, core] = (rng.standard_normal((nk, rank, 2 * band + 1))
                        + 1j * rng.standard_normal((nk, rank, 2 * band + 1)))
    lam = rng.uniform(0.2, 1.0, (nk, rank))
    norms = np.sum(np.abs(vecs) ** 2, axis=2)
    lam /= np.mean(np.sum(lam * norms, axis=1))     # unit periodic trace
    rho = FiberedDensity(kg, lat1, m, hbar, lam, vecs)
    assert periodic_trace(rho) == pytest.approx(1.0, abs=1e-12)

    p_max = hbar * 2 * np.pi * band + 8 * np.sqrt(hbar)
    n_q, n_p = 64, 160
    qs = position_grid(lat1, n_q)
    dp = 2 * p_max / n_p
    ps = (-p_max + (np.arange(n_p) + 0.5) * dp).reshape(-1, 1)
    w = husimi(rho, qs, ps, grid_weight(lat1, n_q) * dp)
    assert np.all(w.values >= -1e-12)
    assert w.mass == pytest.approx(1.0, abs=1e-6)


def test_husimi_p_marginal_identity(rng, lat1):
    # marginal in momentum equals the Gaussian-smoothed position density
    hbar, m = 0.02, 32
    kg = KGrid.monkhorst_pack(lat1, 4)
    band = 8
    n_g = 2 * m + 1
    vec = np.zeros(n_g, dtype=complex)
    vec[m - band:m + band + 1] = (rng.standard_normal(2 * band + 1)
                                  + 1j * rng.standard_normal(2 * band + 1))
    vecs = np.broadcast_to(vec, (4, 1, n_g)).copy()
    rho = FiberedDensity(kg, lat1, m, hbar, np.ones((4, 1)), vecs)

    p_max = hbar * 2 * np.pi * band + 8 * np.sqrt(hbar)
    n_p = 200
    dp = 2 * p_max / n_p
    ps = (-p_max + (np.arange(n_p) + 0.5) * dp).reshape(-1, 1)
    q0 = np.array([[0.17]])
    ik = 1
    k = kg.points[ik]
    # left side: integrate the fiber-k husimi integrand over p at fixed q
    single = FiberedDensity(KGrid(k[None, :], lat1), lat1, m, hbar,
                            np.ones((1, 1)), vecs[ik:ik + 1])
    lhs = husimi(single, q0, ps, dp).mass

    n_fine = 2 * m + 1
    yg = position_grid(lat1, n_fine)
    dens = np.abs(coeffs_to_values_rolled(vec.reshape(n_g), lat1, n_fine)) ** 2
    rhs = 0.0
    for ell in range(-8, 9):
        rhs += float(np.sum(np.exp(-(yg[:, 0] + ell - q0[0, 0]) ** 2 / hbar) * dens)) \
            * grid_weight(lat1, n_fine)
    rhs *= (np.pi * hbar) ** -0.5
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_husimi_argmax_near_point_mass(lat1):
    # oracle: the density of a quantized point mass peaks at that point
    hbar, m = 0.02, 48
    kg = KGrid.monkhorst_pack(lat1, 8)
    f = PhaseSpaceDensity(np.array([[0.0]]), np.array([[1.0]]), np.array([1.0]),
                          np.array([1.0]))
    rho = toeplitz_quantize(f, lat1, kg, m, hbar)
    qs = position_grid(lat1, 41)
    dp = 0.05
    ps = (np.arange(-10, 51) * dp).reshape(-1, 1)
    w = husimi(rho, qs, ps, grid_weight(lat1, 41) * dp)
    j = int(np.argmax(w.values))
    assert abs(w.nodes_q[j, 0] - 0.0) <= 1.0 / 41 + 1e-12
    assert abs(w.nodes_p[j, 0] - 1.0) <= dp + 1e-12


def observe(rho, region, delta=0.0):
    """Fiber-averaged trace of the density on the (delta-dilated) cell region."""
    return rho.masked_trace(rho.region_mask(region, delta))


def test_observe_cases(lat1):
    hbar, m = 0.05, 48
    kg = KGrid.monkhorst_pack(lat1, 8)
    rho = coherent_family(lat1, kg, m, hbar, [0.1], [0.4])
    full = interval_region([-0.5], [0.5], lat1)
    assert observe(rho, full) == pytest.approx(periodic_trace(rho), abs=1e-12)
    assert observe(rho, full, 0.1) == pytest.approx(periodic_trace(rho), abs=1e-12)
    empty = Region(np.zeros((0, 2, 1)), lat1)
    assert observe(rho, empty) == 0.0
    assert observe(rho, empty, 0.1) == 0.0


@pytest.mark.parametrize("basis, m", [([[1.0]], 18), ([[1.0, 0.0], [0.5, np.sqrt(3) / 2]], 6)])
def test_masked_trace_matches_einsum_of_squared_values(rng, basis, m):
    # 2m+1 is prime (37, 13); the trace runs on the 45- and 15-point grids
    lat = LatticeSpec(basis)
    d = lat.dimension
    kg = KGrid.monkhorst_pack(lat, 2)
    n = quadrature_len(m)
    shape = (kg.size, 3, (2 * m + 1) ** d)
    vecs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lam = rng.uniform(0.1, 1.0, (kg.size, 3))
    rho = FiberedDensity(kg, lat, m, 0.05, lam, vecs)
    mask = rng.uniform(0.0, 1.0, n ** d) * grid_weight(lat, n)
    dens = position_density(rho)
    ref = float(np.mean(np.einsum("kr,krg,g->k", lam, dens, mask)))
    assert rho.masked_trace(mask) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("name, m", [("line", 18), ("hexagonal", 6), ("hexagonal", 8),
                                     ("skew", 6)])
def test_grid_expectations_match_einsum_of_oracle_densities(rng, name, m):
    # one weight function for all vectors (a mask) and one per vector (cost weights)
    lat = LatticeSpec(LATTICES[name])
    rho = random_density(lat, m, 0.05, 3, seed=m)
    dens = position_density(rho)
    shared = rng.uniform(0.0, 1.0, dens.shape[-1])
    per_vector = rng.uniform(0.0, 1.0, (rho.rank, dens.shape[-1]))
    np.testing.assert_allclose(rho.grid_expectations(shared),
                               np.einsum("krg,g->kr", dens, shared), rtol=1e-13)
    np.testing.assert_allclose(rho.grid_expectations(per_vector),
                               np.einsum("krg,rg->kr", dens, per_vector), rtol=1e-13)


@pytest.mark.parametrize("name, m", [("line", 384), ("hexagonal", 8), ("skew", 6)])
def test_grid_expectations_repeat_bitwise_on_one_density(rng, name, m):
    # the work block is reused: its tail must be cleared again after each in-place FFT
    lat = LatticeSpec(LATTICES[name])
    rho = random_density(lat, m, 0.05, 2, seed=1)
    assert quadrature_len(m) > 2 * m + 1            # padded, so the block has a tail
    w = rng.uniform(0.0, 1.0, quadrature_len(m) ** lat.dimension)
    first = rho.grid_expectations(w)
    block = rho._work
    np.testing.assert_array_equal(rho.grid_expectations(w), first)
    assert rho._work is block
    np.testing.assert_allclose(first, np.einsum("krg,g->kr", position_density(rho), w),
                               rtol=1e-13)


def test_observe_gaussian_mass_oracle(lat1):
    # oracle: erf mass of the packet envelope; the indicator selects whole grid
    # cells, so the sharp comparison uses the selected cells' actual extent
    kg = KGrid.monkhorst_pack(lat1, 8)
    for hbar, m in ((0.01, 64), (0.001, 200)):
        rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.0])
        got = observe(rho, interval_region([-0.1], [0.1], lat1))
        n = quadrature_len(m)
        y = position_grid(lat1, n)[:, 0]
        sel = y[(y >= -0.1) & (y < 0.1)]
        # the k average kills all cross-translate terms, so the fiber-averaged
        # density is exactly the lattice sum of Gaussian envelopes
        dens = sum(np.exp(-(sel + ell) ** 2 / hbar) for ell in range(-3, 4))
        oracle = float(np.sum(dens)) * (np.pi * hbar) ** -0.5 / n
        assert got == pytest.approx(oracle, abs=1e-9)
        # against the exact window mass the error is O(grid spacing)
        assert abs(got - erf(0.1 / np.sqrt(hbar))) < 2.0 * (np.pi * hbar) ** -0.5 / n
    # at hbar = 1e-3 the captured mass clears 0.99
    rho = coherent_family(lat1, kg, 200, 1e-3, [0.0], [0.0])
    assert observe(rho, interval_region([-0.1], [0.1], lat1)) >= 0.99


def test_husimi_mass_on_boxes_matches_full_grid(lat1):
    hbar, m = 0.02, 48
    kg = KGrid.monkhorst_pack(lat1, 8)
    rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.5])
    box = single_box([-0.5], [0.5], [-1.0], [2.0])   # wide momentum margin
    mass = husimi_mass_on_boxes(rho, box)
    assert mass == pytest.approx(1.0, abs=1e-12)
    # narrow momentum box misses exactly the Gaussian tails (erf oracle)
    tight = single_box([-0.5], [0.5], [0.0], [1.0])
    missing = 1.0 - husimi_mass_on_boxes(rho, tight)
    assert missing == pytest.approx(1.0 - erf(0.5 / np.sqrt(2 * hbar)), abs=1e-12)
    half = single_box([-0.5], [0.0], [-1.0], [2.0])
    assert husimi_mass_on_boxes(rho, half) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("name", ["line", "hexagonal", "skew"])
def test_support_box_is_the_box_of_the_support(name):
    # the quantized packets are stored on the smallest box holding every
    # coefficient that is nonzero in some vector, and trimming the same packets
    # stored on the whole window finds that box; an all-zero density trims to
    # the empty box, and its Husimi mass is 0.0 on either box
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    kg = KGrid.monkhorst_pack(lat, 2)
    window = coherent_family(lat, kg, 12, 0.01, [0.1] * d, [0.3] * d)
    rho = toeplitz_quantize(PhaseSpaceDensity([[0.1] * d], [[0.3] * d], [1.0], [1.0]),
                            lat, kg, 12, 0.01)
    index = np.nonzero(np.any(window.vectors, axis=(0, 1)).reshape(window.coeff_shape))
    assert rho.box == tuple(slice(i.min(), i.max() + 1) for i in index)
    assert rho.vectors.shape[-1] == np.prod(rho.box_shape) < window.vectors.shape[-1]
    np.testing.assert_array_equal(rho.window_vectors(), window.vectors)
    assert window.trimmed().box == rho.box and rho.trimmed() is rho
    window.vectors[:] = 0.0
    zero = window.trimmed()
    assert zero.box == (slice(0, 0),) * d and zero.vectors.shape == (kg.size, 1, 0)
    for empty in (zero, window):
        assert husimi_mass_on_boxes(empty, single_box([-0.5] * d, [0.5] * d, [-1.0] * d,
                                                      [1.0] * d)) == 0.0


def _husimi_mass_of_pairs(rho, k_set):
    """``husimi_mass_on_boxes`` as its double sum over every pair (G, G') of the window."""
    lat, hbar, d = rho.lat, rho.hbar, rho.lat.dimension
    g = g_vectors(lat, rho.m)
    dg, centre = g[:, None] - g[None, :], (g[:, None] + g[None, :]) / 2.0
    gauss = np.exp(-hbar * np.sum(dg * dg, axis=-1) / 4.0)
    total = 0.0
    for (qlo, qhi), (plo, phi) in zip(k_set.q_bounds, k_set.p_bounds):
        width = qhi - qlo
        box = np.prod(width * np.exp(0.5j * dg * (qhi + qlo)) * np.sinc(dg * width / (2 * np.pi)),
                      axis=-1)
        for k, lambdas, vectors in zip(rho.kgrid.points, rho.lambdas, rho.vectors):
            p = hbar * (k + centre)
            window = np.prod(erf((phi - p) / np.sqrt(hbar)) - erf((plo - p) / np.sqrt(hbar)),
                             axis=-1)
            dense = (vectors.T * lambdas) @ vectors.conj()
            total += np.sum(dense * gauss * box * window).real
    return total / (2 ** d * lat.cell_volume * rho.kgrid.size)


@pytest.mark.parametrize("name", ["line", "hexagonal"])
def test_husimi_mass_on_the_support_box_is_the_pair_sum(name):
    # vectors of rank 3 on 4 fibers that vanish outside an off-centre index box:
    # the sum over the box's offsets is the double sum over the whole window
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    rho = random_density(lat, 7, 0.05, 3, seed=11)
    vectors = rho.vectors.reshape(rho.lambdas.shape + rho.coeff_shape)
    inside = np.zeros(rho.coeff_shape, dtype=bool)
    inside[(slice(3, 9), slice(8, 13))[:d]] = True
    vectors[..., ~inside] = 0.0
    box = single_box([-0.3] * d, [0.2] * d, [-0.2] * d, [0.4] * d)
    want = _husimi_mass_of_pairs(rho, box)
    assert husimi_mass_on_boxes(rho, box) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_erf_matches_scipy_to_one_ulp():
    x = np.linspace(-12.0, 12.0, 2_000_000)
    got, want = quantization.erf(x), erf(x)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    # the ends, where the erfc ratio would be inf / inf at |x| = inf
    ends = np.array([40.0, -40.0, np.inf, -np.inf, 0.0])
    with np.errstate(all="raise"):
        np.testing.assert_array_equal(quantization.erf(ends), [1.0, -1.0, 1.0, -1.0, 0.0])
    assert np.isnan(quantization.erf(np.array([np.nan, 1.0]))[0])


@pytest.mark.parametrize("name", ["line", "hexagonal"])
def test_husimi_mass_on_boxes_with_scipy_erf(monkeypatch, name):
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    rho = random_density(lat, 2, 0.3, 2, seed=d)
    box = single_box([-0.3] * d, [0.2] * d, [-0.5] * d, [0.7] * d)
    mass = husimi_mass_on_boxes(rho, box)
    monkeypatch.setattr(quantization, "erf", erf)
    assert mass == pytest.approx(husimi_mass_on_boxes(rho, box), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_husimi_mass_is_the_grid_limit(name):
    # halving the oracle's midpoint spacings cuts its error by about 4
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    rho = random_density(lat, 2 if d < 3 else 1, 0.3, 2, seed=d)
    box = single_box([-0.3] * d, [0.2] * d, [-0.5] * d, [0.7] * d)
    exact = husimi_mass_on_boxes(rho, box)
    errs = [abs(husimi_mass_grid(rho, box, 0.1 / f, 0.2 / f) / exact - 1.0) for f in (1, 2)]
    assert errs[0] < 3e-2
    assert errs[0] / errs[1] > 3.0


def test_husimi_of_toeplitz_sharpens_with_hbar(lat1):
    # round trip blurs the density by a packet width; the total-variation gap
    # to the symbol shrinks as hbar does (golden values frozen from this grid)
    golden = {0.2: 0.542158, 0.1: 0.443268, 0.05: 0.318585}

    def fn(q, p):
        return np.exp(-q[:, 0] ** 2 / (2 * 0.16 ** 2) - p[:, 0] ** 2 / (2 * 0.22 ** 2))

    tvs = []
    for hbar, expected in golden.items():
        m = max(32, int(np.ceil(4 / np.sqrt(hbar))))
        f = PhaseSpaceDensity.from_function(fn, lat1, 16, 48, 1.2)
        rho = toeplitz_quantize(f, lat1, KGrid.monkhorst_pack(lat1, 8), m, hbar)
        qs = position_grid(lat1, 16)
        p_max = 1.2 + 7 * np.sqrt(hbar)
        npd = 96
        dp = 2 * p_max / npd
        ps = (-p_max + (np.arange(npd) + 0.5) * dp).reshape(-1, 1)
        w = husimi(rho, qs, ps, grid_weight(lat1, 16) * dp)
        fv = fn(w.nodes_q, w.nodes_p)
        fv /= np.sum(fv * w.weights)
        tv = 0.5 * float(np.sum(np.abs(w.values / w.mass - fv) * w.weights))
        assert tv == pytest.approx(expected, abs=1e-2)
        tvs.append(tv)
    assert tvs[0] > tvs[1] > tvs[2]


def test_trajectory_dump(tmp_path, lat1):
    from blochlab.classical_dynamics import TrigPotential
    from oracles import dump_trajectory_csv
    v = cosine_potential(lat1, (1,), 0.1)
    path = tmp_path / "traj.csv"
    dump_trajectory_csv(path, [0.0], [0.7], 1.0, v, dt=1e-2, n_samples=10)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,xi0"
    assert len(lines) == 12
    t, x, xi = (float(v) for v in lines[-1].split(","))
    assert t == pytest.approx(1.0)


def test_phase_boxset_membership():
    k = single_box([-0.5], [0.5], [1.0], [2.0])
    assert k.contains(np.array([[0.0]]), np.array([[1.5]]))[0]
    assert not k.contains(np.array([[0.0]]), np.array([[0.5]]))[0]
    # the box is closed: its corners belong to it
    qg, pg = np.meshgrid([-0.5, 0.5], [1.0, 2.0])
    assert np.all(k.contains(qg.reshape(-1, 1), pg.reshape(-1, 1)))


def test_phase_boxset_rejects_inverted_boxes():
    with pytest.raises(ValueError, match="lo <= hi"):
        PhaseBoxSet([[[0.5], [-0.5]]], [[[1.0], [2.0]]])
    with pytest.raises(ValueError, match="lo <= hi"):
        PhaseBoxSet([[[-0.5], [0.5]]], [[[2.0], [1.0]]])
    # a closed box may be flat: lo = hi is a face, which contains its points
    flat = PhaseBoxSet([[[-0.1], [0.1]]], [[[0.0], [0.0]]])
    assert flat.contains(np.array([[0.0]]), np.array([[0.0]]))[0]
