import numpy as np
import pytest
from scipy.integrate import quad

from blochlab import KGrid, LatticeSpec, PhaseSpaceDensity, TrigPotential, position_grid, \
    toeplitz_quantize
from blochlab.bloch import g_vectors
from blochlab.quantization import husimi, momentum_grid
from blochlab.quantum_dynamics import FiberHamiltonian, propagate_batch
from blochlab.states import _ROUNDOFF, _floored_gaussian, _packet_box, _packet_floor, \
    coherent_coeff_batch

from conftest import LATTICES
from oracles import (CoherentParams, bloch_transform, coherent_coeff_unfloored,
                     coherent_planewave_coeffs, coherent_state, default_window,
                     husimi_unfloored, periodized_coherent, periodized_coherent_direct,
                     zero_potential)

# (lattice, hbar, m): the 1-D acceptance scale, a hexagonal cell as in the 2-D
# benchmark and a skew 3-D cell; each leaves part of the window below the floor.
FLOOR_CASES = [("line", 1e-3, 384), ("hexagonal", 0.03, 24), ("skew", 0.003, 24)]


def _centres(d: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, (n, d)), rng.uniform(-1.0, 1.0, (n, d))


def _subnormal_count(a: np.ndarray) -> int:
    x = a.view(float)
    return int(np.sum((x != 0.0) & (np.abs(x) < np.finfo(float).tiny)))


def _floor_case(name, hbar, m):
    """Ten packets of a ``FLOOR_CASES`` entry, their unfloored oracle and their floor."""
    lat = LatticeSpec(np.array(LATTICES[name]))
    qs, ps = _centres(lat.dimension, 10, seed=3)
    c = coherent_coeff_batch(qs, ps, hbar, lat, m)
    ref = coherent_coeff_unfloored(qs, ps, hbar, lat, m)
    amp = (4.0 * np.pi * hbar) ** (lat.dimension / 4.0) / np.sqrt(lat.cell_volume)
    return lat, qs, ps, c, ref, _packet_floor(amp)


@pytest.mark.parametrize("name, hbar, m", FLOOR_CASES)
def test_packet_coefficients_are_zero_or_above_the_floor(name, hbar, m):
    lat, qs, ps, c, ref, floor = _floor_case(name, hbar, m)
    kept = c != 0.0
    assert 0 < np.count_nonzero(kept) < kept.size
    assert np.all(np.abs(c[kept]) >= floor)
    assert np.all(np.abs(ref[~kept]) < floor)
    # the phase argument (p - hbar G).q / hbar is a sum of d products; summed
    # in another order it may move by an ulp of its largest term
    terms = np.abs(ps[:, None, :] - hbar * g_vectors(lat, m)) * np.abs(qs)[:, None, :] / hbar
    err = np.abs(c[kept] - ref[kept]) / np.abs(ref[kept])
    assert np.all(err <= 1e-15 * (1.0 + np.sum(terms, axis=-1)[kept]))


@pytest.mark.parametrize("name, hbar, m", FLOOR_CASES)
def test_dropped_packet_tail_is_within_eight_roundoffs(name, hbar, m):
    # the floor is u times the Gaussian's peak, so the dropped tail of a packet
    # of norm about 1 is a few u in norm (6.0u at worst, on the skew cell); the
    # bound is absolute, since packets far outside the window have norm ~4e-15
    *_, c, ref, _ = _floor_case(name, hbar, m)
    assert np.all(np.linalg.norm(c - ref, axis=-1) <= 8.0 * _ROUNDOFF)


@pytest.mark.parametrize("name, hbar, m", FLOOR_CASES)
def test_packets_on_their_index_box_are_bitwise_those_of_the_window(name, hbar, m):
    # the builder evaluates the Gaussian on the batch's index box only; the
    # window-wide kernel gives the same bits, also for momenta whose box the
    # window edge clips (index centre m - 1 and -m - 2 on some axis) and for
    # one whose support lies outside the window (it is all zero)
    lat, qs, ps, c, *_, floor = _floor_case(name, hbar, m)
    d = lat.dimension
    amp = (4.0 * np.pi * hbar) ** (d / 4.0) / np.sqrt(lat.cell_volume)
    n = 2 * m + 1
    # the box of these packets is smaller than the window, but on the skew
    # cell, where one packet's support is wider than the window
    sizes = [s.stop - s.start for s in _packet_box(ps, hbar, lat, m, amp)]
    assert name == "skew" or np.prod(sizes) < n ** d
    edge = np.zeros((3, d))
    edge[0, 0], edge[1, -1], edge[2, 0] = m - 1, -m - 2, 3 * m
    edge_ps = hbar * edge @ lat.reciprocal
    clipped = _packet_box(edge_ps[:2], hbar, lat, m, amp)
    assert clipped[0].stop == n and clipped[-1].start == 0
    for q, p in ((qs, ps), (qs[:3], edge_ps)):
        boxed = coherent_coeff_batch(q, p, hbar, lat, m)
        whole = _floored_gaussian(q, p, hbar * g_vectors(lat, m), hbar, amp)
        assert boxed.tobytes() == whole.tobytes()
    assert np.any(boxed[:2]) and not np.any(boxed[2])


def _hexagonal_toeplitz(seed: int):
    lat = LatticeSpec(np.array(LATTICES["hexagonal"]))
    qs, ps = _centres(2, 30, seed)
    weights = np.full(30, 1.0 / 30)
    f = PhaseSpaceDensity(qs, ps, weights, np.ones(30))
    return toeplitz_quantize(f, lat, KGrid.monkhorst_pack(lat, 2), 24, 0.03)


def test_compressed_and_evolved_vectors_hold_no_subnormal():
    rho, _ = _hexagonal_toeplitz(seed=5).compressed(1e-10)
    assert _subnormal_count(rho.vectors) == 0
    cosine = TrigPotential(rho.lat, [((1, 0), 0.1, 0.0), ((0, 1), 0.05, 0.3)])
    for potential in (zero_potential(rho.lat), cosine):
        h = FiberHamiltonian(rho.lat, rho.m, rho.kgrid.points, potential, rho.hbar)
        vectors = rho.window_vectors()
        for _ in range(20):
            propagate_batch(vectors, h, 0.05, 0.01)
        assert _subnormal_count(vectors) == 0


def test_husimi_matches_the_unfloored_window():
    rho = _hexagonal_toeplitz(seed=7)
    qs, (ps, _) = position_grid(rho.lat, 6), momentum_grid(2, 7, 1.2)
    values = husimi(rho, qs, ps, 1.0).values
    ref = husimi_unfloored(rho, qs, ps, 1.0)
    np.testing.assert_allclose(values, ref, rtol=1e-14, atol=0.0)


def test_coherent_peak_value():
    cp = CoherentParams([0.0], [0.0], 1.0)
    assert coherent_state(cp, np.array([0.0])) == pytest.approx(np.pi ** -0.25)


def test_coherent_envelope_symmetry(rng):
    cp = CoherentParams([0.3], [0.7], 0.2)
    s = rng.uniform(0, 1, 20)
    left = np.abs(coherent_state(cp, (0.3 - s)[:, None]))
    right = np.abs(coherent_state(cp, (0.3 + s)[:, None]))
    np.testing.assert_allclose(left, right, rtol=1e-13)


def test_coherent_normalization_quadrature():
    hbar = 0.07
    cp = CoherentParams([0.2], [0.9], hbar)
    lim = 10 * np.sqrt(hbar)
    val = quad(lambda y: np.abs(coherent_state(cp, np.array([y]))) ** 2,
               0.2 - lim, 0.2 + lim, limit=200)[0]
    assert val == pytest.approx(1.0, abs=1e-10)


def test_invalid_hbar():
    with pytest.raises(ValueError):
        CoherentParams([0.0], [0.0], 0.0)


@pytest.mark.parametrize("hbar", [0.1, 0.02])
def test_closed_form_coeffs_vs_grid_quadrature(rng, lat1, hbar):
    # oracle: build the periodization by explicit lattice sum on the grid
    m = 64
    l_cut = default_window(lat1, hbar, 0.5)
    for _ in range(4):
        q = rng.uniform(-0.5, 0.5, 1)
        p = rng.uniform(-1.0, 1.0, 1)
        k = rng.uniform(-np.pi, np.pi, 1)
        cp = CoherentParams(q, p, hbar)
        closed = coherent_planewave_coeffs(cp, lat1, k, m)
        shifted = CoherentParams(q, p - hbar * k, hbar)
        direct = periodized_coherent_direct(shifted, lat1, m, l_cut)
        assert np.max(np.abs(closed - direct.coeffs)) < 1e-10


def test_coeffs_centered_real_even(lat1):
    cp = CoherentParams([0.0], [0.0], 0.05)
    c = coherent_planewave_coeffs(cp, lat1, np.zeros(1), 32)
    np.testing.assert_allclose(c.imag, 0.0, atol=1e-14)
    np.testing.assert_allclose(c, c[::-1], atol=1e-14)


def test_translation_covariance(lat1):
    # shifting the center by a lattice vector multiplies the packet by the
    # global gauge phase exp(i p.l / hbar); the projector (all physical
    # quantities) is exactly invariant, and so are the moduli
    hbar, p = 0.05, 0.4
    a = coherent_planewave_coeffs(CoherentParams([0.13], [p], hbar), lat1, np.zeros(1), 48)
    b = coherent_planewave_coeffs(CoherentParams([1.13], [p], hbar), lat1, np.zeros(1), 48)
    gauge = np.exp(1j * p * 1.0 / hbar)
    assert np.max(np.abs(b - gauge * a)) < 1e-12
    np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-13)
    proj_a = np.outer(a, a.conj())
    proj_b = np.outer(b, b.conj())
    assert np.max(np.abs(proj_a - proj_b)) < 1e-12


def test_periodized_periodic_in_q(lat2):
    hbar = 0.1
    p = np.array([0.3, 0.0])
    a = periodized_coherent(CoherentParams([0.1, -0.2], p, hbar), lat2, 16)
    b = periodized_coherent(CoherentParams([1.1, -1.2], p, hbar), lat2, 16)
    gauge = np.exp(1j * p @ np.array([1.0, -1.0]) / hbar)
    assert np.max(np.abs(b.coeffs - gauge * a.coeffs)) < 1e-12


def test_periodized_norm_small_hbar(lat1):
    pc = periodized_coherent(CoherentParams([0.0], [0.0], 0.01), lat1, 64)
    assert pc.norm_sq == pytest.approx(1.0, abs=1e-10)


def test_fiber_averaged_normalization(lat1):
    # k-averaged squared norm of the fiber family is exactly one
    hbar, m, nk = 0.05, 64, 16
    kg = KGrid.monkhorst_pack(lat1, nk)
    cp = CoherentParams([0.2], [0.6], hbar)
    norms = np.array([
        np.sum(np.abs(coherent_planewave_coeffs(cp, lat1, kg.points[i], m)) ** 2)
        for i in range(nk)])
    assert np.mean(norms) == pytest.approx(1.0, abs=1e-8)
    # a single fiber deviates from one at moderate hbar; only the average is exact
    assert np.max(np.abs(norms - 1.0)) > 1e-6


@pytest.mark.parametrize("hbar", [0.1, 0.02])
def test_bloch_identity_coherent(rng, lat1, hbar):
    m, nk = 64, 8
    kg = KGrid.monkhorst_pack(lat1, nk)
    l_cut = default_window(lat1, hbar, 0.5)
    for _ in range(5):
        cp = CoherentParams(rng.uniform(-0.5, 0.5, 1), rng.uniform(-1, 1, 1), hbar)
        state = bloch_transform(lambda p: coherent_state(cp, p), lat1, kg, m, l_cut)
        for i in range(nk):
            ref = coherent_planewave_coeffs(cp, lat1, kg.points[i], m)
            assert np.max(np.abs(state.coeffs[i] - ref)) < 1e-9


def test_gaussian_moment_identities():
    # quadrature oracles for the moments used in the spread estimates
    for hbar in (0.1, 0.02):
        m2 = quad(lambda x: (np.pi * hbar) ** -0.5 * x * x * np.exp(-x * x / hbar),
                  -1.5, 1.5, limit=200)[0]
        m1 = quad(lambda x: (np.pi * hbar) ** -0.5 * x * np.exp(-x * x / hbar),
                  -1.5, 1.5, limit=200)[0]
        assert m2 == pytest.approx(hbar / 2, abs=1e-10)
        assert m1 == pytest.approx(0.0, abs=1e-12)


def test_truncation_clipping_raises(lat1):
    # large momentum with a small basis: the Gaussian profile hits the edge
    with pytest.raises(ValueError, match="clips the packet"):
        periodized_coherent(CoherentParams([0.0], [3.0], 0.02), lat1, 16)
