import numpy as np
import pytest
from scipy.integrate import quad

from blochlab import KGrid

from oracles import (CoherentParams, bloch_transform, coherent_planewave_coeffs, coherent_state,
                     default_window, periodized_coherent, periodized_coherent_direct)


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
