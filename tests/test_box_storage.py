"""Densities stored on the box of their nonzero coefficients against the whole window.

``toeplitz_quantize`` stores its packets on the smallest index box that holds
every nonzero coefficient; ``FiberedDensity.widen`` stores the same density on
the whole window.  Every kernel that reads the stored box gives the same
result either way: bit for bit where the arithmetic is the same (transforms,
phase multiplies, the band forms, everything at V != 0, where the evolution
widens the density first), and to rounding where a sum runs over more zeros
(traces, momentum moments, Husimi overlaps, the Gram matrices of
``compressed``).
"""

import numpy as np
import pytest

from blochlab import KGrid, LatticeSpec, PhaseSpaceDensity, gamma_bounds, toeplitz_quantize
from blochlab import quantum_dynamics
from blochlab.bloch import fft_threads, position_grid, window_box
from blochlab.lattice import Region
from blochlab.quantization import FiberedDensity, husimi, husimi_mass_on_boxes, momentum_grid
from blochlab.quantum_dynamics import evolution, observation_series
from blochlab.transport_metric import CostParams, _density_coeffs, coupling_energy_husimi, \
    stability_envelope

from conftest import LATTICES
from oracles import cosine_potential, single_box, zero_potential

# (lattice, m, hbar, momentum centre per axis): packets whose box is a small
# part of the window, and on the line one whose box the window edge clips
# (index centre m - 1 = 7 at p = 2 pi hbar 7)
CASES = [("line", 16, 0.1, 0.0), ("hexagonal", 8, 0.2, 0.0), ("skew", 5, 0.4, 0.0),
         ("line", 8, 0.1, 2.0 * np.pi * 0.1 * 7)]


def _datum(name, m, hbar, centre, n_nodes, seed=1):
    """A quantized density of ``n_nodes`` packets, equal weights, and its nodes."""
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    rng = np.random.default_rng(seed)
    f = PhaseSpaceDensity(rng.uniform(-0.4, 0.4, (n_nodes, d)),
                          centre + rng.uniform(-0.5, 0.5, (n_nodes, d)),
                          np.full(n_nodes, 1.0 / n_nodes), np.ones(n_nodes))
    return f, toeplitz_quantize(f, lat, KGrid.monkhorst_pack(lat, 2), m, hbar)


def _copy(rho, wide=False):
    out = FiberedDensity(rho.kgrid, rho.lat, rho.m, rho.hbar, rho.lambdas.copy(),
                         rho.vectors.copy(), rho.box)
    if wide:
        out.widen()
    return out


def _fiber_operator(rho, probes):
    """sum_j lambda_j v_j <v_j, x> for probe vectors x, shape (n_k, n_G, p), on the window."""
    v = rho.window_vectors()
    return np.swapaxes(v * rho.lambdas[:, :, None], 1, 2) @ (np.conj(v) @ probes)


def _outputs(f, rho0, potential):
    """Every box-reading kernel on copies of ``rho0``; the stored box is whatever ``rho0`` has."""
    lat, d = rho0.lat, rho0.lat.dimension
    rho = _copy(rho0)
    omega = Region([[[-0.1] * d, [0.15] * d]], lat)
    mask = rho.region_mask(omega, 0.05)
    out = {"traces": rho.fiber_traces(), "expectations": rho.grid_expectations(mask),
           "masked_trace": rho.masked_trace(mask)}
    out.update(zip(("N", "P", "Q"), rho.momentum_moments()))
    small, tail = rho.compressed(1e-10)
    probes = np.random.default_rng(7).standard_normal((rho.kgrid.size, (2 * rho.m + 1) ** d, 3))
    out.update(compressed=_fiber_operator(small, probes), rank=small.rank, tail=tail,
               compressed_box=small.box == rho.box)
    qs, (ps, _) = position_grid(lat, 4), momentum_grid(d, 4, 1.5)
    out["husimi"] = husimi(rho, qs, ps, 1.0).values
    out["husimi_mass"] = husimi_mass_on_boxes(
        rho, single_box([-0.3] * d, [0.2] * d, [-0.5] * d, [0.7] * d))
    out["density_coeffs"] = _density_coeffs(rho)
    if rho.rank == 1:
        ce = coupling_energy_husimi(rho)
        out["husimi_energy"] = np.array([ce.total, ce.std_dev, ce.c_bold, ce.bound])
    out["series"] = observation_series(_copy(rho0), mask, potential, 0.2, 4, 1e-2)
    moved = _copy(rho0)
    for _ in evolution(moved, potential, 0.2, 4, 1e-2):
        pass
    out["evolved"] = moved.window_vectors()
    out["envelope"] = stability_envelope(f, _copy(rho0), CostParams(1.0, gamma_bounds(lat)),
                                         potential, 0.2, 4, 1e-2, lipschitz=0.0).energies
    return out


# outputs the same bit for bit on either box; the others are sums over more zeros
_BITWISE = {"expectations", "masked_trace", "rank", "compressed_box", "density_coeffs",
            "series", "evolved"}


def _assert_same(got, want, bitwise):
    for key, value in want.items():
        if key in bitwise:
            # equal values; a zero may differ in sign
            np.testing.assert_array_equal(got[key], value, err_msg=key)
        elif key == "tail":
            # a sum of eigenvalues below 1e-10 of the trace: its rounding is that of the trace
            assert abs(got[key] - value) <= 1e-15, key
        else:
            scale = np.max(np.abs(value))
            np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=1e-14 * scale,
                                       err_msg=key)


@pytest.mark.parametrize("name, m, hbar, centre", CASES)
@pytest.mark.parametrize("n_nodes", [1, 6, 60])
def test_every_kernel_on_the_box_is_that_of_the_window(name, m, hbar, centre, n_nodes):
    f, rho = _datum(name, m, hbar, centre, n_nodes)
    d = rho.lat.dimension
    n = 2 * m + 1
    assert rho.vectors.shape[-1] == np.prod(rho.box_shape) < n ** d
    if centre:
        assert rho.box[0].stop == n and rho.box[0].start > 0      # clipped by the window edge
    # compressed takes the (W, W) operator when the rank exceeds the support W
    support = np.count_nonzero(np.any(rho.vectors, axis=(0, 1)))
    assert (n_nodes > support) == (n_nodes == 60 and name != "skew")
    boxed = _outputs(f, rho, zero_potential(rho.lat))
    assert boxed["compressed_box"] and np.all(boxed["traces"] > 0.0)
    _assert_same(_outputs(f, _copy(rho, wide=True), zero_potential(rho.lat)), boxed, _BITWISE)


@pytest.mark.parametrize("name, m, hbar, centre", CASES[:2])
@pytest.mark.parametrize("band", [True, False])
def test_v_nonzero_widens_the_boxed_density_once(monkeypatch, name, m, hbar, centre, band):
    # at V != 0 the evolution stores the density on the whole window before
    # the band or Strang steps, so every output is that of the window bit for
    # bit, and on return the density is on the window
    f, rho = _datum(name, m, hbar, centre, 6)
    d = rho.lat.dimension
    potential = cosine_potential(rho.lat, (1,) + (0,) * (d - 1), 0.1)
    monkeypatch.setattr(quantum_dynamics, "_band_path", lambda *args: band)
    boxed = _outputs(f, rho, potential)
    _assert_same(_outputs(f, _copy(rho, wide=True), potential), boxed,
                 _BITWISE | {"envelope"})
    moved = _copy(rho)
    assert moved.box != window_box(2 * m + 1, d)
    observation_series(moved, moved.region_mask(Region([[[-0.1] * d, [0.1] * d]], moved.lat)),
                       potential, 0.2, 2, 1e-2)
    assert moved.box == window_box(2 * m + 1, d)
    assert moved.vectors.shape[-1] == (2 * m + 1) ** d and moved.vectors.flags.c_contiguous


@pytest.mark.parametrize("name, m, hbar, centre", CASES)
def test_box_outputs_are_bitwise_the_same_on_one_two_and_three_threads(name, m, hbar, centre):
    f, rho = _datum(name, m, hbar, centre, 6)
    one = _outputs(f, rho, zero_potential(rho.lat))
    for threads in (2, 3):
        with fft_threads(threads):
            _assert_same(_outputs(f, rho, zero_potential(rho.lat)), one, set(one))


@pytest.mark.parametrize("name, m, hbar, centre", CASES[:3])
def test_all_zero_density_has_the_empty_box(name, m, hbar, centre):
    # trimmed to the empty box: zero traces, moments, Husimi values and mass,
    # observation and envelope, on the box and on the window alike
    f, rho = _datum(name, m, hbar, centre, 1)
    d = rho.lat.dimension
    rho.vectors[:] = 0.0
    zero = rho.trimmed()
    assert zero.box == (slice(0, 0),) * d and zero.vectors.shape == rho.lambdas.shape + (0,)
    for density in (zero, _copy(zero, wide=True)):
        out = _outputs(f, density, zero_potential(density.lat))
        for key in ("traces", "expectations", "N", "P", "Q", "husimi", "density_coeffs",
                    "series", "evolved", "envelope", "husimi_energy"):
            assert not np.any(out[key]), key
        assert out["masked_trace"] == 0.0 and out["husimi_mass"] == 0.0
        assert out["rank"] == 1 and out["tail"] == 0.0
    moved = _copy(zero)
    for _ in evolution(moved, cosine_potential(moved.lat, (1,) + (0,) * (d - 1), 0.1),
                       0.2, 2, 1e-2):
        pass
    assert moved.box == window_box(2 * moved.m + 1, d) and not np.any(moved.vectors)


def test_box_must_fit_the_window_and_the_vectors(lat1):
    kg = KGrid.monkhorst_pack(lat1, 2)
    lam = np.ones((2, 1))
    FiberedDensity(kg, lat1, 4, 0.1, lam, np.zeros((2, 1, 3)), (slice(2, 5),))
    for box, cells in (((slice(2, 5),), 4), ((slice(7, 10),), 3), ((slice(3, 2),), 0),
                       ((slice(0, 3), slice(0, 3)), 9)):
        with pytest.raises(ValueError):
            FiberedDensity(kg, lat1, 4, 0.1, lam, np.zeros((2, 1, cells)), box)
