"""Discrete Bloch transform between wave packets on R^d and fibered periodic fields.

A periodic field is stored by its plane-wave coefficients ``c_n`` on the
centered index grid ``n in [-M..M]^d`` for the orthonormal basis
``e_G(y) = exp(i G . y) / sqrt(|cell|)`` with ``G = n @ B``.  Position-space
values live on the uniform fractional grid ``t_j = j/N - 1/2`` (N odd), so
coefficient/value conversion is an FFT with an alternating-sign twist.

The quasimomentum grid is a Monkhorst-Pack-style uniform grid shifted off the
reciprocal-cell boundary; the normalized cell average over k becomes a plain
mean over grid points.  With that pairing the transform is exactly unitary on
functions supported inside the N_k-cell window (the discrete k average kills
all cross terms between distinct translates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import AccuracyError
from .lattice import LatticeSpec


def centered_indices(m: int, d: int) -> np.ndarray:
    """Integer index grid, shape ((2m+1)^d, d), in C order of the coefficient array."""
    axis = np.arange(-m, m + 1)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def g_vectors(lat: LatticeSpec, m: int) -> np.ndarray:
    """Reciprocal vectors G = n @ B on the centered index grid, shape ((2m+1)^d, d)."""
    return centered_indices(m, lat.dimension) @ lat.reciprocal


def _alt_sign(n: int, d: int) -> np.ndarray:
    """(-1)^(sum n_i) over the centered index grid -m..m, outer product over d axes."""
    m = (n - 1) // 2
    one = np.where(np.arange(-m, m + 1) % 2 == 0, 1.0, -1.0)
    out = one
    for _ in range(d - 1):
        out = np.multiply.outer(out, one)
    return out


def _twisted(coeffs: np.ndarray, nout: int, d: int) -> np.ndarray:
    """ifftshift of the zero-padded, sign-twisted coefficients, without a roll.

    Centered coefficient n (d trailing axes, -m..m) times (-1)^(sum n_i) is
    written straight to FFT position n mod nout, so padding, twist and shift
    are one pass into a fresh (..., nout, ..., nout) array.
    """
    nin = coeffs.shape[-1]
    m = nin // 2
    alt = _alt_sign(nin, d)
    out = np.zeros(coeffs.shape[:coeffs.ndim - d] + (nout,) * d, dtype=complex)
    halves = ((slice(m, nin), slice(0, m + 1)), (slice(0, m), slice(nout - m, nout)))
    for parts in itertools.product(halves, repeat=d):
        src = tuple(p[0] for p in parts)
        np.multiply(coeffs[(Ellipsis,) + src], alt[src],
                    out=out[(Ellipsis,) + tuple(p[1] for p in parts)])
    return out


def position_grid(lat: LatticeSpec, n: int) -> np.ndarray:
    """Uniform grid of n^d points on the half-open cell, fractional t = j/n - 1/2."""
    d = lat.dimension
    axis = np.arange(n) / n - 0.5
    t = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return lat.from_fractional(t)


def grid_weight(lat: LatticeSpec, n: int) -> float:
    """Quadrature weight |cell| / n^d of the uniform position grid."""
    return lat.cell_volume / n ** lat.dimension


def quadrature_len(m: int) -> int:
    """Points per axis of the cell grid that every quadrature against |v|^2 uses.

    The smallest odd n >= 2m+1 that is 11-smooth (``scipy.fft.next_fast_len``),
    so the transforms avoid the prime-length fallback.  |v|^2 of an order-m
    field has frequencies up to 2m, so its grid sum is its exact integral for
    any n >= 2m+1.
    """
    n = 2 * m + 1
    while sfft.next_fast_len(n) != n:
        n += 2
    return n


def coeffs_to_values(coeffs: np.ndarray, lat: LatticeSpec, nout: int | None = None) -> np.ndarray:
    """Evaluate plane-wave coefficients on the position grid (batched over leading axes).

    ``coeffs`` has shape ``(..., 2M+1, ..., 2M+1)`` with d trailing axes; the
    result replaces them with ``(nout,)*d``.  ``nout`` must be odd and at
    least ``2M+1`` (zero padding gives anti-aliased evaluation).
    """
    d = lat.dimension
    nin = coeffs.shape[-1]
    if nout is None:
        nout = nin
    if nout % 2 == 0 or nout < nin:
        raise ValueError("nout must be odd and >= 2M+1")
    axes = tuple(range(coeffs.ndim - d, coeffs.ndim))
    vals = sfft.ifftn(_twisted(coeffs, nout, d), axes=axes, overwrite_x=True)
    vals *= nout ** d / np.sqrt(lat.cell_volume)
    return vals


def values_to_coeffs(values: np.ndarray, lat: LatticeSpec, m: int) -> np.ndarray:
    """Inverse of coeffs_to_values; truncates to order m (exact for band-limited data)."""
    d = lat.dimension
    n = values.shape[-1]
    if n % 2 == 0 or n < 2 * m + 1:
        raise ValueError("value grid must be odd and >= 2m+1")
    axes = tuple(range(values.ndim - d, values.ndim))
    spec = sfft.fftshift(sfft.fftn(values, axes=axes), axes=axes)
    spec = spec * (np.sqrt(lat.cell_volume) / n ** d) * _alt_sign(n, d)
    if n > 2 * m + 1:
        cut = (n - (2 * m + 1)) // 2
        sl = [slice(None)] * (values.ndim - d) + [slice(cut, n - cut)] * d
        spec = spec[tuple(sl)]
    return spec


@dataclass(frozen=True)
class KGrid:
    """Quasimomentum sample points in the reciprocal cell; fiber averages are plain means."""

    points: np.ndarray
    lat: LatticeSpec

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("k-grid must be nonempty")
        frac = pts @ np.linalg.inv(self.lat.reciprocal)
        if np.any(np.abs(frac) > 0.5 + 1e-12):
            raise ValueError("k-grid points must lie in the reciprocal cell")
        object.__setattr__(self, "points", pts)

    @classmethod
    def monkhorst_pack(cls, lat: LatticeSpec, nk: int) -> "KGrid":
        """Uniform nk^d grid, shifted half a step so the cell boundary is avoided."""
        d = lat.dimension
        axis = (np.arange(nk) + 0.5) / nk - 0.5
        u = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
        return cls(u @ lat.reciprocal, lat)

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class FiberedState:
    """One periodic field per k-grid point, stored as a stacked coefficient array."""

    kgrid: KGrid
    lat: LatticeSpec
    m: int
    coeffs: np.ndarray  # shape (n_k,) + (2m+1,)*d

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        want = (self.kgrid.size,) + (2 * self.m + 1,) * self.lat.dimension
        if self.coeffs.shape != want:
            raise ValueError(f"fibered coefficients must have shape {want}")

    def fiber_norms_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.coeffs.reshape(self.kgrid.size, -1)) ** 2, axis=1)


# Relative L2 mass allowed on the outer translate shell of ``bloch_transform`` is TAIL_TOL^2.
TAIL_TOL = 1e-10


def default_window(lat: LatticeSpec, hbar: float, gamma_minus: float) -> int:
    """Smallest l_cut at which a packet centred anywhere in the cell passes the tail check.

    |u|^2 of a coherent packet decays like exp(-|x - q|^2 / hbar).  The outer
    shell |n|_inf = l_cut lies at least (l_cut - 1) * 2 gamma_minus from any
    centre q in the cell (2 gamma_minus is the least distance between
    opposite faces), and the mass beyond a plane at distance D is below
    exp(-D^2 / hbar), which drops below ``TAIL_TOL``^2 for
    D >= sqrt(2 hbar ln(1 / TAIL_TOL)).
    """
    reach = np.sqrt(2.0 * hbar * np.log(1.0 / TAIL_TOL))
    return 1 + int(np.ceil(reach / (2.0 * gamma_minus)))


def bloch_transform(u, lat: LatticeSpec, kgrid: KGrid, m: int, l_cut: int,
                    tail_tol: float = TAIL_TOL) -> FiberedState:
    """Discrete Bloch transform of a decaying function on R^d.

    Parameters
    ----------
    u : callable
        Vectorized wave packet, maps an array of points (..., d) to complex
        amplitudes (...,).
    l_cut : int
        Lattice-sum window; translates with |n|_inf <= l_cut are summed.  The
        window should fit inside the k-grid supercell (2*l_cut+1 <= n_k per
        axis) or cross terms between far translates alias.
    tail_tol : float
        Relative L2 mass allowed on the outermost translate shell; exceeding
        it raises AccuracyError (window too small).

    The fiber at k holds the coefficients of
    ``x -> sum_ell u(x + ell) exp(-i k . (x + ell))`` on the cell grid.
    """
    d = lat.dimension
    n = 2 * m + 1
    x = position_grid(lat, n)
    window = centered_indices(l_cut, d)
    shifts = lat.lattice_vector(window)
    pts = x[None, :, :] + shifts[:, None, :]
    uvals = np.asarray(u(pts), dtype=complex)

    mass = np.sum(np.abs(uvals) ** 2, axis=1)
    shell = np.max(np.abs(window), axis=1) == l_cut
    total = float(np.sum(mass))
    if total > 0 and float(np.sum(mass[shell])) > tail_tol ** 2 * total:
        raise AccuracyError(
            f"translate window l_cut={l_cut} too small: outer-shell mass "
            f"{np.sum(mass[shell]) / total:.3e} of total exceeds tol^2")

    phase_shift = np.exp(-1j * kgrid.points @ shifts.T)          # (n_k, n_window)
    summed = phase_shift @ uvals                                 # (n_k, n_grid)
    fiber_vals = summed * np.exp(-1j * kgrid.points @ x.T)       # times e^{-ik.x}
    fiber_vals = fiber_vals.reshape((kgrid.size,) + (n,) * d)
    coeffs = values_to_coeffs(fiber_vals, lat, m)
    return FiberedState(kgrid, lat, m, coeffs)


def inverse_bloch(state: FiberedState, l_cut: int) -> np.ndarray:
    """Reconstruct the wave packet on the translate-window grid.

    Returns values of shape ``(n_window, n^d...)`` matching the point layout
    ``position_grid + translate``; the average over fibers implements the
    normalized-cell-average inversion formula.
    """
    lat, m = state.lat, state.m
    n = 2 * m + 1
    x = position_grid(lat, n)
    shifts = lat.lattice_vector(centered_indices(l_cut, lat.dimension))
    vals = coeffs_to_values(state.coeffs, lat, n).reshape(state.kgrid.size, -1)
    phase_x = np.exp(1j * state.kgrid.points @ x.T)              # (n_k, n_grid)
    phase_shift = np.exp(1j * state.kgrid.points @ shifts.T)     # (n_k, n_window)
    out = np.einsum("kw,kg->wg", phase_shift, vals * phase_x) / state.kgrid.size
    return out.reshape((shifts.shape[0],) + (n,) * lat.dimension)
