"""Plane-wave coefficients of periodic fields, their grid values, and the quasimomentum grid.

A periodic field is stored by its plane-wave coefficients ``c_n`` on the
centered index grid ``n in [-M..M]^d`` for the orthonormal basis
``e_G(y) = exp(i G . y) / sqrt(|cell|)`` with ``G = n @ B``.  Position-space
values live on the uniform fractional grid ``t_j = j/N - 1/2`` (N odd), so
coefficient/value conversion is an FFT with an alternating-sign twist.

Every transform is ``_fft``: one in-place ``numpy.fft`` pass per trailing
axis, last axis first, each line transformed on its own, and the inverse
unnormalized, so callers fold 1/N^d into a scale they apply anyway.  Within
``fft_threads(n)`` the leading axis of a block is split over n threads, so
the result does not depend on n, bit for bit.

Coefficients meet the grid in one layout, the head layout of ``_to_head``:
the coefficient c_n sits at position j = n + m of each axis (the head) of a
work block whose tail is zero, twisted by (-1)^(sum j), and the inverse FFT
runs each axis only within the head of the axes before it.  A caller whose
coefficients are stored on an index box of the window (``FiberedDensity``)
passes the box instead of the head: only the box is copied in, and each
axis is transformed only on the lines inside the box on the axes before it
(FFT pruning: the lines left out are zero).  Each line that is transformed
holds the same values either way, so the result is the same bit for bit.
That transform is the grid values times the ramp exp(2 pi i m j / N) and
the sign (-1)^m per axis, a unimodular factor, and times the constant
sqrt(|cell|) that the coefficient normalization leaves in.  A quadrature
against |v|^2 (``squared_values``) needs only the modulus, where the ramp
drops out.  The split step
multiplies the values by a potential factor, which commutes with the ramp,
so the forward FFT gives the window back at the head
(``quantum_dynamics.propagate_batch``).  Grid functions go to coefficients
by the offset read of ``_offset_coefficients``: one inverse FFT read at each
offset D mod N.

The quasimomentum grid is a Monkhorst-Pack-style uniform grid shifted off the
reciprocal-cell boundary; the normalized cell average over k becomes a plain
mean over grid points.
"""

from __future__ import annotations

import contextlib
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.fft

from .lattice import LatticeSpec

# Threads of the running command and the pool of all but the calling one (``fft_threads``).
_threads, _pool = 1, None


@contextlib.contextmanager
def fft_threads(n: int):
    """Within the block, ``_fft`` splits the leading axis of a block over n threads."""
    global _threads, _pool
    if n <= 1:
        yield
        return
    with ThreadPoolExecutor(n - 1) as pool:
        _threads, _pool = n, pool
        try:
            yield
        finally:
            _threads, _pool = 1, None


def _fft_lines(x: np.ndarray, d: int, inverse: bool, box: tuple | None) -> None:
    # norm="forward" leaves the inverse unscaled, as "backward" leaves the forward one
    transform, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    lines = (slice(None),) * d if box is None else box
    for i in reversed(range(d)):
        part = x[(Ellipsis,) + lines[:i] + (slice(None),) * (d - i)]
        transform(part, axis=i - d, norm=norm, out=part)


def _fft(x: np.ndarray, d: int, inverse: bool = False, box: tuple | None = None) -> np.ndarray:
    """FFT (``inverse``: inverse FFT) of the complex block ``x`` over its d trailing axes.

    In place, the axes last first, as in ``numpy.fft.fftn``; the inverse is
    unnormalized, N^d times ``numpy.fft.ifftn``.  Given ``box``, one slice
    per trailing axis, ``x`` must vanish outside the box, and each axis is
    transformed only on the lines that lie inside the box on the axes before
    it: the lines outside are zero and stay zero.  The head of ``_to_head``
    is the box of the whole window.  Inside ``fft_threads`` the leading axis
    is cut into that many near-equal parts, one per thread.  Returns ``x``.
    """
    parts = min(_threads, x.shape[0]) if x.ndim > d else 1
    if parts <= 1:
        _fft_lines(x, d, inverse, box)
        return x
    cuts = [x.shape[0] * i // parts for i in range(parts + 1)]
    jobs = [_pool.submit(_fft_lines, x[a:b], d, inverse, box)
            for a, b in zip(cuts[1:-1], cuts[2:])]
    _fft_lines(x[:cuts[1]], d, inverse, box)
    for job in jobs:
        job.result()
    return x


def centered_indices(m: int, d: int) -> np.ndarray:
    """Integer index grid, shape ((2m+1)^d, d), in C order of the coefficient array."""
    axis = np.arange(-m, m + 1)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def g_vectors(lat: LatticeSpec, m: int) -> np.ndarray:
    """Reciprocal vectors G = n @ B on the centered index grid, shape ((2m+1)^d, d)."""
    return centered_indices(m, lat.dimension) @ lat.reciprocal


@functools.cache
def _alt_sign(n: int, d: int) -> np.ndarray:
    """(-1)^(sum j_i) over the positions j = 0..n-1 of d axes, an outer product.

    On the 4m+1 offsets D = j - 2m of ``_offset_coefficients`` that is
    (-1)^(sum D).  Built once per (n, d) and read-only, since every transform
    reads it.
    """
    one = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    out = one
    for _ in range(d - 1):
        out = np.multiply.outer(out, one)
    out.flags.writeable = False
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

    The smallest odd n >= 2m+1 with no prime factor above 11, so the
    transforms avoid the prime-length fallback.  |v|^2 of an order-m field has
    frequencies up to 2m, so its grid sum is its exact integral for any
    n >= 2m+1.
    """
    n = 2 * m + 1
    while True:
        rest = n
        for p in (3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 2


def window_box(n: int, d: int) -> tuple:
    """The index box of the whole order-m window, n = 2m+1 points on each of d axes."""
    return (slice(0, n),) * d


def _to_head(coeffs: np.ndarray, work: np.ndarray, d: int, box: tuple) -> np.ndarray:
    """The head layout: twisted coefficients at the head of ``work``, zeros elsewhere.

    ``coeffs`` holds the coefficients of an index box of the order-m window,
    shape ``(..., b_1, ..., b_d)`` with d trailing axes, and ``box`` is that
    box, one slice per axis of the window (``window_box`` for the whole
    window); every coefficient outside it is zero.  ``work`` is a complex
    block ``(..., N, ..., N)`` with N >= 2m+1, whose contents are
    overwritten: the coefficient at window position j (index n = j - m)
    goes to position j of each axis, times (-1)^(sum j), and the rest of
    ``work`` is zeroed.  Then ``_fft(work, d, inverse=True, box=box)`` gives
    the grid values times sqrt(|cell|), the ramp exp(2 pi i m j / N) and the
    sign (-1)^m per axis.  Returns ``work``.
    """
    if any(s.stop > work.shape[-1] for s in box):
        raise ValueError("work block must have at least 2m+1 points per axis")
    work.fill(0)
    np.multiply(coeffs, _alt_sign(work.shape[-1], d)[box], out=work[(Ellipsis,) + box])
    return work


def _from_head(work: np.ndarray, out: np.ndarray, d: int) -> np.ndarray:
    """Inverse of ``_to_head`` on the whole window: the head of ``work`` twisted back into ``out``.

    ``out`` has shape ``(..., 2m+1, ..., 2m+1)`` with d trailing axes.  Returns ``out``.
    """
    nin = out.shape[-1]
    return np.multiply(work[(Ellipsis,) + (slice(0, nin),) * d], _alt_sign(nin, d), out=out)


def squared_values(coeffs: np.ndarray, work: np.ndarray, d: int, box: tuple | None = None
                   ) -> np.ndarray:
    """|v|^2 on the N-point grid per axis, times |cell|, squared in place in ``work``.

    ``coeffs`` holds the coefficients of the index box ``box`` of the
    order-m window, shape ``(..., b_1, ..., b_d)`` with d trailing axes, one
    slice of the window per axis; when ``box`` is None, ``coeffs`` is the
    whole window.  Every coefficient outside the box is zero.  ``work`` is a
    complex block ``(..., N, ..., N)`` with N >= 2m+1, whose contents are
    overwritten.  The box goes to the head of ``work`` (``_to_head``) and the
    inverse FFT runs in place, each axis only on the lines inside the box on
    the axes before it; the result is the grid values times a unimodular
    factor per point and sqrt(|cell|), so its squared modulus is |v|^2 |cell|,
    the same bit for bit for every box that holds the nonzero coefficients.
    Returns the float view of the block, shape ``(..., 2 N^d)``: re^2 and
    im^2 of each grid value, interleaved.
    """
    box = window_box(coeffs.shape[-1], d) if box is None else box
    _fft(_to_head(coeffs, work, d, box), d, inverse=True, box=box)
    sq = work.reshape(work.shape[:work.ndim - d] + (-1,)).view(float)
    return np.multiply(sq, sq, out=sq)


def _offset_coefficients(values: np.ndarray, lat: LatticeSpec, m: int) -> np.ndarray:
    """X(D) = sum_y values(y) exp(i G_D . y) / |cell| at every offset D of two order-m indices.

    ``values`` holds grid functions on an N-point grid per axis, shape
    ``(..., N, ..., N)`` with d trailing axes, like a region mask of
    ``FiberedDensity.region_mask`` on its ``quadrature_len(m)`` grid; the
    result has shape ``(..., (4m+1)^d)``, D running over -2m..2m per axis in
    the C order of ``centered_indices(2m, d)``.  On the grid t = j/N - 1/2,
    exp(i G_D . y) = (-1)^(sum D) exp(2 pi i D.j / N), so X(D) is one inverse
    FFT of the grid read at D mod N, times that sign: for N < 4m+1 the offsets
    alias, as the grid sums they stand for do, and for N >= 4m+1 they do not.
    """
    d = lat.dimension
    spec = _fft(values.astype(complex), d, inverse=True)
    spec /= lat.cell_volume
    offsets = centered_indices(2 * m, d) % values.shape[-1]
    return spec[(Ellipsis,) + tuple(offsets.T)] * _alt_sign(4 * m + 1, d).reshape(-1)


def _offset_positions(m: int, d: int) -> np.ndarray:
    """Flat position of each order-m index in the (4m+1)^d offset grid, less that of 0.

    For order-m indices n, n' (C order of ``centered_indices(m, d)``),
    pos(n') - pos(n) + (4m+1)^d // 2 is the index of the offset n' - n in the
    C order of ``centered_indices(2m, d)``, the order of ``_offset_coefficients``.
    """
    return centered_indices(m, d) @ (4 * m + 1) ** np.arange(d - 1, -1, -1)


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
