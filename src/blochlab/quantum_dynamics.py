"""Fiber Hamiltonians, split-step propagation, the one evolution loop and its observation.

Fiber vectors live on the plane-wave window of order m; the split step applies
the potential on the ``quadrature_len(m)`` cell grid and projects back onto it.
Its factors are set up once per (t, dt), and each step transforms the whole
(n_k, batch) block at once in one padded work array.  ``evolution`` applies
it at every sample, or, where that costs fewer flops, once to an identity
block, and then multiplies by the one-sample matrix it returns.
``observation_series`` reads the masked trace at every sample of
``evolution``, or, at V = 0 where that costs fewer flops, evaluates every
sample as a Hermitian form per fiber and moves the vectors to the horizon in
one exact phase multiply.

Sign convention: the density evolves as ``R(t) = U(t)^* R_in U(t)`` where the
adjoint ``U(t)^*`` acts on fiber vectors as the standard forward propagator
``exp(-i t H_k / hbar)``; that is what ``propagate_batch`` applies.  The
stability estimates downstream depend on this pairing of quantum forward
propagation with the forward classical flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .bloch import _fft_blocks, _twisted, _untwisted, g_vectors, position_grid, quadrature_len
from .classical_dynamics import TrigPotential, _step_count, flow
from .lattice import LatticeSpec
from .quantization import _CHUNK_BYTES, _FORM_ROWS, FiberedDensity


@dataclass
class FiberHamiltonian:
    """H_k = |hbar(k + G)|^2 / 2 + V for the fiber quasimomenta ``k``, shape (n_k, d).

    Only the kinetic diagonal, shape (n_k, (2m+1)^d), depends on k; V is
    sampled once on the ``quadrature_len(m)``^d cell grid.  The propagation
    factors of the last (t, dt) that ``propagate_batch`` was called with are
    kept, since an observation loop advances by the same (t, dt) each sample.
    """

    lat: LatticeSpec
    m: int
    k: np.ndarray
    potential: TrigPotential
    hbar: float

    def __post_init__(self):
        d = self.lat.dimension
        self.k = np.atleast_2d(np.asarray(self.k, dtype=float))
        if self.k.shape[1:] != (d,):
            raise ValueError(f"k must have shape (n_k, {d})")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        shifted = g_vectors(self.lat, self.m)[None, :, :] + self.k[:, None, :]
        self.kinetic_diagonal = 0.5 * self.hbar ** 2 * np.sum(shifted * shifted, axis=-1)
        n = quadrature_len(self.m)
        self.potential_values = self.potential.value(position_grid(self.lat, n)) \
            .reshape((n,) * d)
        self._factors = (None, None)

    def _step_factors(self, t: float, dt: float):
        """The factors of ``propagate_batch`` for (t, dt), computed once per (t, dt).

        V = 0: the exact phase exp(-i t H_k / hbar), shape (n_k, 1, (2m+1)^d).
        Otherwise (n_steps, half, full, pot): the Strang step count, the half
        and full kinetic phases of step tau = t / n_steps in zero-padded FFT
        order, shape (n_k, 1, N, ..., N), and exp(-i tau V / hbar) on the grid.
        """
        key, factors = self._factors
        if key == (t, dt):
            return factors
        if self.potential.is_zero:
            factors = np.exp(-1j * t * self.kinetic_diagonal / self.hbar)[:, None, :]
        else:
            d, nin = self.lat.dimension, 2 * self.m + 1
            n_steps = _step_count(t, dt)
            step = t / n_steps
            half_c = np.exp(-1j * (0.5 * step) * self.kinetic_diagonal / self.hbar) \
                .reshape((-1, 1) + (nin,) * d)
            half = np.zeros(half_c.shape[:2] + self.potential_values.shape, dtype=complex)
            for src, dst in _fft_blocks(nin, self.potential_values.shape[-1], d):
                half[dst] = half_c[src]
            pot = np.exp(-1j * step * self.potential_values / self.hbar)
            factors = (n_steps, half, half * half, pot)
        self._factors = ((t, dt), factors)
        return factors


def propagate_batch(coeffs: np.ndarray, h: FiberHamiltonian, t: float, dt: float) -> np.ndarray:
    """Advance a (n_k, batch, (2m+1)^d) block of fiber i under H_{k_i} in place; returns it.

    V = 0 is one exact phase multiply over all fibers.  Otherwise each Strang
    step is P e^{-i tau V / hbar} P between kinetic half-steps, the factor
    collocated on the N = ``quadrature_len(m)`` grid per axis and P the
    projection onto the plane-wave window: the Galerkin step up to the
    factor's Fourier tail beyond N - 2m - 1 (N = 2m+1: plain collocation),
    not exactly unitary.  The phases and the factor are set up once per
    (t, dt) (``FiberHamiltonian._step_factors``).  The whole block moves once
    into padded twisted FFT order, x = ifftshift(pad(c * alt)) * half, the
    one padded work array of the call; each step is one fftn(ifftn(x) * pot)
    over the d trailing axes of all fibers and vectors, times a phase that is
    zero outside the window, which is the projection.  The window is gathered
    back into ``coeffs`` at the end.
    """
    if t == 0.0:
        return coeffs
    if dt <= 0:
        raise ValueError("dt must be positive")
    if h.potential.is_zero:
        coeffs *= h._step_factors(t, dt)
        return coeffs
    n_steps, half, full, pot = h._step_factors(t, dt)
    d, nin = h.lat.dimension, 2 * h.m + 1
    axes = tuple(range(2, d + 2))
    window = coeffs.reshape(coeffs.shape[:2] + (nin,) * d)     # a view: only splits an axis
    x = _twisted(window, pot.shape[-1], d)
    x *= half
    for i in range(n_steps):
        x = sfft.ifftn(x, axes=axes, overwrite_x=True)
        x *= pot
        x = sfft.fftn(x, axes=axes, overwrite_x=True)
        x *= half if i == n_steps - 1 else full
    _untwisted(x, nin, d, out=window)
    return coeffs


def _caches_propagator(h: FiberHamiltonian, n_steps: int, n_samples: int, rank: int) -> bool:
    """Whether ``evolution`` applies a cached one-sample propagator instead of stepping.

    Only at V != 0, and only if one fiber's (n_G, n_G) complex matrix fits in
    ``_CHUNK_BYTES`` (n_G <= 362) and the cache costs fewer flops per fiber:
    building it, n_G vectors through ``n_steps`` Strang steps, plus one
    (rank, n_G) x (n_G, n_G) product per sample (8 n_G^2 flops per vector),
    against ``n_steps`` steps of every vector at every sample.  A step of one
    vector costs c = 10 P log2 P + 12 P flops, an FFT pair and two complex
    multiplies at P = ``quadrature_len(m)``^d grid points.
    """
    n_g = h.kinetic_diagonal.shape[1]
    if h.potential.is_zero or 16 * n_g ** 2 > _CHUNK_BYTES:
        return False
    p = quadrature_len(h.m) ** h.lat.dimension
    c = 10 * p * np.log2(p) + 12 * p
    return n_g * n_steps * c + n_samples * rank * 8 * n_g ** 2 < n_samples * rank * n_steps * c


def _observes_by_form(rho: FiberedDensity, n_support: int, n_samples: int) -> bool:
    """Whether ``observation_series`` evaluates every sample of V = 0 data as a form per fiber.

    Only if one fiber's (W, W) complex form, W = ``n_support``, fits in
    ``_CHUNK_BYTES`` (W <= 362) and costs fewer flops per fiber: building it,
    8 rank W^2, plus one (W,) x (W, W) product per sample, 8 W^2, against the
    masked trace of every vector at every sample.  One vector's masked trace
    costs c = 5 P log2 P + 8 P flops, an inverse FFT and the squares and
    weights at P = ``quadrature_len(m)``^d grid points.
    """
    if 16 * n_support ** 2 > _CHUNK_BYTES:
        return False
    p = quadrature_len(rho.m) ** rho.lat.dimension
    c = 5 * p * np.log2(p) + 8 * p
    w2, rank = n_support ** 2, rho.rank
    return n_samples * 8 * w2 + 8 * rank * w2 < n_samples * rank * c


def observation_series(rho: FiberedDensity, mask: np.ndarray, potential: TrigPotential,
                       horizon: float, n_samples: int, dt: float) -> np.ndarray:
    """``rho.masked_trace(mask)`` at the times i horizon / n_samples, i = 0..n_samples.

    On return ``rho.vectors``, the same array, hold the density at
    ``horizon``.  At V != 0, and at V = 0 unless ``_observes_by_form`` says
    otherwise, the trace is read at every yield of ``evolution``.  At V = 0
    each fiber evolves by the phases u_n(t) = exp(-i t E_n / hbar) of its
    kinetic diagonal E, so every sample is u(t)^H A u(t) with the fiber's form
    A on the support W of the vectors (``FiberedDensity._masked_forms``): the
    coefficients that vanish in every vector stay zero under the phases.  The
    form path evaluates it for ``_FORM_ROWS`` samples at a time as one
    (samples, W) x (W, W) product and, after the last fiber, moves the vectors
    to ``horizon`` by one exact ``propagate_batch``.  Either path builds the
    run's one ``FiberHamiltonian``.
    """
    support = np.flatnonzero(np.any(rho.vectors, axis=(0, 1))) if potential.is_zero else None
    if support is None or not _observes_by_form(rho, support.size, n_samples + 1):
        return np.array([rho.masked_trace(mask)
                         for _ in evolution(rho, potential, horizon, n_samples, dt)])
    h = FiberHamiltonian(rho.lat, rho.m, rho.kgrid.points, potential, rho.hbar)
    times = np.arange(n_samples + 1) * (horizon / n_samples)
    series = np.zeros(n_samples + 1)
    for energies, form in zip(h.kinetic_diagonal[:, support] / h.hbar,
                              rho._masked_forms(mask, support)):
        for start in range(0, times.size, _FORM_ROWS):
            block = slice(start, start + _FORM_ROWS)
            conj_u = np.exp(1j * np.multiply.outer(times[block], energies))
            # Re(p u) = Re(p) Re(conj u) + Im(p) Im(conj u), with p = conj(u) A
            p = (conj_u @ form).view(float)
            series[block] += (p[:, None, :] @ conj_u.view(float)[:, :, None])[:, 0, 0]
    propagate_batch(rho.vectors, h, horizon, dt)
    return series / rho.kgrid.size


def evolution(rho: FiberedDensity, potential: TrigPotential, horizon: float, n_samples: int,
              dt: float, nodes=None):
    """Yield once at each of the times i horizon / n_samples, i = 0..n_samples, in order.

    At each yield ``rho`` holds the density at that time: between samples
    ``rho.vectors`` are advanced in place under the run's one
    ``FiberHamiltonian``, so callers read what they need of the initial datum
    first.  Given ``nodes = (x, xi)``, each yield is the nodes at that time,
    moved by ``flow`` with the same step; otherwise it is None.

    Every sample applies the same linear map S, ``propagate_batch`` over one
    sample interval.  When ``_caches_propagator`` says it costs fewer flops
    (V != 0, many Strang steps per sample, many vectors, a small window), S
    is formed once per fiber: ``propagate_batch`` runs in place on an
    (n_k, n_G, n_G) identity block, whose row G comes back as S e_G, so the
    block is the matrix R with v R = S v for a row vector v, and each sample
    is one product ``rho.vectors @ R``.  R is the stepped map itself, built
    by the same kernel with the same factors; the two differ only in the
    order of the rounding (the FFTs act on e_G rather than on v, and the sum
    over G is a matrix product), so the samples agree with the stepped ones
    up to rounding.  Otherwise, and always at V = 0 (one phase multiply per
    sample), ``propagate_batch`` advances the vectors at every sample; at
    V = 0 ``observation_series`` may skip this loop altogether.
    """
    h = FiberHamiltonian(rho.lat, rho.m, rho.kgrid.points, potential, rho.hbar)
    sample_dt = horizon / n_samples
    propagator = None
    if _caches_propagator(h, _step_count(sample_dt, dt), n_samples, rho.rank):
        n_g = rho.vectors.shape[-1]
        propagator = np.zeros((rho.kgrid.size, n_g, n_g), dtype=complex)
        propagator.reshape(rho.kgrid.size, -1)[:, ::n_g + 1] = 1.0
        propagate_batch(propagator, h, sample_dt, dt)
    yield nodes
    for _ in range(n_samples):
        if nodes is not None:
            nodes = flow(*nodes, sample_dt, potential, dt)
        if propagator is None:
            propagate_batch(rho.vectors, h, sample_dt, dt)
        else:
            np.matmul(rho.vectors, propagator, out=rho.vectors)
        yield nodes
