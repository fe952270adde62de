"""Fiber Hamiltonians and split-step propagation.

Fiber vectors live on the plane-wave window of order m; the split step applies
the potential on the ``quadrature_len(m)`` cell grid and projects back onto it.

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

from .bloch import _alt_sign, _twisted, g_vectors, position_grid, quadrature_len
from .classical_dynamics import TrigPotential
from .lattice import LatticeSpec


@dataclass
class FiberHamiltonian:
    """H_k = |hbar(k + G)|^2 / 2 + V for the fiber quasimomenta ``k``, shape (n_k, d).

    Only the kinetic diagonal, shape (n_k, (2m+1)^d), depends on k; V is
    sampled once on the ``quadrature_len(m)``^d cell grid.
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


def propagate_batch(coeffs: np.ndarray, h: FiberHamiltonian, t: float, dt: float) -> np.ndarray:
    """Advance a (n_k, batch, (2m+1)^d) block of fiber i under H_{k_i} in place; returns it.

    V = 0 is one exact phase multiply over all fibers.  Otherwise each Strang
    step is P e^{-i tau V / hbar} P between kinetic half-steps, the factor
    collocated on the N = ``quadrature_len(m)`` grid per axis and P the
    projection onto the plane-wave window: the Galerkin step up to the
    factor's Fourier tail beyond N - 2m - 1 (N = 2m+1: plain collocation),
    not exactly unitary.  The phases and the factor are computed once per
    call, the steps run one fiber at a time (a whole-block work array would
    raise peak memory).  A fiber's batch moves once into padded twisted FFT
    order, x = ifftshift(pad(c * alt)); each step is fftn(ifftn(x) * pot) *
    phase with phases zero outside the window, which is the projection.
    """
    if t == 0.0:
        return coeffs
    if h.potential.is_zero:
        coeffs *= np.exp(-1j * t * h.kinetic_diagonal / h.hbar)[:, None, :]
        return coeffs
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    step = t / n_steps
    d = h.lat.dimension
    n, nin = h.potential_values.shape[-1], 2 * h.m + 1
    window_shape = (coeffs.shape[1],) + (nin,) * d
    axes = tuple(range(1, d + 1))
    cut = (n - nin) // 2
    half = np.exp(-1j * (0.5 * step) * h.kinetic_diagonal / h.hbar) \
        .reshape((-1,) + (nin,) * d)
    half_fft = sfft.ifftshift(np.pad(half, [(0, 0)] + [(cut, cut)] * d), axes=axes)
    full_fft = half_fft * half_fft
    pot = np.exp(-1j * step * h.potential_values / h.hbar)
    window = (Ellipsis,) + (slice(cut, cut + nin),) * d
    alt = _alt_sign(nin, d)
    for ik in range(coeffs.shape[0]):
        x = _twisted(coeffs[ik].reshape(window_shape) * half[ik], n, d)
        for i in range(n_steps):
            vals = sfft.ifftn(x, axes=axes, overwrite_x=True)
            vals *= pot
            x = sfft.fftn(vals, axes=axes, overwrite_x=True)
            x *= half_fft[ik] if i == n_steps - 1 else full_fft[ik]
        coeffs[ik] = (sfft.fftshift(x, axes=axes)[window] * alt).reshape(coeffs.shape[1], -1)
    return coeffs
