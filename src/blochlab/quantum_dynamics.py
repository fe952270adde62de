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

from .bloch import KGrid, _alt_sign, _twisted, g_vectors, position_grid, quadrature_len
from .classical_dynamics import TrigPotential
from .lattice import LatticeSpec


@dataclass
class FiberHamiltonian:
    """Kinetic diagonal (shifted by the fiber quasimomentum) plus a periodic potential.

    The kinetic diagonal lives on the (2m+1)^d plane-wave window, the
    potential values on the ``quadrature_len(m)``^d cell grid.
    """

    lat: LatticeSpec
    m: int
    k: np.ndarray
    potential: TrigPotential
    hbar: float

    def __post_init__(self):
        self.k = np.atleast_1d(np.asarray(self.k, dtype=float))
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        d = self.lat.dimension
        shifted = g_vectors(self.lat, self.m) + self.k
        diag = 0.5 * self.hbar ** 2 * np.sum(shifted * shifted, axis=-1)
        self.kinetic_diagonal = diag.reshape((2 * self.m + 1,) * d)
        n = quadrature_len(self.m)
        self.potential_values = self.potential.value(position_grid(self.lat, n)) \
            .reshape((n,) * d)


def kinetic_phase(h: FiberHamiltonian, t: float) -> np.ndarray:
    return np.exp(-1j * t * h.kinetic_diagonal / h.hbar)


def propagate_batch(coeffs: np.ndarray, h: FiberHamiltonian, t: float, dt: float) -> np.ndarray:
    """Strang-split propagation of a batch of coefficient arrays (leading axes free).

    Kinetic half-steps act diagonally on coefficients; the zero-potential
    case uses the exact diagonal propagator.  Otherwise each step is
    P e^{-i tau V / hbar} P between kinetic half-steps, with the potential
    factor collocated on the N = ``quadrature_len(m)`` grid per axis and P
    the projection onto the plane-wave window: for N > 2m+1 this is the
    Galerkin step up to the Fourier tail of the factor beyond N - 2m - 1,
    for N = 2m+1 plain collocation.  The projection makes the step not
    exactly unitary.

    The batch is moved once into padded twisted FFT order,
    x = ifftshift(pad(c * alt)), in which the values on the N grid are
    ifftn(x) up to a constant that cancels between the two transforms of a
    step; each step is then fftn(ifftn(x) * pot) * phase with kinetic phases
    in the same padded FFT order and zero outside the window, which is the
    projection.  At the end the window is cut out and the twist undone.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if t == 0.0:
        return coeffs.copy()
    if h.potential.is_zero:
        return coeffs * kinetic_phase(h, t)
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    step = t / n_steps
    d = h.lat.dimension
    n, nin = h.potential_values.shape[-1], 2 * h.m + 1
    axes = tuple(range(coeffs.ndim - d, coeffs.ndim))
    half = kinetic_phase(h, 0.5 * step)
    x = _twisted(coeffs * half, n, d)
    cut = (n - nin) // 2
    half = sfft.ifftshift(np.pad(half, cut))
    full = half * half
    pot = np.exp(-1j * step * h.potential_values / h.hbar)
    for i in range(n_steps):
        vals = sfft.ifftn(x, axes=axes, overwrite_x=True)
        vals *= pot
        x = sfft.fftn(vals, axes=axes, overwrite_x=True)
        x *= half if i == n_steps - 1 else full
    window = (Ellipsis,) + (slice(cut, cut + nin),) * d
    return sfft.fftshift(x, axes=axes)[window] * _alt_sign(nin, d)


class FiberPropagator:
    """One Hamiltonian per fiber of a k-grid, advancing (n_k, batch, n_G) coefficient blocks."""

    def __init__(self, kgrid: KGrid, lat: LatticeSpec, m: int, potential: TrigPotential,
                 hbar: float):
        self.hams = [FiberHamiltonian(lat, m, k, potential, hbar) for k in kgrid.points]
        self.free = potential.is_zero
        self.hbar = hbar
        self.kinetic = np.stack([h.kinetic_diagonal.reshape(-1) for h in self.hams])

    def advance(self, coeffs: np.ndarray, t: float, dt: float) -> np.ndarray:
        """Propagate every fiber of ``coeffs`` by time t in place; returns ``coeffs``.

        With V = 0 the kinetic phases of all fibers are applied at once;
        otherwise each fiber's batch goes through one ``propagate_batch`` call.
        """
        if self.free:
            coeffs *= np.exp(-1j * t * self.kinetic / self.hbar)[:, None, :]
            return coeffs
        n_b = coeffs.shape[1]
        for ik, h in enumerate(self.hams):
            coeffs[ik] = propagate_batch(coeffs[ik].reshape((n_b,) + h.kinetic_diagonal.shape),
                                         h, t, dt).reshape(n_b, -1)
        return coeffs
