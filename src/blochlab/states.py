"""Gaussian wave packets and their lattice periodizations.

The periodized packet is represented in closed form: its plane-wave
coefficients are the continuum Fourier transform of the Gaussian evaluated at
the reciprocal vectors (Poisson summation makes this exact, not an
approximation; only the basis truncation at order m is approximate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import PeriodicField, g_vectors
from .errors import AccuracyError
from .lattice import LatticeSpec


@dataclass(frozen=True)
class CoherentParams:
    """Phase-space center (q, p) and semiclassical parameter hbar of one packet."""

    q: np.ndarray
    p: np.ndarray
    hbar: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have the same dimension")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


def coherent_state(params: CoherentParams, y: np.ndarray) -> np.ndarray:
    """Normalized Gaussian wave packet amplitude at points y (..., d)."""
    y = np.asarray(y, dtype=float)
    d = params.q.shape[0]
    dy = y - params.q
    norm = (np.pi * params.hbar) ** (-d / 4.0)
    return norm * np.exp(-np.sum(dy * dy, axis=-1) / (2.0 * params.hbar)
                         + 1j * (y @ params.p) / params.hbar)


def coherent_coeff_batch(qs: np.ndarray, ps: np.ndarray, hbar: float,
                         lat: LatticeSpec, m: int) -> np.ndarray:
    """Plane-wave coefficients of periodized packets for a batch of centers.

    ``qs, ps`` have shape (B, d); the result is (B, (2m+1)^d) complex, flat in
    C order over the centered index grid.  The momentum argument is taken as
    given (callers pass p - hbar*k to address fiber k).
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    d = lat.dimension
    hg = hbar * g_vectors(lat, m)                                  # (nG, d)
    amp = (4.0 * np.pi * hbar) ** (d / 4.0) / np.sqrt(lat.cell_volume)
    diff = ps[:, None, :] - hg[None, :, :]                        # (B, nG, d)
    gauss = np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * hbar))
    phase = np.exp(1j * np.einsum("bgd,bd->bg", diff, qs) / hbar)
    return amp * gauss * phase


def coherent_planewave_coeffs(params: CoherentParams, lat: LatticeSpec,
                              k: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of the fiber-k periodization: closed-form Gaussian transform.

    Equals the inner products of the basis functions with the periodized
    packet at momentum ``p - hbar*k``, arranged on the centered index grid.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    flat = coherent_coeff_batch(params.q[None, :], (params.p - params.hbar * k)[None, :],
                                params.hbar, lat, m)[0]
    return flat.reshape((2 * m + 1,) * lat.dimension)


def periodized_coherent(params: CoherentParams, lat: LatticeSpec, m: int,
                        edge_tol: float = 1e-6) -> PeriodicField:
    """Periodized packet as a PeriodicField (closed-form coefficients).

    Raises AccuracyError when the Gaussian momentum profile is clipped by the
    truncation, detected by a non-negligible coefficient on the outer index
    shell relative to the peak.
    """
    coeffs = coherent_planewave_coeffs(params, lat, np.zeros(lat.dimension), m)
    peak = float(np.max(np.abs(coeffs)))
    edge = _edge_max(np.abs(coeffs))
    if peak > 0.0 and edge > edge_tol * peak:
        raise AccuracyError(
            f"plane-wave order m={m} clips the packet: edge/peak = {edge / peak:.2e}")
    return PeriodicField(lat, m, coeffs)


def _edge_max(a: np.ndarray) -> float:
    mask = np.zeros(a.shape, dtype=bool)
    for axis in range(a.ndim):
        sl = [slice(None)] * a.ndim
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    return float(np.max(a[mask])) if a.size else 0.0

