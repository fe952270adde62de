"""Lattice periodizations of Gaussian wave packets.

The periodized packet is represented in closed form: its plane-wave
coefficients are the continuum Fourier transform of the Gaussian evaluated at
the reciprocal vectors (Poisson summation makes this exact, not an
approximation; only the basis truncation at order m is approximate).
"""

from __future__ import annotations

import numpy as np

from .bloch import g_vectors
from .lattice import LatticeSpec


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
