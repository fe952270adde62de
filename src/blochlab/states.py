"""Lattice periodizations of Gaussian wave packets.

The periodized packet is represented in closed form: its plane-wave
coefficients are the continuum Fourier transform of the Gaussian evaluated at
the reciprocal vectors (Poisson summation makes this exact, not an
approximation; only the basis truncation at order m is approximate).

At semiclassical hbar most of the plane-wave window is far Gaussian tail.
Coefficients below ``_FLOOR`` = sqrt(smallest normal double) in modulus are
exact zeros: the square of a smaller value is subnormal, and every kernel
downstream (Gram matrices, transforms, phase multiplies, moment squares)
takes the processor's slow path on subnormal operands.  A unit vector of up
to 10^6 coefficients has one of modulus at least 1e-3, so a dropped
coefficient lies some 150 orders of magnitude below it and is lost to
rounding in any sum that holds both.
"""

from __future__ import annotations

import numpy as np

from .bloch import g_vectors
from .lattice import LatticeSpec

# Smallest packet coefficient kept: the square root of the smallest normal double.
_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def coherent_coeff_batch(qs: np.ndarray, ps: np.ndarray, hbar: float,
                         lat: LatticeSpec, m: int) -> np.ndarray:
    """Plane-wave coefficients of periodized packets for a batch of centers.

    ``qs, ps`` have shape (B, d); the result is (B, (2m+1)^d) complex, flat in
    C order over the centered index grid.  The momentum argument is taken as
    given (callers pass p - hbar*k to address fiber k).  Coefficients below
    ``_FLOOR`` in modulus are exact zeros (``_floored_gaussian``).
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    amp = (4.0 * np.pi * hbar) ** (lat.dimension / 4.0) / np.sqrt(lat.cell_volume)
    return _floored_gaussian(qs, ps, hbar * g_vectors(lat, m), hbar, amp)


def _floored_gaussian(qs: np.ndarray, ps: np.ndarray, hg: np.ndarray, hbar: float,
                      amp: float) -> np.ndarray:
    """amp exp(-|p - hg|^2 / (2 hbar)) exp(i (p - hg).q / hbar) on its support, 0 elsewhere.

    ``qs, ps`` are (B, d) and ``hg`` is (n_G, d); the result is (B, n_G)
    complex.  The support is where amp exp(...) >= ``_FLOOR``.  The squared
    distance and the phase argument are accumulated one axis at a time in
    (B, n_G) buffers, and both exponentials are evaluated on the support only.
    """
    r2 = np.zeros((ps.shape[0], hg.shape[0]))
    arg = np.zeros_like(r2)
    diff = np.empty_like(r2)
    for i in range(hg.shape[1]):
        np.subtract.outer(ps[:, i], hg[:, i], out=diff)
        arg += diff * qs[:, i, None]
        diff *= diff
        r2 += diff
    # each (B, n_G) buffer is dropped once read, so the peak stays near two output blocks
    del diff
    # amp exp(-r2 / 2hbar) >= _FLOOR  <=>  r2 <= 2 hbar log(amp / _FLOOR); the
    # relative margin admits every entry whose rounded value clears the floor
    support = r2 <= 2.0 * hbar * np.log(amp / _FLOOR) * (1.0 + 1e-12)
    gauss = amp * np.exp(-r2[support] / (2.0 * hbar))
    del r2
    keep = gauss >= _FLOOR
    support[support] = keep
    phase = 1j * arg[support]
    del arg
    phase /= hbar
    np.exp(phase, out=phase)
    phase *= gauss[keep]
    out = np.zeros(support.shape, dtype=complex)
    out[support] = phase
    return out
