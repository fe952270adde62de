"""Lattice periodizations of Gaussian wave packets.

The periodized packet is represented in closed form: its plane-wave
coefficients are the continuum Fourier transform of the Gaussian evaluated at
the reciprocal vectors (Poisson summation makes this exact, not an
approximation; only the basis truncation at order m is approximate).

At semiclassical hbar most of the plane-wave window is far Gaussian tail.
Coefficients below u = 2^-53 times the Gaussian's peak amp are exact zeros
(``_packet_floor``): a coefficient that small is lost in the rounding of
every transform and sum that also holds the peak, so dropping it moves no
result by more than rounding does, and a packet's dropped tail is a few u in
norm.  The floor is never below ``_FLOOR`` = sqrt(smallest normal double):
the square of a smaller value is subnormal, and every kernel downstream
(Gram matrices, transforms, phase multiplies, moment squares) would take the
processor's slow path on subnormal operands.  The kernels that read the
packets then work on their support, the coefficients nonzero in some
vector.
"""

from __future__ import annotations

import numpy as np

from .bloch import g_vectors
from .lattice import LatticeSpec

# Smallest packet coefficient kept, relative to the Gaussian's peak: the unit roundoff.
_ROUNDOFF = 2.0 ** -53
# Smallest packet coefficient kept at all: the square root of the smallest normal double.
_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def coherent_coeff_batch(qs: np.ndarray, ps: np.ndarray, hbar: float,
                         lat: LatticeSpec, m: int) -> np.ndarray:
    """Plane-wave coefficients of periodized packets for a batch of centers.

    ``qs, ps`` have shape (B, d); the result is (B, (2m+1)^d) complex, flat in
    C order over the centered index grid.  The momentum argument is taken as
    given (callers pass p - hbar*k to address fiber k).  Coefficients below
    ``_packet_floor(amp)`` in modulus, amp the Gaussian's peak, are exact zeros
    (``_floored_gaussian``).  They are evaluated on the batch's index box
    (``_packet_box``) only and written into a zeroed block: every coefficient
    outside the box is below the floor.
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    d = lat.dimension
    amp = (4.0 * np.pi * hbar) ** (d / 4.0) / np.sqrt(lat.cell_volume)
    shape = (2 * m + 1,) * d
    within = (slice(None),) + _packet_box(ps, hbar, lat, m, amp)
    g = g_vectors(lat, m).reshape(shape + (d,))[within[1:]]
    out = np.zeros((ps.shape[0],) + shape, dtype=complex)
    out[within] = _floored_gaussian(qs, ps, hbar * g.reshape(-1, d), hbar, amp).reshape(
        (ps.shape[0],) + g.shape[:-1])
    return out.reshape(ps.shape[0], -1)


def _packet_box(ps: np.ndarray, hbar: float, lat: LatticeSpec, m: int, amp: float) -> tuple:
    """An index box, one slice per axis of the order-m window, holding every packet's support.

    The support of the packet at momentum p is the ball |G - p / hbar| <= R,
    R = sqrt(2 hbar log(amp / floor) (1 + 1e-12)) / hbar, the radius of
    ``_floored_gaussian``'s support test.  In index coordinates n = G B^-1 it
    is centred at n_i = (p / hbar) . a_i / (2 pi), a_i the basis rows, and
    spans R |a_i| / (2 pi) on axis i.  The box of a batch is the union of
    those spans, widened by one index against rounding and clipped to the
    window; it holds at least one index on every axis.
    """
    radius = np.sqrt(2.0 * hbar * np.log(amp / _packet_floor(amp)) * (1.0 + 1e-12)) / hbar
    centre = (ps / hbar) @ lat.basis.T / (2.0 * np.pi)
    half = radius * np.linalg.norm(lat.basis, axis=1) / (2.0 * np.pi)
    lo = np.clip(np.floor(np.min(centre, axis=0, initial=np.inf) - half) - 1, -m, m)
    hi = np.clip(np.ceil(np.max(centre, axis=0, initial=-np.inf) + half) + 1, lo, m)
    return tuple(slice(int(a) + m, int(b) + m + 1) for a, b in zip(lo, hi))


def _packet_floor(amp: float) -> float:
    """Smallest coefficient kept of a Gaussian of peak ``amp``: u amp, and at least ``_FLOOR``."""
    return max(_ROUNDOFF * amp, _FLOOR)


def _floored_gaussian(qs: np.ndarray, ps: np.ndarray, hg: np.ndarray, hbar: float,
                      amp: float) -> np.ndarray:
    """amp exp(-|p - hg|^2 / (2 hbar)) exp(i (p - hg).q / hbar) on its support, 0 elsewhere.

    ``qs, ps`` are (B, d) and ``hg`` is (n_G, d); the result is (B, n_G)
    complex.  The support is where amp exp(...) >= ``_packet_floor(amp)``.  The
    squared distance and the phase argument are accumulated one axis at a
    time in (B, n_G) buffers, and both exponentials are evaluated on the
    support only.
    """
    floor = _packet_floor(amp)
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
    # amp exp(-r2 / 2hbar) >= floor  <=>  r2 <= 2 hbar log(amp / floor); the
    # relative margin admits every entry whose rounded value clears the floor
    support = r2 <= 2.0 * hbar * np.log(amp / floor) * (1.0 + 1e-12)
    gauss = amp * np.exp(-r2[support] / (2.0 * hbar))
    del r2
    keep = gauss >= floor
    support[support] = keep
    phase = 1j * arg[support]
    del arg
    phase /= hbar
    np.exp(phase, out=phase)
    phase *= gauss[keep]
    out = np.zeros(support.shape, dtype=complex)
    out[support] = phase
    return out
