"""Hamiltonian flows and the geometric-control constant.

The integrator is Stoermer-Verlet (order 2, symplectic); trajectories are
batched over initial conditions, so the geometric-control sampler and the
transport of quadrature nodes run as single vectorized sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bloch import position_grid
from .lattice import LatticeSpec, Region
from .quantization import PhaseBoxSet


# Points per axis of the cell grid on which lipschitz_gradient maximizes the Hessian
# norm, and the most points of that grid (512^3 points and Hessians would take 13 GB).
_HESSIAN_GRID = 512
_HESSIAN_POINTS = _HESSIAN_GRID ** 2
# Relative slack, in units of the machine epsilon, by which |t| / dt may exceed
# an integer and still count as that many steps.
_STEP_ULPS = 4


def _step_count(t: float, dt: float) -> int:
    """Steps of at most dt that cover |t|: ceil(|t| / dt), and at least one.

    A quotient within ``_STEP_ULPS`` ulps above an integer counts as that
    integer, so a horizon that is a whole number of steps up to rounding
    (1.1 / 20 / 1e-3 = 55.00000000000001) takes that number of steps of dt,
    not one more of a slightly shorter step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ratio = abs(t) / dt
    return max(1, int(np.ceil(ratio * (1.0 - _STEP_ULPS * np.finfo(float).eps))))


@dataclass(frozen=True)
class TrigPotential:
    """Lattice-periodic potential given as a finite cosine series.

    ``terms`` is a sequence of ``(n, amplitude, phase)`` with ``n`` the integer
    lattice coordinates of a reciprocal vector; the potential is
    ``V(x) = sum_t c_t cos(G_t . x + phi_t)``, periodic by construction.
    ``is_zero`` (no terms, or every amplitude 0) is computed once.
    """

    lat: LatticeSpec
    terms: tuple
    is_zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = []
        d = self.lat.dimension
        for n, c, phi in self.terms:
            n = tuple(int(v) for v in np.atleast_1d(n))
            if len(n) != d:
                raise ValueError("reciprocal index has wrong dimension")
            norm.append((n, float(c), float(phi)))
        object.__setattr__(self, "terms", tuple(norm))
        object.__setattr__(self, "is_zero", all(c == 0.0 for _, c, _ in norm))

    @property
    def bandwidth(self) -> int:
        """Largest |n|_inf among the reciprocal indices."""
        if not self.terms:
            return 0
        return max(max(abs(v) for v in n) for n, _, _ in self.terms)

    def g_vectors(self) -> np.ndarray:
        if not self.terms:
            return np.zeros((0, self.lat.dimension))
        return np.array([n for n, _, _ in self.terms], dtype=float) @ self.lat.reciprocal

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for (g, (_, c, phi)) in zip(self.g_vectors(), self.terms):
            out = out + c * np.cos(x @ g + phi)
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for (g, (_, c, phi)) in zip(self.g_vectors(), self.terms):
            out = out - (c * np.sin(x @ g + phi))[..., None] * g
        return out

    def hessian_norm(self, x: np.ndarray) -> np.ndarray:
        """Spectral norm of the Hessian at each point of a batch."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        h = np.zeros((x.shape[0], self.lat.dimension, self.lat.dimension))
        for (g, (_, c, phi)) in zip(self.g_vectors(), self.terms):
            h -= (c * np.cos(x @ g + phi))[:, None, None] * np.outer(g, g)[None]
        return np.linalg.norm(h, ord=2, axis=(1, 2))

    def lipschitz_gradient(self) -> "LipschitzBound":
        """Two Lipschitz bounds for grad V; ``value`` is their min.

        The analytic bound is sum |c_t| |G_t|^2.  The grid bound is the Hessian
        norm's maximum on the N^d cell grid divided by 1 - d pi B / N, B the
        ``bandwidth``: each cell point is within pi/N of the grid in every
        phase 2 pi t_i, so by Bernstein's inequality the grid maximum misses at
        most d pi B / N of the true one.  If that factor is <= 0 the grid bound
        is infinite.  N is ``_HESSIAN_GRID`` in one and two dimensions and the
        largest N with N^d <= ``_HESSIAN_POINTS`` above (64 in three).
        """
        analytic = sum(abs(c) * float(np.dot(g, g))
                       for (g, (_, c, _)) in zip(self.g_vectors(), self.terms))
        if self.is_zero:
            return LipschitzBound(0.0, 0.0, 0.0)
        d = self.lat.dimension
        n = next(k for k in range(_HESSIAN_GRID, 0, -1) if k ** d <= _HESSIAN_POINTS)
        factor = 1.0 - d * np.pi * self.bandwidth / n
        grid = np.inf
        if factor > 0:
            hess = self.hessian_norm(position_grid(self.lat, n))
            grid = float(np.max(hess)) / factor
        return LipschitzBound(min(analytic, grid), analytic, grid)


class LipschitzBound(NamedTuple):
    value: float
    analytic: float
    grid: float


class PhasePoint(NamedTuple):
    """Phase-space point(s); fields broadcast over batch shapes (..., d)."""

    x: np.ndarray
    xi: np.ndarray


def _verlet_step(x, xi, force, h: float, potential: TrigPotential):
    """One Stoermer-Verlet step of size h; returns the new (x, xi, force).

    At V = 0 the step is the free motion (x + h xi, xi, force), with no force
    evaluated: the force is a signed zero, so the full formula adds only
    zeros to x + h xi and to xi, and rounds to the same values (a momentum
    of -0.0 may come back as +0.0 from it when h < 0).
    """
    if potential.is_zero:
        return x + h * xi, xi, force
    x = x + h * xi + 0.5 * h * h * force
    new_force = -potential.gradient(x)
    xi = xi + 0.5 * h * (force + new_force)
    return x, xi, new_force


def flow(x, xi, t: float, potential: TrigPotential, dt: float) -> PhasePoint:
    """Stoermer-Verlet approximation of the Hamiltonian flow; negative t reverses.

    ``_step_count`` steps of equal size cover t.  The force is evaluated once
    for the start and once after each step, except at V = 0, where it is
    evaluated only for the start and each step is the free motion
    (``_verlet_step``).
    """
    x = np.array(x, dtype=float, copy=True)
    xi = np.array(xi, dtype=float, copy=True)
    if t == 0.0:
        return PhasePoint(x, xi)
    n_steps = _step_count(t, dt)
    h = t / n_steps
    force = -potential.gradient(x)
    for _ in range(n_steps):
        x, xi, force = _verlet_step(x, xi, force, h, potential)
    return PhasePoint(x, xi)


@dataclass(frozen=True)
class GCEstimate:
    """Sampled estimate of the geometric-control observability constant.

    ``value`` is the least occupation time over the sampled starts, so it lies
    at or above the infimum over K: an upper estimate of the constant.
    """

    value: float
    satisfied: bool      # False when some sampled trajectory never meets the region
    n_samples: int


def gc_constant(horizon: float, k_set: PhaseBoxSet, omega: Region, potential: TrigPotential,
                n_time: int = 2000, per_axis: int = 32, n_quasi: int = 1000,
                seed: int = 0) -> GCEstimate:
    """Minimum over sampled starts in K of the time the trajectory spends in omega.

    ``Region.contains`` is periodic, so positions that left the cell need no
    reduction here.  Midpoint time sampling on a uniform grid of step
    horizon / n_time; the result is an estimate (finer-than-grid grazing
    passes are invisible).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    qg, pg = k_set.grid_samples(per_axis)
    qq, pq = k_set.quasi_samples(n_quasi, seed)
    x = np.concatenate([qg, qq])
    xi = np.concatenate([pg, pq])
    if x.shape[0] == 0:
        raise ValueError("empty sample set for K")
    h = horizon / n_time
    inside = np.zeros(x.shape[0])
    force = -potential.gradient(x)
    for _ in range(n_time):
        x_mid = x + 0.5 * h * xi + 0.125 * h * h * force
        inside += omega.contains(x_mid)
        x, xi, force = _verlet_step(x, xi, force, h, potential)
    occupation = inside * h
    value = float(np.min(occupation))
    return GCEstimate(value=value, satisfied=value > 0.0, n_samples=x.shape[0])
