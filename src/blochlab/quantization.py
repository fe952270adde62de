"""Periodic trace, Toeplitz quantization, Husimi transform, and cell observation.

Quantum densities are kept in low-rank form throughout: each fiber is a
nonnegative combination of projectors onto periodic fields.  Toeplitz
quantization produces exactly that shape (one projector per phase-space
quadrature node) and unitary evolution preserves it, so dense fiber matrices
only ever appear inside small test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from scipy.special import erf

from .bloch import KGrid, centered_indices, g_vectors, grid_weight, position_grid, \
    quadrature_len, squared_values
from .lattice import LatticeSpec, Region
from .states import _floored_gaussian, coherent_coeff_batch


@dataclass(frozen=True)
class PhaseBoxSet:
    """Union of closed boxes in phase space Gamma x R^d (the compact set K).

    Each box needs lo <= hi on every axis; lo = hi is a closed face, not empty.
    """

    q_bounds: np.ndarray   # (nb, 2, d)
    p_bounds: np.ndarray   # (nb, 2, d)

    def __post_init__(self):
        qb = np.asarray(self.q_bounds, dtype=float)
        pb = np.asarray(self.p_bounds, dtype=float)
        if qb.shape != pb.shape or qb.ndim != 3 or qb.shape[1] != 2:
            raise ValueError("q_bounds/p_bounds must both have shape (nb, 2, d)")
        if not (np.all(qb[:, 0] <= qb[:, 1]) and np.all(pb[:, 0] <= pb[:, 1])):
            raise ValueError("every box needs lo <= hi on every axis")
        object.__setattr__(self, "q_bounds", qb)
        object.__setattr__(self, "p_bounds", pb)

    @property
    def n_boxes(self) -> int:
        return self.q_bounds.shape[0]

    def contains(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(q)
        p = np.atleast_2d(p)
        out = np.zeros(q.shape[0], dtype=bool)
        for (qlo, qhi), (plo, phi) in zip(self.q_bounds, self.p_bounds):
            out |= (np.all((q >= qlo) & (q <= qhi), axis=-1)
                    & np.all((p >= plo) & (p <= phi), axis=-1))
        return out

    def grid_samples(self, per_axis: int = 32):
        """Tensor grid over each box; returns (q, p) arrays stacked over boxes."""
        qs, ps = [], []
        d = self.q_bounds.shape[2]
        for (qlo, qhi), (plo, phi) in zip(self.q_bounds, self.p_bounds):
            axes = [np.linspace(qlo[i], qhi[i], per_axis) for i in range(d)]
            axes += [np.linspace(plo[i], phi[i], per_axis) for i in range(d)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * d)
            qs.append(mesh[:, :d])
            ps.append(mesh[:, d:])
        return np.concatenate(qs), np.concatenate(ps)

    def quasi_samples(self, n: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        d = self.q_bounds.shape[2]
        qs, ps = [], []
        for (qlo, qhi), (plo, phi) in zip(self.q_bounds, self.p_bounds):
            u = rng.random((n, 2 * d))
            qs.append(qlo + u[:, :d] * (qhi - qlo))
            ps.append(plo + u[:, d:] * (phi - plo))
        return np.concatenate(qs), np.concatenate(ps)


@dataclass
class PhaseSpaceDensity:
    """Weighted quadrature nodes representing a periodized probability density."""

    nodes_q: np.ndarray
    nodes_p: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes_q = np.atleast_2d(np.asarray(self.nodes_q, dtype=float))
        self.nodes_p = np.atleast_2d(np.asarray(self.nodes_p, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        n = self.nodes_q.shape[0]
        if not (self.nodes_p.shape[0] == self.weights.shape[0] == self.values.shape[0] == n):
            raise ValueError("node arrays must have matching lengths")
        if np.any(self.weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        if np.any(self.values < -1e-12):
            raise ValueError("density values must be nonnegative")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights * self.values))

    def normalized(self) -> "PhaseSpaceDensity":
        total = self.mass
        if total <= 0:
            raise ValueError("cannot normalize a zero-mass density")
        return PhaseSpaceDensity(self.nodes_q, self.nodes_p, self.weights, self.values / total)

    def mass_in(self, region: PhaseBoxSet) -> float:
        mask = region.contains(self.nodes_q, self.nodes_p)
        return float(np.sum(self.weights[mask] * self.values[mask]))

    def pruned(self, tol: float) -> "PhaseSpaceDensity":
        """Drop the lightest nodes whose combined mass is below tol * mass."""
        contrib = self.weights * self.values
        order = np.argsort(contrib, kind="stable")
        cum = np.cumsum(contrib[order])
        drop = cum <= tol * self.mass
        keep = np.ones(self.size, dtype=bool)
        keep[order[drop]] = False
        return PhaseSpaceDensity(self.nodes_q[keep], self.nodes_p[keep],
                                 self.weights[keep], self.values[keep])

    @classmethod
    def from_function(cls, fn: Callable, lat: LatticeSpec, nq: int, np_per_dim: int,
                      p_max: float) -> "PhaseSpaceDensity":
        """Sample fn(q, p) on the tensor grid over cell x [-p_max, p_max]^d, normalized."""
        qs, ps, w = phase_grid_nodes(lat, nq, np_per_dim, p_max)
        vals = np.asarray(fn(qs, ps), dtype=float)
        return cls(qs, ps, np.full(qs.shape[0], w), vals).normalized()


def phase_grid_nodes(lat: LatticeSpec, nq: int, np_per_dim: int, p_max: float):
    """Product nodes of the uniform cell grid and a midpoint momentum grid.

    Returns (q, p, weight) with q, p of shape (nq^d * np^d, d) and a scalar
    weight; the momentum grid is midpoint on [-p_max, p_max]^d, so smooth
    decaying integrands are integrated spectrally.
    """
    d = lat.dimension
    qs = position_grid(lat, nq)
    pmesh, wp = momentum_grid(d, np_per_dim, p_max)
    nqt, npt = qs.shape[0], pmesh.shape[0]
    q_full = np.repeat(qs, npt, axis=0)
    p_full = np.tile(pmesh, (nqt, 1))
    weight = grid_weight(lat, nq) * wp
    return q_full, p_full, weight


def momentum_grid(d: int, np_per_dim: int, p_max: float):
    """Midpoint grid of np_per_dim^d nodes on [-p_max, p_max]^d and its node weight."""
    dp = 2.0 * p_max / np_per_dim
    axis = -p_max + (np.arange(np_per_dim) + 0.5) * dp
    ps = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return ps, dp ** d


@dataclass
class FiberedDensity:
    """Low-rank fibered density operator: per fiber sum_m lambda_m |v_m><v_m|.

    Quadratures against |v|^2 (``grid_expectations``) run in one complex work
    block of shape (n_k, rank, n, ..., n), n = ``quadrature_len(m)``, made on
    first use and reused by every later call, since an evolution loop holds
    one density and evaluates it at every sample.  The block holds the
    head-placed transform of ``bloch.squared_values``, whose squared modulus
    is that of the grid values: the phase ramp of the head layout drops out.
    """

    kgrid: KGrid
    lat: LatticeSpec
    m: int
    hbar: float
    lambdas: np.ndarray   # (n_k, rank) nonnegative
    vectors: np.ndarray   # (n_k, rank, (2m+1)^d) flat coefficients
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=complex)
        n_g = (2 * self.m + 1) ** self.lat.dimension
        if self.lambdas.ndim != 2 or self.lambdas.shape[0] != self.kgrid.size:
            raise ValueError("lambdas must have shape (n_k, rank)")
        if self.vectors.shape != (*self.lambdas.shape, n_g):
            raise ValueError("vectors must have shape (n_k, rank, n_coeff)")
        if np.any(self.lambdas < -1e-14):
            raise ValueError("fiber weights must be nonnegative")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

    @property
    def rank(self) -> int:
        return self.lambdas.shape[1]

    @property
    def coeff_shape(self) -> tuple:
        return (2 * self.m + 1,) * self.lat.dimension

    def fiber_traces(self) -> np.ndarray:
        norms = np.sum(np.abs(self.vectors) ** 2, axis=2)
        return np.sum(self.lambdas * norms, axis=1)

    def compressed(self, tol: float) -> tuple["FiberedDensity", float]:
        """The same fibers on their leading eigenvectors, and the largest trace tail dropped.

        With s_j = sqrt(lambda_j), fiber k has the nonzero spectrum of the
        (rank x rank) Gram matrix G_ij = s_i s_j <v_i, v_j>, and the Gram
        eigenvector u with eigenvalue w gives the unit eigenvector
        sum_j u_j s_j v_j / sqrt(w).  The kept rank r is the smallest one, common
        to all fibers, whose discarded eigenvalues sum to at most tol times the
        fiber trace in every fiber; the kept eigenvalues are rescaled so that
        each fiber trace is unchanged.  Returns (density, largest discarded
        trace fraction over fibers); when nothing can be dropped the density
        itself is returned.
        """
        s = np.sqrt(np.clip(self.lambdas, 0.0, None))
        gram = np.stack([np.conj(v) @ v.T for v in self.vectors]) * s[:, :, None] * s[:, None, :]
        w, u = np.linalg.eigh(gram)                         # ascending, per fiber
        w = np.clip(w, 0.0, None)
        traces = self.fiber_traces()
        # tails[k, i]: trace left out when the i smallest eigenvalues of fiber k are dropped
        tails = np.concatenate([np.zeros((w.shape[0], 1)), np.cumsum(w, axis=1)], axis=1)
        n_drop = min(int(np.min(np.sum(tails <= tol * traces[:, None], axis=1))) - 1,
                     self.rank - 1)
        if n_drop <= 0:
            return self, 0.0
        w, u = w[:, n_drop:], u[:, :, n_drop:]
        inv_root = np.divide(1.0, np.sqrt(w), out=np.zeros_like(w), where=w > 0.0)
        vectors = (np.swapaxes(u, 1, 2) * s[:, None, :] * inv_root[:, :, None]) @ self.vectors
        lambdas = w * np.divide(traces, np.sum(w, axis=1), out=np.zeros_like(traces),
                                where=traces > 0.0)[:, None]
        dropped = np.divide(tails[:, n_drop], traces, out=np.zeros_like(traces),
                            where=traces > 0.0)
        return (FiberedDensity(self.kgrid, self.lat, self.m, self.hbar, lambdas, vectors),
                float(np.max(dropped)))

    def momentum_moments(self):
        """Moments of |c_G|^2 of every vector: N (n_k, rank), P (n_k, rank, d), Q (n_k, rank).

        N = sum |c_G|^2, P = sum hbar G |c_G|^2, Q = sum |hbar G|^2 |c_G|^2, so the
        momentum cost sum_G |xi - hbar G|^2 |c_G|^2 is N|xi|^2 - 2 xi.P + Q
        (``momentum_cost``).

        The squares re^2 and im^2 are formed one fiber at a time, and one
        product with the interleaved symbols (1, hbar G, |hbar G|^2) gives all
        three moments of the fiber.
        """
        d = self.lat.dimension
        hg = self.hbar * g_vectors(self.lat, self.m)
        symbols = np.repeat(np.column_stack([np.ones(len(hg)), hg, np.sum(hg * hg, axis=-1)]).T,
                            2, axis=1)                                  # (d+2, 2 n_G)
        moments = np.empty((self.kgrid.size, d + 2, self.rank))
        for fiber, vectors in zip(moments, self.vectors):
            sq = vectors.view(float)
            np.matmul(symbols, (sq * sq).T, out=fiber)
        return moments[:, 0], np.swapaxes(moments[:, 1:d + 1], 1, 2), moments[:, d + 1]

    def region_mask(self, region: Region, delta: float = 0.0) -> np.ndarray:
        """Indicator of a cell region on the quadrature grid, times the grid weight.

        A grid point counts when it lies in the periodized region, or within
        distance ``delta`` of it when ``delta`` > 0; ``masked_trace`` takes the result.
        """
        n = quadrature_len(self.m)
        pts = position_grid(self.lat, n)
        inside = region.contains_dilated(pts, delta) if delta > 0 else region.contains(pts)
        return inside.astype(float) * grid_weight(self.lat, n)

    def grid_expectations(self, weights: np.ndarray) -> np.ndarray:
        """sum_y w(y) |v(y)|^2 over the quadrature grid for every vector, shape (n_k, rank).

        ``weights`` is one grid function, shape (n^d,), or one per vector,
        shape (rank, n^d), with n = ``quadrature_len(m)``.  |v|^2 comes from
        the head-placed transform in the density's work block, which equals
        the grid values up to a unimodular phase per point; the squares
        re^2, im^2 are contracted with the weights, repeated for each pair,
        and the constant n^(2d) / |cell| the transform leaves out is applied
        to the (n_k, rank) result.
        """
        d, n = self.lat.dimension, quadrature_len(self.m)
        if self._work is None:
            self._work = np.empty(self.lambdas.shape + (n,) * d, dtype=complex)
        sq = squared_values(self.vectors.reshape(self.lambdas.shape + self.coeff_shape),
                            self._work, d)
        per_vector = (sq[..., None, :] @ np.repeat(weights, 2, axis=-1)[..., None])[..., 0, 0]
        return per_vector * (n ** (2 * d) / self.lat.cell_volume)

    def masked_trace(self, mask: np.ndarray) -> float:
        """Fiber average of sum_r lambda_r <v_r| mask |v_r>, mask on the quadrature grid.

        ``mask`` carries the grid weight, as the one ``region_mask`` returns.
        |v|^2 is that of the head-placed transform (``grid_expectations``),
        which differs from the grid values only by a phase per point.
        """
        per_vector = self.grid_expectations(mask)
        return float(self.lambdas.reshape(-1) @ per_vector.reshape(-1)) / self.kgrid.size


def momentum_cost(moments, xi: np.ndarray) -> np.ndarray:
    """sum_G |xi - hbar G|^2 |c_G|^2 from the moments (N, P, Q); xi broadcasts against P."""
    n, p, q = moments
    return n * np.sum(xi * xi, axis=-1) - 2.0 * np.sum(xi * p, axis=-1) + q


def periodic_trace(rho: FiberedDensity) -> float:
    """Normalized fiber average of the fiber traces (electrons per unit cell)."""
    return float(np.mean(rho.fiber_traces()))


def coherent_family(lat: LatticeSpec, kgrid: KGrid, m: int, hbar: float, q0, p0
                    ) -> FiberedDensity:
    """Rank-1 fibered density whose fiber k is the periodized packet at (q0, p0 - hbar*k)."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    vecs = coherent_coeff_batch(np.broadcast_to(q0, kgrid.points.shape),
                                p0 - hbar * kgrid.points, hbar, lat, m)
    return FiberedDensity(kgrid, lat, m, hbar, np.ones((kgrid.size, 1)), vecs[:, None, :])


# How far from 1 the mass of a density that toeplitz_quantize accepts may be.
_MASS_TOL = 1e-8


def toeplitz_quantize(f: PhaseSpaceDensity, lat: LatticeSpec, kgrid: KGrid, m: int,
                      hbar: float) -> FiberedDensity:
    """Quantize a phase-space density into a low-rank fibered operator.

    Fiber k collects one projector per quadrature node, onto the periodized
    packet centered at (q_j, p_j - hbar*k), weighted by w_j f_j.  The result
    has unit periodic trace up to the packet-normalization error, which is
    spectrally small once the plane-wave order resolves the packets.
    """
    if abs(f.mass - 1.0) > _MASS_TOL:
        raise ValueError(f"density mass {f.mass:.3e} is not 1 (tol {_MASS_TOL:g})")
    n_k = kgrid.size
    lam = np.broadcast_to((f.weights * f.values)[None, :], (n_k, f.size)).copy()
    vecs = np.empty((n_k, f.size, (2 * m + 1) ** lat.dimension), dtype=complex)
    for ik in range(n_k):
        vecs[ik] = coherent_coeff_batch(f.nodes_q, f.nodes_p - hbar * kgrid.points[ik],
                                        hbar, lat, m)
    return FiberedDensity(kgrid, lat, m, hbar, lam, vecs)


def husimi(rho: FiberedDensity, qs: np.ndarray, ps: np.ndarray,
           weight: float) -> PhaseSpaceDensity:
    """Husimi density of a fibered operator on given phase-space nodes.

    Evaluates the fiber average of the coherent-state expectations
    ``(2 pi hbar)^-d <packet(q, p - hbar k)| R_k |packet(q, p - hbar k)>``
    at all product nodes (qs x ps); the scalar ``weight`` is the per-node
    quadrature weight of that product grid.  A packet overlap is the
    coefficients times the momentum window exp(-|p - hbar k - hbar G|^2 / (2 hbar))
    against the phases exp(i q.G).  The window is the packet Gaussian of
    ``states`` at q = 0 with unit amplitude, zero below the packets' floor.
    """
    qs = np.atleast_2d(qs)
    ps = np.atleast_2d(ps)
    lat, hbar = rho.lat, rho.hbar
    d = lat.dimension
    g = g_vectors(lat, rho.m)
    phase_q = np.exp(1j * qs @ g.T)                                     # (Nq, nG)
    acc = np.zeros((ps.shape[0], qs.shape[0]))
    for k, lambdas, vectors in zip(rho.kgrid.points, rho.lambdas, rho.vectors):
        window = _floored_gaussian(np.zeros_like(ps), ps - hbar * k, hbar * g, hbar, 1.0)
        fiber = np.zeros_like(acc)
        for w, vector in zip(lambdas, vectors):
            t = (window * vector) @ phase_q.T
            fiber += w * (t.real ** 2 + t.imag ** 2)
        acc += fiber
    pref = (2.0 * np.pi * hbar) ** (-d) * ((4.0 * np.pi * hbar) ** (d / 2.0) / lat.cell_volume)
    acc = pref * acc.T / rho.kgrid.size
    return PhaseSpaceDensity(np.repeat(qs, ps.shape[0], axis=0), np.tile(ps, (qs.shape[0], 1)),
                             np.full(acc.size, weight), acc.reshape(-1))


# Offsets G - G' whose Gaussian factor is below the double-precision unit
# roundoff leave every Husimi mass unchanged.
_GAUSS_FLOOR = 2.0 ** -53


def husimi_mass_on_boxes(rho: FiberedDensity, k_set: PhaseBoxSet) -> float:
    """Husimi mass on a union of disjoint phase-space boxes, as a finite sum.

    With S = (G + G') / 2, the mass of fiber k on a box Q x P is

        2^-d / |cell| sum_{G,G'} c_G conj(c_G') exp(-hbar |G - G'|^2 / 4)
            int_Q exp(i (G - G').q) dq  prod_i [erf((P_hi - hbar k - hbar S)_i / sqrt(hbar))
                                                - erf((P_lo - hbar k - hbar S)_i / sqrt(hbar))]

    (an erf for the p-integral of two Gaussian momentum windows, a box
    transform for the q-integral).  The erf factor is evaluated once per fiber
    and box on the grid of index sums; the sum runs over the offsets G - G'
    whose Gaussian factor is at least ``_GAUSS_FLOOR``.  Fibers are weighted
    by lambda and averaged.
    """
    lat, m, hbar = rho.lat, rho.m, rho.hbar
    d = lat.dimension
    offsets = centered_indices(2 * m, d)
    dg = offsets @ lat.reciprocal
    gauss = np.exp(-hbar * np.sum(dg * dg, axis=-1) / 4.0)
    keep = gauss >= _GAUSS_FLOOR
    dg, gauss = dg[keep], gauss[keep]
    slices = [_offset_slices(off, m) for off in offsets[keep]]
    vectors = (np.sqrt(np.clip(rho.lambdas, 0.0, None))[:, :, None] * rho.vectors
               ).reshape(rho.lambdas.shape + rho.coeff_shape)
    centres = hbar * (rho.kgrid.points[:, None, :] + g_vectors(lat, 2 * m) / 2.0)
    root = np.sqrt(hbar)
    total = 0.0
    for (qlo, qhi), (plo, phi) in zip(k_set.q_bounds, k_set.p_bounds):
        width = qhi - qlo
        box = np.prod(width * np.exp(0.5j * dg * (qhi + qlo)) * np.sinc(dg * width / (2 * np.pi)),
                      axis=-1)
        windows = np.prod(erf((phi - centres) / root) - erf((plo - centres) / root),
                          axis=-1).reshape((rho.kgrid.size,) + (4 * m + 1,) * d)
        for vecs, window in zip(vectors, windows):
            for factor, (hi, lo, sums) in zip(gauss * box, slices):
                pairs = vecs[(Ellipsis,) + hi] * np.conj(vecs[(Ellipsis,) + lo])
                total += (factor * np.sum(pairs * window[sums])).real
    return total / (2 ** d * lat.cell_volume * rho.kgrid.size)


def _offset_slices(offset: np.ndarray, m: int):
    """Aligned slices of the pairs (G, G') with G - G' = ``offset``.

    Slices of the (2m+1)^d coefficients at G and at G', and of the (4m+1)^d
    grid of index sums at G + G'.
    """
    start, stop = np.maximum(0, -offset), np.minimum(2 * m + 1, 2 * m + 1 - offset)
    return (tuple(map(slice, start + offset, stop + offset)), tuple(map(slice, start, stop)),
            tuple(slice(2 * a + o, 2 * b + o - 1, 2) for a, b, o in zip(start, stop, offset)))

