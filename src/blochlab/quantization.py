"""Periodic trace, Toeplitz quantization, Husimi transform, and cell observation.

Quantum densities are kept in low-rank form throughout: each fiber is a
nonnegative combination of projectors onto periodic fields.  Toeplitz
quantization produces exactly that shape (one projector per phase-space
quadrature node) and unitary evolution preserves it, so dense fiber matrices
only ever appear inside small test oracles.  The one exception is the band
path of ``quantum_dynamics``: each fiber's band basis and the observation's
Hermitian form in it (``quantum_dynamics._band_forms``, at V = 0 on the
support of the vectors), one fiber at a time and at most ``_CHUNK_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bloch import KGrid, g_vectors, grid_weight, position_grid, quadrature_len, \
    squared_values
from .lattice import LatticeSpec, Region
from .states import _ROUNDOFF, _floored_gaussian, coherent_coeff_batch


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


# Bytes of one chunk's complex work block in ``FiberedDensity.grid_expectations``:
# one core's L2 cache (2 MiB per core on the 2-core Xeon VM of the benchmark).
_CHUNK_BYTES = 2 ** 21


@dataclass
class FiberedDensity:
    """Low-rank fibered density operator: per fiber sum_m lambda_m |v_m><v_m|.

    Quadratures against |v|^2 (``grid_expectations``) sweep the vectors in
    chunks of nodes (``node_chunks``): slices of the rank axis, all fibers
    each, whose complex work block (n_k, c, n, ..., n), n =
    ``quadrature_len(m)``, fits in ``_CHUNK_BYTES``.  A chunk's transform,
    squares and weights then stay in cache, where the whole block (20 MB on a
    2-D cell with 134 nodes) would be streamed through memory several times
    per sample.  ``_work`` is one flat buffer sized for a full chunk, made on
    first use; every chunk, the short last one too, fills a contiguous prefix
    of it, and every later call reuses it, since an evolution loop holds one
    density and evaluates it at every sample.  The block holds the
    head-placed transform of ``bloch.squared_values``, whose squared modulus
    is that of the grid values: the phase ramp of the head layout drops out.
    ``_pairs`` holds a chunk's weights, each written twice in a row to meet
    the interleaved squares, and is reused the same way.
    The vectors are kept C-contiguous, so that ``quantum_dynamics.evolution``
    can advance their support box in place through a reshaped view.
    """

    kgrid: KGrid
    lat: LatticeSpec
    m: int
    hbar: float
    lambdas: np.ndarray   # (n_k, rank) nonnegative
    vectors: np.ndarray   # (n_k, rank, (2m+1)^d) flat coefficients
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _pairs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.vectors = np.ascontiguousarray(self.vectors, dtype=complex)
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

    def support(self) -> np.ndarray:
        """Flat indices, ascending, of the coefficients that are nonzero in some vector."""
        return np.flatnonzero(np.any(self.vectors, axis=(0, 1)))

    def support_box(self) -> tuple:
        """The smallest index box that holds every coefficient ``support()`` finds.

        One slice per axis of ``coeff_shape``, as ``bloch.squared_values``
        takes it.  A density whose vectors are all zero has the empty box,
        ``slice(0, 0)`` on every axis.
        """
        index = np.unravel_index(self.support(), self.coeff_shape)
        if not index[0].size:
            return (slice(0, 0),) * self.lat.dimension
        return tuple(slice(int(i.min()), int(i.max()) + 1) for i in index)

    def fiber_traces(self) -> np.ndarray:
        """sum_r lambda_r |v_r|^2 per fiber, the squared norms read from the float view."""
        x = self.vectors.view(float)
        return np.sum(self.lambdas * (x[..., None, :] @ x[..., :, None])[..., 0, 0], axis=1)

    def compressed(self, tol: float) -> tuple["FiberedDensity", float]:
        """The same fibers on their leading eigenvectors, and the largest trace tail dropped.

        With s_j = sqrt(lambda_j), fiber k has the nonzero spectrum of the
        (rank x rank) Gram matrix G_ij = s_i s_j <v_i, v_j>, and the Gram
        eigenvector u with eigenvalue w gives the unit eigenvector
        sum_j u_j s_j v_j / sqrt(w).  The kept rank r is the smallest one, common
        to all fibers, whose discarded eigenvalues sum to at most tol times the
        fiber trace in every fiber; the kept eigenvalues are rescaled so that
        each fiber trace is unchanged.  The Gram matrices and the mixing
        product run on the coefficients that are nonzero in some vector, and
        the others stay zero.  Returns (density, largest discarded trace
        fraction over fibers); when nothing can be dropped the density itself
        is returned.
        """
        s = np.sqrt(np.clip(self.lambdas, 0.0, None))
        support = self.support()
        on_support = self.vectors[:, :, support]
        gram = np.conj(on_support) @ np.swapaxes(on_support, 1, 2) * s[:, :, None] * s[:, None, :]
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
        vectors = np.zeros(w.shape + self.vectors.shape[-1:], dtype=complex)
        vectors[:, :, support] = (np.swapaxes(u, 1, 2) * s[:, None, :] * inv_root[:, :, None]
                                  ) @ on_support
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

    def node_chunks(self) -> list:
        """Slices of the rank axis, in order, of c nodes each but a shorter last one.

        c is the most nodes whose complex work block (n_k, c, n^d) stays within
        ``_CHUNK_BYTES``, and at least one.
        """
        node_bytes = 16 * self.kgrid.size * quadrature_len(self.m) ** self.lat.dimension
        c = max(1, _CHUNK_BYTES // node_bytes)
        return [slice(i, min(i + c, self.rank)) for i in range(0, self.rank, c)]

    def grid_expectations(self, weights: np.ndarray, nodes: slice | None = None,
                          box: tuple | None = None) -> np.ndarray:
        """sum_y w(y) |v(y)|^2 over the quadrature grid for every vector of a chunk.

        ``nodes`` is one of ``node_chunks``; the result has shape (n_k, c) and
        ``weights`` is one grid function, shape (n^d,), or the chunk's rows,
        shape (c, n^d), with n = ``quadrature_len(m)``.  Without ``nodes`` the
        chunks are swept in turn: the result is (n_k, rank) and per-vector
        weights have shape (rank, n^d).  |v|^2 comes from the head-placed
        transform in the density's work block, which equals the grid values up
        to a unimodular phase per point; the squares re^2, im^2 are contracted
        with the weights, written twice in a row into ``_pairs``, and the
        constant |cell| the transform leaves in is divided out of the result.
        ``box`` is an index box that holds every nonzero coefficient, such as
        ``support_box()``: only the box is transformed (``squared_values``),
        with the same result bit for bit; None transforms the whole window.
        """
        if nodes is None:
            out = np.empty(self.lambdas.shape)
            for chunk in self.node_chunks():
                out[:, chunk] = self.grid_expectations(
                    weights if weights.ndim == 1 else weights[chunk], chunk, box)
            return out
        d, n, n_k = self.lat.dimension, quadrature_len(self.m), self.kgrid.size
        if self._work is None:                                  # the first chunk is a full one
            full = self.node_chunks()[0].stop
            self._work = np.empty(n_k * full * n ** d, dtype=complex)
            self._pairs = np.empty(full * 2 * n ** d)
        c = nodes.stop - nodes.start
        work = self._work[:n_k * c * n ** d].reshape((n_k, c) + (n,) * d)
        sq = squared_values(self.vectors[:, nodes].reshape((n_k, c) + self.coeff_shape), work, d,
                            box)
        pairs = self._pairs[:2 * weights.size].reshape(weights.shape[:-1] + (-1,))
        pairs[..., 0::2] = weights
        pairs[..., 1::2] = weights
        per_vector = (sq[..., None, :] @ pairs[..., None])[..., 0, 0]
        return per_vector / self.lat.cell_volume

    def masked_trace(self, mask: np.ndarray, box: tuple | None = None) -> float:
        """Fiber average of sum_r lambda_r <v_r| mask |v_r>, mask on the quadrature grid.

        ``mask`` carries the grid weight, as the one ``region_mask`` returns.
        |v|^2 is that of the head-placed transform, swept chunk by chunk
        (``grid_expectations``, which takes ``box``); it differs from the grid
        values only by a phase per point.
        """
        per_vector = self.grid_expectations(mask, box=box)
        return float(self.lambdas.reshape(-1) @ per_vector.reshape(-1)) / self.kgrid.size


def momentum_cost(moments, xi: np.ndarray) -> np.ndarray:
    """sum_G |xi - hbar G|^2 |c_G|^2 from the moments (N, P, Q); xi broadcasts against P."""
    n, p, q = moments
    return n * np.sum(xi * xi, axis=-1) - 2.0 * np.sum(xi * p, axis=-1) + q


def periodic_trace(rho: FiberedDensity) -> float:
    """Normalized fiber average of the fiber traces (electrons per unit cell)."""
    return float(np.mean(rho.fiber_traces()))


# How far from 1 the mass of a density that toeplitz_quantize accepts may be.
_MASS_TOL = 1e-8


def toeplitz_quantize(f: PhaseSpaceDensity, lat: LatticeSpec, kgrid: KGrid, m: int,
                      hbar: float) -> FiberedDensity:
    """Quantize a phase-space density into a low-rank fibered operator.

    Fiber k collects one projector per quadrature node, onto the periodized
    packet centered at (q_j, p_j - hbar*k), weighted by w_j f_j.  The result
    has unit periodic trace up to the packet-normalization error, which is
    spectrally small once the plane-wave order resolves the packets.  A unit
    point mass at (q, p) gives the coherent family: one packet per fiber, at
    (q, p - hbar*k), with weight 1.
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
    ``states`` at q = 0 with unit amplitude, zero below the unit roundoff, the
    packets' floor at a unit peak.
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


# Cephes' rational approximations, highest power first, the denominators with
# an implicit leading 1: erf on |x| <= 1 (in x^2), erfc on 1 < |x| < 8.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# From here on erfc|x| < 2^-54, so 1 - erfc|x| rounds to 1 exactly, as in Cephes.
_ERF_ONE = 6.0


def _horner(x: np.ndarray, coeffs, monic: bool = False) -> np.ndarray:
    y = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def erf(x) -> np.ndarray:
    """The error function, elementwise, in the Cephes form that ``scipy.special.erf`` evaluates.

    x times a rational function of x^2 on |x| <= 1; sign(x) (1 - erfc|x|)
    with erfc|x| = exp(-x^2) P(|x|) / Q(|x|) on 1 < |x| < 6; sign(x) beyond,
    where no rational function is evaluated (at |x| = inf it would be
    inf / inf); nan stays nan.  The values equal Cephes' bit for bit except
    where numpy's exp and the C library's round apart, by 1 ulp.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.copysign(1.0, x)
    inner = a <= 1.0
    z = x[inner] ** 2
    out[inner] = x[inner] * _horner(z, _ERF_T) / _horner(z, _ERF_U, True)
    mid = ~(inner | (a >= _ERF_ONE))
    t = a[mid]
    tail = np.exp(-t * t) * _horner(t, _ERFC_P) / _horner(t, _ERFC_Q, True)
    out[mid] = np.copysign(1.0 - tail, x[mid])
    return out


def husimi_mass_on_boxes(rho: FiberedDensity, k_set: PhaseBoxSet) -> float:
    """Husimi mass on a union of disjoint phase-space boxes, as a finite sum.

    With S = (G + G') / 2, the mass of fiber k on a box Q x P is

        2^-d / |cell| sum_{G,G'} c_G conj(c_G') exp(-hbar |G - G'|^2 / 4)
            int_Q exp(i (G - G').q) dq  prod_i [erf((P_hi - hbar k - hbar S)_i / sqrt(hbar))
                                                - erf((P_lo - hbar k - hbar S)_i / sqrt(hbar))]

    (an erf for the p-integral of two Gaussian momentum windows, a box
    transform for the q-integral).  The sum runs over the support box of the
    vectors (``FiberedDensity.support_box``), the smallest index box that
    holds every nonzero coefficient of every fiber: the erf factor is
    evaluated once per fiber and box on its grid of index sums, and the
    offsets G - G' are those of two indices in it whose Gaussian factor is
    at least the unit roundoff.  Each offset is one product over all fibers
    and vectors.  Fibers are weighted by lambda and averaged.  A density
    whose vectors are all zero has the empty box and mass 0.0.
    """
    lat, hbar = rho.lat, rho.hbar
    d = lat.dimension
    box = rho.support_box()
    if box[0].start == box[0].stop:
        return 0.0
    first = np.array([s.start for s in box])
    vectors = (np.sqrt(np.clip(rho.lambdas, 0.0, None)).reshape(rho.lambdas.shape + (1,) * d)
               * rho.vectors.reshape(rho.lambdas.shape + rho.coeff_shape)[(Ellipsis,) + box])
    conj = np.conj(vectors)
    sizes = np.array(vectors.shape[2:])
    offsets = np.stack(np.meshgrid(*(np.arange(1 - n, n) for n in sizes), indexing="ij"),
                       axis=-1).reshape(-1, d)
    dg = offsets @ lat.reciprocal
    gauss = np.exp(-hbar * np.sum(dg * dg, axis=-1) / 4.0)
    keep = gauss >= _ROUNDOFF
    dg, gauss = dg[keep], gauss[keep]
    slices = [_offset_slices(off, sizes) for off in offsets[keep]]
    # index sums n + n' of the box: 2 (first - m) + 0 .. 2 (size - 1) per axis
    sums = np.stack(np.meshgrid(*(np.arange(2 * n - 1) for n in sizes), indexing="ij"),
                    axis=-1).reshape(-1, d) + 2 * (first - rho.m)
    centres = hbar * (rho.kgrid.points[:, None, :] + (sums @ lat.reciprocal) / 2.0)
    root = np.sqrt(hbar)
    total = 0.0
    for (qlo, qhi), (plo, phi) in zip(k_set.q_bounds, k_set.p_bounds):
        width = qhi - qlo
        box = np.prod(width * np.exp(0.5j * dg * (qhi + qlo)) * np.sinc(dg * width / (2 * np.pi)),
                      axis=-1)
        windows = np.prod(erf((phi - centres) / root) - erf((plo - centres) / root), axis=-1
                          ).reshape((rho.kgrid.size, 1) + tuple(2 * sizes - 1))
        for factor, (hi, lo, at) in zip(gauss * box, slices):
            pairs = vectors[(Ellipsis,) + hi] * conj[(Ellipsis,) + lo]
            pairs *= windows[(Ellipsis,) + at]
            total += (factor * np.sum(pairs)).real
    return total / (2 ** d * lat.cell_volume * rho.kgrid.size)


def _offset_slices(offset: np.ndarray, sizes: np.ndarray):
    """Aligned slices of the pairs (G, G') with G - G' = ``offset`` in a box of ``sizes``.

    Slices of the box's coefficients at G and at G', and of its grid of index
    sums, 2 sizes - 1 per axis, at G + G'.
    """
    start, stop = np.maximum(0, -offset), np.minimum(sizes, sizes - offset)
    return (tuple(map(slice, start + offset, stop + offset)), tuple(map(slice, start, stop)),
            tuple(slice(2 * a + o, 2 * b + o - 1, 2) for a, b, o in zip(start, stop, offset)))
