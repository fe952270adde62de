"""Hamiltonian flows and the geometric-control constant.

The integrator is Stoermer-Verlet (order 2, symplectic); trajectories are
batched over initial conditions, so the transport of quadrature nodes and
the orbits of the flow route run as single vectorized sweeps.

The geometric-control constant (Golse & Paul 2022, carried to the cell)
comes from one branch and bound over sub-boxes of K (Moore, Kearfott &
Cloud 2009), with one of three occupation classes.  At V = 0 the orbits are
q + t p, and the times the image of a box lies wholly in a translate of
omega are linear (``_FreeOccupation``).  In 1-D at V != 0, when no start
can turn, every occupation time is a finite sum of differences of the
energy integral Q_E(x) = int_0^x dq / sqrt(2 (E - V(q)))
(``_Occupation1D``).  Both bracket the constant.  For every other input
``_FlowOccupation`` counts the time along Verlet orbits from sub-box
centres: an estimate, with no lower bound.
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
# Width of the exact brackets [C_GC_lo, C_GC_hi].
_GC_TOL = 1e-3
# Gauss-Legendre node counts of Q_E, fewest first: the first whose a-priori error
# bound on an occupation time is at most _GC_TOL / 8 is used.
_GC_NODES = (32, 64, 128, 256)
# Elements of the largest temporary of one branch-and-bound chunk (256 kB of
# reals); the exact routes need one sub-box's crossings of omega, or omega's
# translates, to fit.
_GC_CHUNK = 32768
# Full chunks' worth of sub-boxes after which the branch and bound stops
# refining and reports the (valid, wider) bracket it has.
_GC_MAX_CHUNKS = 1024
# Rounding slack, in machine epsilons of the free route's largest coordinate,
# within which two of omega's translates touch or share an extent.
_MERGE_ULPS = 16


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
    """The geometric-control constant: the least time a trajectory from K spends in omega.

    ``value`` is, up to the quadrature error bound, the occupation time of
    some start in K: an upper estimate.  On the exact routes ``[lower, value]``
    brackets the constant, at most ``_GC_TOL`` wide unless ``_GC_MAX_CHUNKS``
    stopped the refinement, and ``n_samples`` is 0.  On the flow route
    ``lower`` is 0.0 and ``n_samples`` is the number of centres evaluated.
    """

    value: float
    n_samples: int
    lower: float = 0.0

    @property
    def satisfied(self) -> bool:
        """The constant is shown positive: lower > 0, which only an exact route proves."""
        return self.lower > 0.0


def _omega_intervals(omega: Region, period: float) -> np.ndarray:
    """omega's part of the 1-D cell as disjoint sorted rows (A, B), 0 <= A < B <= a.

    Positions are measured from the cell's left edge.  The part is the one
    ``Region.contains`` tests: each box moved by -a, 0 and a and clipped to
    the cell; overlapping pieces are merged, so no time is counted twice.
    """
    half = 0.5 * period
    pieces = sorted((max(lo - s, -half) + half, min(hi - s, half) + half)
                    for (lo,), (hi,) in omega.boxes for s in (-period, 0.0, period)
                    if lo - s < half and hi - s > -half)
    merged = []
    for a, b in pieces:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return np.array(merged, dtype=float).reshape(-1, 2)


def _quadrature_error(potential: TrigPotential, nodes: int, period: float,
                      energy: float) -> float:
    """Bound on the n-node Gauss-Legendre error of F_E(r), for 0 <= r <= a and E >= energy.

    On [0, r] the error is at most (r/2)(64/15) M rho^(-2n) / (rho^2 - 1) when
    the integrand is analytic with |f| <= M on the Bernstein ellipse of
    parameter rho (Trefethen 2013, ATAP, Thm 19.3).  That ellipse lies within
    b = r (rho - 1/rho) / 4 of the real axis, where
    |V(x + iy)| <= sum |c_t| cosh(|G_t| b), so
    M = 1 / sqrt(2 (E - sum |c_t| cosh(|G_t| b))) while that is positive.  The
    bound at r = a holds for every r; it is minimized over a grid of rho.
    """
    amplitudes = np.abs([c for _, c, _ in potential.terms])
    g = np.abs(potential.g_vectors()[:, 0])
    rho = 1.0 + np.geomspace(1e-3, 1e2, 256)
    with np.errstate(over="ignore"):
        margin = energy - amplitudes @ np.cosh(np.outer(g, 0.25 * period * (rho - 1.0 / rho)))
    rho, margin = rho[margin > 0], margin[margin > 0]
    bound = (32.0 / 15.0) * period * rho ** (-2.0 * nodes) / ((rho ** 2 - 1.0)
                                                               * np.sqrt(2.0 * margin))
    return float(bound.min()) if bound.size else np.inf


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre polynomial P_n from the nodes' asymptotic
    positions, which converges in three steps for every n of ``_GC_NODES``;
    ``numpy.polynomial``'s rule would load LAPACK's eigensolver for it.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


class _Occupation1D:
    """Occupation times of omega along 1-D orbits that never turn, from the energy integral.

    Positions u are measured from the cell's left edge, so the cell is [0, a)
    and Q_E(u) = floor(u/a) tau(E) + F_E(u mod a), with
    F_E(r) = int_0^r du / sqrt(2 (E - V)) by one Gauss-Legendre rule on
    [0, r] and tau(E) = F_E(a), the time to cross a cell.  A start u0 moving
    right is in the copy [A + n a, B + n a] of an omega interval for
    t in [Q_E(A + n a) - Q_E(u0), Q_E(B + n a) - Q_E(u0)]; one moving left
    for t in [Q_E(u0) - Q_E(B + n a), Q_E(u0) - Q_E(A + n a)].
    """

    def __init__(self, horizon: float, ends: np.ndarray, potential: TrigPotential,
                 period: float, nodes: int, copies: np.ndarray):
        x, w = _gauss_legendre(nodes)
        self.potential, self.horizon, self.period, self.copies = potential, horizon, period, copies
        self.frac, self.weights = 0.5 * (1.0 + x), 0.5 * w
        amplitudes = np.abs([c for _, c, _ in potential.terms])
        self.v_bound = float(np.sum(amplitudes))
        self.lipschitz = float(amplitudes @ np.abs(potential.g_vectors()[:, 0]))
        j = ends.shape[0]
        self.at_a, self.at_b = slice(0, j), slice(j, 2 * j)
        # the fixed upper limits of F: every A, every B, and a for tau
        self.limits = np.concatenate([ends[:, 0], ends[:, 1], [period]])
        self.v_limits = self._v(self.limits[:, None] * self.frac)
        self.rows = _GC_CHUNK // max(nodes * self.limits.size, j * copies.size)

    def _v(self, u):
        """V at positions u measured from the cell's left edge."""
        return self.potential.value((u - 0.5 * self.period)[..., None])

    def _start(self, u, energies):
        """Cell index k of each u, and F_E(u - k a) at each energy array of ``energies``."""
        k = np.floor(u / self.period)
        r = u - k * self.period
        v = self._v(r[:, None] * self.frac)
        return k, [r * (1.0 / np.sqrt(2.0 * (e[:, None] - v)) @ self.weights) for e in energies]

    def _at_limits(self, e):
        """F_E at every A, every B and at a, shape (rows, 2J + 1)."""
        return self.limits * (1.0 / np.sqrt(2.0 * (e[:, None, None] - self.v_limits))
                              @ self.weights)

    def _gap(self, f_limits, cols, k, f_start):
        """Q_E(A + n a) - Q_E(u) (cols ``at_a``) or with B (``at_b``), shape (rows, J, copies)."""
        cells = (self.copies - k[:, None])[:, None, :] * f_limits[:, -1, None, None]
        return cells + (f_limits[:, cols] - f_start[:, None])[..., None]

    def _occupied(self, t_in, t_out):
        span = np.minimum(t_out, self.horizon) - np.maximum(t_in, 0.0)
        return np.maximum(span, 0.0).sum(axis=(1, 2))

    def bounds(self, boxes: np.ndarray):
        """Lower bound over each sub-box (u1, u2, p1, p2) and the occupation from its centre."""
        lower, centre = np.empty(boxes.shape[0]), np.empty(boxes.shape[0])
        for i in range(0, boxes.shape[0], self.rows):
            part = slice(i, i + self.rows)
            lower[part], centre[part] = self._chunk(*boxes[part].T)
        return lower, centre

    def _chunk(self, u1, u2, p1, p2):
        """``bounds`` of one chunk.

        The energies of a sub-box lie in [e1, e2], from a Lipschitz bound on V
        about its centre.  1/sqrt(2(E - V)) falls as E grows, so moving right
        every start enters a copy no later than the later entry from u1 at e1
        or e2, and leaves it no earlier than the earlier exit from u2; moving
        left, the same with the roles of u1 and u2 and of A and B swapped.
        """
        uc, pc = 0.5 * (u1 + u2), 0.5 * (p1 + p2)
        vc = self._v(uc)
        spread = 0.5 * self.lipschitz * (u2 - u1)
        e1 = 0.5 * np.minimum(p1 * p1, p2 * p2) + np.maximum(vc - spread, -self.v_bound)
        e2 = 0.5 * np.maximum(p1 * p1, p2 * p2) + np.minimum(vc + spread, self.v_bound)
        ec = 0.5 * pc * pc + vc
        lim1, lim2, limc = self._at_limits(e1), self._at_limits(e2), self._at_limits(ec)
        k1, (f11, f12) = self._start(u1, (e1, e2))
        k2, (f21, f22) = self._start(u2, (e1, e2))
        kc, (fc,) = self._start(uc, (ec,))
        late = np.maximum(self._gap(lim1, self.at_a, k1, f11), self._gap(lim2, self.at_a, k1, f12))
        early = np.minimum(self._gap(lim1, self.at_b, k2, f21),
                           self._gap(lim2, self.at_b, k2, f22))
        at_a, at_b = self._gap(limc, self.at_a, kc, fc), self._gap(limc, self.at_b, kc, fc)
        right = (pc > 0)[:, None, None]
        return (self._occupied(np.where(right, late, -early), np.where(right, early, -late)),
                self._occupied(np.where(right, at_a, -at_b), np.where(right, at_b, -at_a)))


def _branch_and_bound(bounds, split, boxes: np.ndarray, tol: float, cap: int):
    """(lo, hi) of the least occupation over the sub-boxes ``boxes`` of K.

    ``bounds(boxes)`` gives each sub-box's lower bound and its centre's
    occupation, and ``split(boxes)`` the sub-boxes' parts.  hi is the least
    centre occupation; a sub-box is split while its lower bound is below
    hi - tol, until ``cap`` sub-boxes have been bounded, after which the
    bracket is the wider, still valid, one reached.
    """
    lo = hi = np.inf
    evaluated = 0
    while boxes.size:
        lower, centre = bounds(boxes)
        evaluated += boxes.shape[0]
        hi = min(hi, float(centre.min()))
        refine = lower < hi - tol
        if evaluated >= cap:
            refine[:] = False
        lo = min(lo, float(lower[~refine].min(initial=np.inf)))
        boxes = split(boxes[refine])
    return lo, hi


def _quartered(boxes: np.ndarray) -> np.ndarray:
    """The four halves-by-halves of each (u1, u2, p1, p2) row."""
    u1, u2, p1, p2 = boxes.T
    um, pm = 0.5 * (u1 + u2), 0.5 * (p1 + p2)
    return np.concatenate([np.stack(c, axis=1) for c in
                           ((u1, um, p1, pm), (um, u2, p1, pm), (u1, um, pm, p2), (um, u2, pm, p2))])


def _line_route(horizon: float, k_set: PhaseBoxSet, omega: Region, potential: TrigPotential):
    """``_branch_and_bound``'s arguments and error bound for ``_Occupation1D``, or None.

    The route needs one dimension and no start in K that can turn: every K
    box has (min |p|)^2 / 2 > 2 sum |c_t|, so E - V >= p0^2/2 - 2 sum |c_t| > 0
    along the orbit.  Sub-boxes are quartered while their lower bound is
    below hi by more than _GC_TOL less twice the quadrature error, which then
    widens both ends.  An omega that covers the cell gives (T, T).  None also
    when one start crosses more than ``_GC_CHUNK`` copies of omega within T,
    or no rule of ``_GC_NODES`` brings the error below _GC_TOL / 8.
    """
    if k_set.q_bounds.shape[2] != 1:
        return None
    v_bound = sum(abs(c) for _, c, _ in potential.terms)
    p = k_set.p_bounds[:, :, 0]
    p_min = np.where(p[:, 0] > 0, p[:, 0], np.where(p[:, 1] < 0, -p[:, 1], 0.0))
    if not np.all(0.5 * p_min ** 2 > 2.0 * v_bound):
        return None
    period = abs(float(potential.lat.basis[0, 0]))
    ends = _omega_intervals(omega, period)
    u = k_set.q_bounds[:, :, 0] + 0.5 * period
    if ends.tolist() == [[0.0, period]]:
        return _uniform(horizon, np.concatenate([u, p], axis=1))
    # speed^2 = p0^2 + 2 (V(q0) - V(q)) <= max p^2 + 4 sum |c_t|
    reach = horizon * np.sqrt(np.max(p * p) + 4.0 * v_bound)
    first, last = np.floor(u.min() / period), np.floor(u.max() / period)
    n_lo = np.floor((u.min() - reach * np.any(p < 0)) / period)
    n_hi = np.floor((u.max() + reach * np.any(p > 0)) / period)
    if ends.shape[0] * (n_hi - n_lo + 1) > _GC_CHUNK:
        return None
    copies = np.arange(n_lo, n_hi + 1)
    # each entry or exit time is (n - k) tau + F - F, |n - k| at most this many cells
    cells = max(n_hi - first, last - n_lo) + 2
    energy = 0.5 * float(p_min.min()) ** 2 - v_bound
    for nodes in _GC_NODES:
        err = 2 * ends.shape[0] * copies.size * cells \
            * _quadrature_error(potential, nodes, period, energy)
        if err <= _GC_TOL / 8:
            break
    else:
        return None
    occupation = _Occupation1D(horizon, ends, potential, period, nodes, copies)
    return (occupation.bounds, _quartered, np.concatenate([u, p], axis=1),
            _GC_TOL - 2.0 * err, _GC_MAX_CHUNKS * occupation.rows), err


def _unit_corners(d: int) -> np.ndarray:
    """The 2^d vertices of the unit cube, as rows of 0s and 1s."""
    return np.stack(np.meshgrid(*([[0, 1]] * d), indexing="ij"), axis=-1).reshape(-1, d)


def _clusters(values: np.ndarray, tol: float) -> np.ndarray:
    """Per column, each value's cluster index: the sorted values part where a gap exceeds tol."""
    order = np.argsort(values, axis=0)
    gaps = np.diff(np.take_along_axis(values, order, axis=0), axis=0, prepend=-np.inf) > tol
    ids = np.empty(values.shape, dtype=int)
    np.put_along_axis(ids, order, np.cumsum(gaps, axis=0), axis=0)
    return ids


def _merged(lo: np.ndarray, hi: np.ndarray, tol: float):
    """The boxes (lo, hi) with any two that touch or overlap along one axis and
    share their extents on the others, up to tol, joined, until no two do.

    A joined box spans both along the axis and keeps the common part of the
    other extents, so it holds no point that neither box holds beyond tol.
    """
    lo, hi = lo.copy(), hi.copy()
    count = None
    while count != lo.shape[0]:
        count = lo.shape[0]
        for k in range(lo.shape[1]):
            other = np.arange(lo.shape[1]) != k
            ids = _clusters(np.concatenate([lo[:, other], hi[:, other]], axis=1), tol)
            # along axis k, each box joins the last kept box with its other extents
            last, keep = {}, []
            for r in np.argsort(lo[:, k]):
                s = last.get(key := tuple(ids[r]))
                if s is not None and lo[r, k] <= hi[s, k] + tol:
                    hi[s, k] = max(hi[s, k], hi[r, k])
                    lo[s, other] = np.maximum(lo[s, other], lo[r, other])
                    hi[s, other] = np.minimum(hi[s, other], hi[r, other])
                else:
                    last[key] = r
                    keep.append(r)
            lo, hi = lo[keep], hi[keep]
    return lo, hi


def _free_translates(horizon: float, k_set: PhaseBoxSet, omega: Region):
    """omega's lattice translates that a free orbit from K meets within T, merged, as (lo, hi).

    While every box of omega lies in the 3^d cells around the unit cell,
    ``Region.contains`` tests the union of all the boxes' lattice translates
    (a point of a box in the cell n is found from the reduced point by the
    shift n).  Free orbits from K stay in the bounding box of K's q boxes
    and their moves by T p, so only the translates meeting it count.  They
    are merged (``_merged``, up to ``_MERGE_ULPS`` of rounding), so a box
    that tiles a lattice direction becomes one strip along it.  None when a
    box reaches beyond those cells, or the candidate lattice vectors
    outnumber ``_GC_CHUNK``.
    """
    lat, boxes = omega.lat, omega.boxes
    corners = _unit_corners(lat.dimension)
    t = np.where(corners, boxes[:, None, 1], boxes[:, None, 0]) @ lat.inverse_basis
    if np.any(np.abs(t) > 1.5):
        return None
    q, p = k_set.q_bounds, k_set.p_bounds
    reach_lo = np.minimum(q[:, 0], q[:, 0] + horizon * p[:, 0]).min(axis=0)
    reach_hi = np.maximum(q[:, 1], q[:, 1] + horizon * p[:, 1]).max(axis=0)
    # lattice vectors v with box + v meeting the reach: v in [reach_lo - hi, reach_hi - lo]
    spans = []
    for lo, hi in boxes:
        n = np.where(corners, reach_hi - lo, reach_lo - hi) @ lat.inverse_basis
        spans.append((np.floor(n.min(axis=0)), np.ceil(n.max(axis=0))))
    if sum(float(np.prod(b - a + 1.0)) for a, b in spans) > _GC_CHUNK:
        return None
    found_lo, found_hi = [], []
    for (lo, hi), (a, b) in zip(boxes, spans):
        n = np.meshgrid(*map(np.arange, a, b + 1.0), indexing="ij")
        shifts = lat.lattice_vector(np.stack(n, axis=-1).reshape(-1, a.size))
        meets = np.all((lo + shifts <= reach_hi) & (hi + shifts >= reach_lo), axis=1)
        found_lo.append(lo + shifts[meets])
        found_hi.append(hi + shifts[meets])
    lo, hi = np.concatenate(found_lo), np.concatenate(found_hi)
    scale = 1.0 + max(np.abs(reach_lo).max(), np.abs(reach_hi).max(), np.abs(boxes).max())
    return _merged(lo, hi, _MERGE_ULPS * np.finfo(float).eps * scale)


class _FreeOccupation:
    """Lower bound of the time in [0, T] that free orbits from a sub-box spend in omega.

    A sub-box is a (4, d) row (q1, q2, p1, p2).  At time t its image under
    the free flow is the interval box [q1 + t p1, q2 + t p2] (t >= 0), which
    lies wholly in the translate [lo, hi) for the times of one interval, cut
    out by linear inequalities per axis.  The measure in [0, T] of the union
    of these intervals over the translates bounds every start's occupation
    from below; for a point box it is that start's occupation.
    """

    def __init__(self, horizon: float, lo: np.ndarray, hi: np.ndarray):
        self.horizon, self.lo, self.hi = horizon, lo, hi
        self.rows = _GC_CHUNK // lo.shape[0]

    def bounds(self, boxes: np.ndarray):
        """Lower bound over each sub-box and the occupation from its centre."""
        centre = np.repeat(0.5 * (boxes[:, 0::2] + boxes[:, 1::2]), 2, axis=1)
        return np.split(self.lower(np.concatenate([boxes, centre])), 2)

    def lower(self, boxes: np.ndarray) -> np.ndarray:
        """Lower bound over each sub-box, in chunks of ``rows``."""
        out = np.empty(boxes.shape[0])
        for i in range(0, boxes.shape[0], self.rows):
            out[i:i + self.rows] = self._chunk(boxes[i:i + self.rows])
        return out

    def _chunk(self, boxes: np.ndarray) -> np.ndarray:
        """Per axis, q1 + t p1 >= lo holds from (or until) one time, and
        hi - q2 - t p2 > 0 likewise; with a zero momentum it holds always or never."""
        start = np.zeros((boxes.shape[0], self.lo.shape[0]))
        end = np.full_like(start, self.horizon)
        for i in range(self.lo.shape[1]):
            for a, b, closed in ((boxes[:, 0, i, None] - self.lo[:, i], boxes[:, 2, i, None], True),
                                 (self.hi[:, i] - boxes[:, 1, i, None], -boxes[:, 3, i, None], False)):
                root = np.divide(-a, b, out=np.zeros_like(a), where=b != 0.0)
                np.maximum(start, root, out=start, where=b > 0.0)
                np.minimum(end, root, out=end, where=b < 0.0)
                end[(b == 0.0) & ((a < 0.0) if closed else (a <= 0.0))] = 0.0
        # the union's measure: by start, each interval adds what lies past the
        # latest end before it (an empty one, end <= start, adds nothing and
        # ends before every later start)
        order = np.argsort(start, axis=1)
        start = np.take_along_axis(start, order, axis=1)
        end = np.take_along_axis(end, order, axis=1)
        before = np.zeros_like(end)
        np.maximum.accumulate(end[:, :-1], axis=1, out=before[:, 1:])
        return np.maximum(end - np.maximum(start, before), 0.0).sum(axis=1)


def _bisected(boxes: np.ndarray, occupation) -> np.ndarray:
    """Both halves of each (q1, q2, p1, p2) sub-box, across one axis pair i.

    The pair is the one whose collapse (q_i and p_i both set to their
    midpoints) raises the lower bound (``occupation.lower``) most, the
    widest on a tie; the half is taken across the wider of q_i and T p_i.
    Splitting the widest axis alone would also split axes along which omega
    never binds.
    """
    n, _, d = boxes.shape
    q_mid, p_mid = 0.5 * (boxes[:, 0] + boxes[:, 1]), 0.5 * (boxes[:, 2] + boxes[:, 3])
    collapsed = np.repeat(boxes[:, None], d, axis=1)
    axes = np.arange(d)
    collapsed[:, axes, :2, axes] = q_mid.T[:, :, None]
    collapsed[:, axes, 2:, axes] = p_mid.T[:, :, None]
    gain = occupation.lower(collapsed.reshape(n * d, 4, d)).reshape(n, d)
    q_width = boxes[:, 1] - boxes[:, 0]
    p_width = occupation.horizon * (boxes[:, 3] - boxes[:, 2])
    width = np.maximum(q_width, p_width)
    axis = np.argmax(np.where(gain >= gain.max(axis=1, keepdims=True), width, -1.0), axis=1)
    rows = np.arange(n)
    in_q = q_width[rows, axis] >= p_width[rows, axis]
    col = np.where(in_q, 0, 2)
    mid = np.where(in_q, q_mid[rows, axis], p_mid[rows, axis])
    first, second = boxes.copy(), boxes.copy()
    first[rows, col + 1, axis] = mid
    second[rows, col, axis] = mid
    return np.concatenate([first, second])


def _free_route(horizon: float, k_set: PhaseBoxSet, boxes: np.ndarray, omega: Region):
    """``_branch_and_bound``'s arguments and error bound (0) for ``_FreeOccupation``, or None.

    Sub-boxes are halved (``_bisected``).  A bounded sub-box costs two rows of
    ``_FreeOccupation.lower``, and d more when it is halved, so the refinement
    stops after ``_GC_MAX_CHUNKS`` chunks' worth of them.  An omega that no
    orbit meets gives (0, 0).  None when ``_free_translates`` is.
    """
    if not omega.boxes.size:
        return _uniform(0.0, boxes)
    translates = _free_translates(horizon, k_set, omega)
    if translates is None:
        return None
    if not translates[0].size:
        return _uniform(0.0, boxes)
    occupation = _FreeOccupation(horizon, *translates)
    return (occupation.bounds, lambda b: _bisected(b, occupation), boxes, _GC_TOL,
            _GC_MAX_CHUNKS * occupation.rows // (2 + boxes.shape[2])), 0.0


class _FlowOccupation:
    """Occupation of omega along Verlet orbits from sub-box centres, and the lower bound 0.

    The orbit from the centre of a (q1, q2, p1, p2) sub-box takes ``n_time``
    Verlet steps of h = T / n_time; a step counts h when its midpoint
    x + h xi / 2 + h^2 F / 8 lies in omega (``Region.contains`` is periodic).
    Passes shorter than a step are missed, so this is an estimate.
    """

    def __init__(self, horizon: float, omega: Region, potential: TrigPotential, n_time: int,
                 budget: int):
        self.horizon, self.omega, self.potential, self.n_time = horizon, omega, potential, n_time
        self.budget, self.evaluated, self.centre = budget, 0, None

    def lower(self, boxes: np.ndarray) -> np.ndarray:
        return np.zeros(boxes.shape[0])

    def bounds(self, boxes: np.ndarray):
        """Lower bound 0 over each sub-box and the occupation counted from its centre."""
        x, xi = 0.5 * (boxes[:, 0] + boxes[:, 1]), 0.5 * (boxes[:, 2] + boxes[:, 3])
        h = self.horizon / self.n_time
        inside = np.zeros(x.shape[0])
        force = -self.potential.gradient(x)
        for _ in range(self.n_time):
            # at V = 0 the force stays a signed zero, which adds nothing
            inside += self.omega.contains(x + 0.5 * h * xi + 0.125 * h * h * force)
            x, xi, force = _verlet_step(x, xi, force, h, self.potential)
        self.evaluated += boxes.shape[0]
        self.centre = inside * h
        return self.lower(boxes), self.centre

    def split(self, boxes: np.ndarray) -> np.ndarray:
        """Both halves (``_bisected``) of the sub-boxes of least centre occupation, as many
        as ``budget`` has centres left.  Every lower bound is 0, so ``_branch_and_bound``
        passes all the sub-boxes it bounded last, or none."""
        left = self.budget - self.evaluated
        least = np.argsort(self.centre, kind="stable")[:min(len(boxes), (left + 1) // 2)]
        return _bisected(boxes[least], self)[:left]


def _cut(boxes: np.ndarray, parts: int) -> np.ndarray:
    """Each (q1, q2, p1, p2) row cut into ``parts`` equal pieces along each of its 2d axes."""
    d = boxes.shape[2]
    index = np.stack(np.meshgrid(*[np.arange(parts)] * (2 * d), indexing="ij"), axis=-1)
    lo, hi, index = boxes[:, None, 0::2], boxes[:, None, 1::2], index.reshape(-1, 2, d)
    # a piece's ends are lo (1 - f) + hi f, so neighbours share their ends
    start, stop = (lo * (1.0 - f) + hi * f for f in (index / parts, (index + 1) / parts))
    return np.stack([start, stop], axis=3).reshape(-1, 4, d)


def _uniform(value: float, boxes: np.ndarray):
    """``_branch_and_bound``'s arguments and error bound (0) when every orbit spends
    ``value`` in omega: every sub-box bounds to it, so none is split."""
    def bounds(b):
        return np.full(b.shape[0], value), np.full(b.shape[0], value)
    return (bounds, lambda b: b, boxes, _GC_TOL, 1), 0.0


def gc_constant(horizon: float, k_set: PhaseBoxSet, omega: Region, potential: TrigPotential,
                n_time: int = 2000, per_axis: int = 32, n_quasi: int = 1000) -> GCEstimate:
    """Minimum over starts in K of the time the trajectory spends in omega over [0, T].

    One ``_branch_and_bound`` over sub-boxes of K: ``_free_route`` at V = 0,
    else ``_line_route``, else, and behind their guards, ``_FlowOccupation``.
    Only the flow route reads ``n_time``, ``per_axis`` and ``n_quasi``: it
    cuts each box of K into ``per_axis`` parts per axis, then halves parts
    until ``n_quasi`` more centres per box have been evaluated.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if k_set.n_boxes == 0:
        raise ValueError("K has no boxes")
    boxes = np.concatenate([k_set.q_bounds, k_set.p_bounds], axis=1)
    flow = None
    route = (_free_route(horizon, k_set, boxes, omega) if potential.is_zero
             else _line_route(horizon, k_set, omega, potential))
    if route is None:
        budget = boxes.shape[0] * (per_axis ** (2 * boxes.shape[2]) + n_quasi)
        flow = _FlowOccupation(horizon, omega, potential, n_time, budget)
        route = (flow.bounds, flow.split, _cut(boxes, per_axis), _GC_TOL, budget), 0.0
    search, err = route
    lo, hi = _branch_and_bound(*search)
    value = float(min(hi + err, horizon))
    return GCEstimate(value, 0 if flow is None else flow.evaluated,
                      float(min(max(lo - err, 0.0), value)))
