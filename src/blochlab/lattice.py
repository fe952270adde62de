"""Bravais-lattice geometry: unit cells, cell projection, radii, cost regularizer.

Conventions used throughout the package:

* A lattice is given by a ``d x d`` basis matrix whose *rows* are the basis
  vectors ``a_1..a_d``.  The reciprocal rows ``b_i`` satisfy
  ``b_i . a_j = 2*pi*delta_ij``.
* The unit cell is the half-open parallelepiped
  ``{sum_j t_j a_j : t_j in [-1/2, 1/2)}`` in lattice coordinates.  Fractional
  coordinates exactly at ``+1/2`` wrap to ``-1/2``, so the cell projection is
  a plain rounding operation and is deterministic on the (measure-zero)
  boundary set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative widening of the cell's bounding box when Region picks the translates
# that can hold a cell point; far above the rounding of ``reduce_to_cell``.
_CELL_MARGIN = 1e-9


@dataclass(frozen=True)
class LatticeSpec:
    """Full-rank Bravais lattice of R^d.

    Parameters
    ----------
    basis : (d, d) array
        Row ``j`` is the basis vector ``a_j``.  Must be nonsingular.

    The inverse basis, the reciprocal rows ``b_i`` (``b_i . a_j = 2 pi
    delta_ij``) and the cell volume are computed once, read-only.
    """

    basis: np.ndarray
    inverse_basis: np.ndarray = field(init=False, repr=False, compare=False)
    reciprocal: np.ndarray = field(init=False, repr=False, compare=False)
    cell_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError("lattice basis must be a square matrix")
        volume = abs(np.linalg.det(basis))
        if volume < 1e-14:
            raise ValueError("lattice basis is singular")
        inverse = np.linalg.inv(basis)
        reciprocal = 2.0 * np.pi * inverse.T
        inverse.flags.writeable = reciprocal.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "inverse_basis", inverse)
        object.__setattr__(self, "reciprocal", reciprocal)
        object.__setattr__(self, "cell_volume", float(volume))

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def from_fractional(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=float) @ self.basis

    def lattice_vector(self, n: np.ndarray) -> np.ndarray:
        return np.asarray(n, dtype=float) @ self.basis


def reduce_to_cell(z: np.ndarray, lat: LatticeSpec) -> np.ndarray:
    """The point ``p`` of the half-open unit cell with ``z - p`` in the lattice.

    Accepts any batch shape ``(..., d)``.  Fractional coordinates are rounded
    with ``floor(t + 1/2)``, so t = +1/2 goes to the next cell (ties round
    half-down).
    """
    t = np.asarray(z, dtype=float) @ lat.inverse_basis
    return (t - np.floor(t + 0.5)) @ lat.basis


@dataclass(frozen=True)
class CellGeometry:
    """Inner/outer radii of the unit-cell boundary, ``0 < gamma_minus <= gamma_plus``."""

    gamma_minus: float
    gamma_plus: float
    parent: LatticeSpec

    def __post_init__(self):
        if not (0.0 < self.gamma_minus <= self.gamma_plus):
            raise ValueError("require 0 < gamma_minus <= gamma_plus")


def gamma_bounds(lat: LatticeSpec) -> CellGeometry:
    """Compute (gamma_minus, gamma_plus) for the parallelepiped cell, both exact.

    gamma_plus: the norm maximum over the cell is attained at a vertex.
    gamma_minus: the cell is centrally symmetric and convex, so the nearest
    boundary point lies on the nearest face plane t_i = +-1/2, at distance
    |a_i . b_i| / (2 |b_i|) = pi / |b_i| from the center.
    """
    d = lat.dimension
    corners = np.stack(np.meshgrid(*([[-0.5, 0.5]] * d), indexing="ij"), axis=-1).reshape(-1, d)
    gamma_plus = float(np.max(np.linalg.norm(lat.from_fractional(corners), axis=-1)))
    gamma_minus = float(np.min(np.pi / np.linalg.norm(lat.reciprocal, axis=-1)))
    return CellGeometry(gamma_minus=gamma_minus, gamma_plus=gamma_plus, parent=lat)


def theta(r, geom: CellGeometry):
    """Cost regularizer: integral of (1 - s/gamma_minus)_+ from 0 to r.

    Closed form: ``r - r^2/(2 gamma_minus)`` for ``r <= gamma_minus``, else
    ``gamma_minus / 2``.  Nondecreasing, theta(r) <= r, theta' in [0, 1].
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("theta: argument must be nonnegative")
    g = geom.gamma_minus
    out = np.multiply(r, r, out=np.empty_like(r))
    out /= 2.0 * g
    np.subtract(r, out, out=out)
    np.copyto(out, g / 2.0, where=r > g)
    return out if out.ndim else float(out)


def fractional_theta_weights(tx: np.ndarray, ty: np.ndarray, geom: CellGeometry) -> np.ndarray:
    """theta(|P_Gamma(x - y)|^2) for every pair of a batch of x's and grid y's.

    The points come in fractional coordinates, ``tx`` of shape (B, d) and
    ``ty`` of shape (n, d), so that a caller that weighs many batches against
    one grid converts the grid once; the result has shape (B, n).  The
    difference t(x) - t(y) is reduced per axis with ``reduce_to_cell``'s rule
    s = t - floor(t + 1/2); |P_Gamma z|^2 is the quadratic form of the basis
    Gram matrix in s.  No Cartesian difference is formed, so a pair exactly
    half a cell apart on some axis follows the floor rule exactly.  The (B, n)
    arrays are d + 2 buffers reused in place, and the one ``theta`` returns.
    The quadratic form starts from its (0, 0) term, so no zero array is
    filled.
    """
    lat = geom.parent
    d = lat.dimension
    gram = lat.basis @ lat.basis.T
    r2 = np.empty((tx.shape[0], ty.shape[0]))
    buf = np.empty_like(r2)
    s = [np.subtract.outer(tx[:, i], ty[:, i]) for i in range(d)]
    for si in s:
        np.add(si, 0.5, out=buf)
        np.floor(buf, out=buf)
        si -= buf
    np.multiply(s[0], s[0], out=r2)
    r2 *= gram[0, 0]
    for i in range(d):
        for j in range(max(i, 1), d):
            np.multiply(s[i], s[j], out=buf)
            buf *= gram[i, j] if i == j else 2.0 * gram[i, j]
            r2 += buf
    return theta(r2, geom)


@dataclass(frozen=True)
class Region:
    """Union of open axis-aligned boxes inside the unit cell, understood periodically.

    ``boxes`` has shape ``(nb, 2, d)`` with rows ``(lo, hi)``, lo < hi on
    every axis (the distance to an inverted box would clip to one corner).
    Membership and distance are evaluated modulo the lattice, for any point
    of R^d: the point is reduced to the cell, and it belongs to the region if
    its cell representative or one of that representative's neighbouring
    translates falls in a box, which also handles boxes that spill over the
    cell edge after a dilation.

    Membership tests only the (box, translate) pairs that can hold a cell
    point: those whose box, moved back by the translate, meets the cell's
    bounding box widened by ``_CELL_MARGIN`` (relative to the cell's size)
    against rounding in the cell reduction.  No other pair can contain a
    reduced point, so the answer is that of all 3^d translates.  ``distance``
    measures to each box moved by the lattice vector that brings its centre
    into the unit cell (``_near_boxes``), so that the 3^d translates of the
    reduced point hold the nearest; it keeps every translate: one whose box
    lies outside the cell can still be the nearest to a point near a cell
    face.
    """

    boxes: np.ndarray
    lat: LatticeSpec
    _shifts: np.ndarray = field(init=False, repr=False, compare=False)
    _member_pairs: tuple = field(init=False, repr=False, compare=False)
    _near_boxes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        boxes = np.asarray(self.boxes, dtype=float)
        if boxes.size == 0:
            boxes = boxes.reshape(0, 2, self.lat.dimension)
        if boxes.ndim != 3 or boxes.shape[1] != 2:
            raise ValueError("boxes must have shape (nb, 2, d)")
        if not np.all(boxes[:, 0] < boxes[:, 1]):
            raise ValueError("every box needs lo < hi on every axis")
        object.__setattr__(self, "boxes", boxes)
        d = self.lat.dimension
        offs = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"), axis=-1).reshape(-1, d)
        shifts = self.lat.lattice_vector(offs)
        object.__setattr__(self, "_shifts", shifts)
        corners = self.lat.from_fractional(0.5 * offs[np.all(offs != 0, axis=1)])
        margin = _CELL_MARGIN * (1.0 + np.abs(corners).max())
        cell_lo, cell_hi = corners.min(axis=0) - margin, corners.max(axis=0) + margin
        pairs = tuple((lo, hi, s) for lo, hi in boxes for s in shifts
                      if np.all(lo - s < cell_hi) and np.all(hi - s > cell_lo))
        object.__setattr__(self, "_member_pairs", pairs)
        centres = 0.5 * (boxes[:, 0] + boxes[:, 1]) @ self.lat.inverse_basis
        near = boxes - self.lat.lattice_vector(np.floor(centres + 0.5))[:, None, :]
        object.__setattr__(self, "_near_boxes", near)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over points (..., d), periodic membership.

        Boxes are half-open (lo <= x < hi), matching the cell convention, so a
        box equal to the whole cell contains every grid point exactly once.
        """
        pts = reduce_to_cell(points, self.lat)
        shape = pts.shape[:-1]
        p = pts.reshape(-1, pts.shape[-1])
        out = np.zeros(p.shape[0], dtype=bool)
        for lo, hi, s in self._member_pairs:
            q = p + s
            out |= np.all((q >= lo) & (q < hi), axis=-1)
        return out.reshape(shape)

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance to the periodized region (0 inside)."""
        pts = reduce_to_cell(points, self.lat)
        shape = pts.shape[:-1]
        p = pts.reshape(-1, pts.shape[-1])
        best = np.full(p.shape[0], np.inf)
        for lo, hi in self._near_boxes:
            for s in self._shifts:
                q = p + s
                delta = q - np.clip(q, lo, hi)
                best = np.minimum(best, np.linalg.norm(delta, axis=-1))
        return best.reshape(shape)

    def contains_dilated(self, points: np.ndarray, delta: float) -> np.ndarray:
        """Membership in the region enlarged by a Euclidean ball of radius delta."""
        return self.distance(points) < delta
