"""Transport-cost coupling energies and the Groenwall stability envelope.

The pseudo-metric between a classical density and a fibered quantum density is
never computed as a true infimum; every quantity here is the energy of one of
the explicitly constructed couplings (diagonal packet coupling for a Toeplitz
pair, the Husimi-weighted coupling for a pure pair, and the transported
coupling for the stability envelope), which upper-bound the metric and are
exactly the objects the theory estimates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .bloch import _offset_coefficients, g_vectors, grid_weight, position_grid, quadrature_len, \
    squared_values
from .classical_dynamics import TrigPotential
from .lattice import CellGeometry, LatticeSpec, fractional_theta_weights
from .quantization import FiberedDensity, PhaseSpaceDensity, momentum_cost
from .quantum_dynamics import evolution


@dataclass(frozen=True)
class CostParams:
    """Transport-cost parameters: scale lambda and the cell geometry."""

    lam: float
    geom: CellGeometry

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")


def gronwall_rate(geom: CellGeometry, lam: float, lipschitz: float) -> float:
    """Exponential transport rate (2 gamma_+ / gamma_-)(lambda + Lip^2 / lambda)."""
    return (2.0 * geom.gamma_plus / geom.gamma_minus) * (lam + lipschitz ** 2 / lam)


@dataclass
class CouplingEnergy:
    """Energy of one constructed coupling, with its per-fiber breakdown."""

    total: float
    per_fiber: np.ndarray
    position_part: float
    momentum_part: float
    bound: float | None = None
    position_per_fiber: np.ndarray | None = None
    momentum_per_fiber: np.ndarray | None = None
    std_dev: float | None = None        # the Husimi coupling's spread Delta and c_bold,
    c_bold: float | None = None         # from which its bound is assembled

    def __post_init__(self):
        if self.total < -1e-12:
            raise ValueError("coupling energy must be nonnegative")


def _position_parts(rho: FiberedDensity, cost: CostParams):
    """The per-fiber position energies of the diagonal packet coupling, as a function of nodes x.

    The returned function maps node positions x, shape (rank, d), to shape
    (n_k,), for the density ``rho`` holds when it is called.  The cell grid
    and its fractional coordinates are made here, once for every call of it.
    """
    lat = rho.lat
    n = quadrature_len(rho.m)
    grid = position_grid(lat, n) @ lat.inverse_basis

    def parts(x: np.ndarray) -> np.ndarray:
        pos = np.empty(rho.lambdas.shape)
        for nodes in rho.node_chunks():
            weights = fractional_theta_weights(x[nodes] @ lat.inverse_basis, grid, cost.geom)
            pos[:, nodes] = rho.grid_expectations(weights, nodes)
        pos = cost.lam ** 2 * grid_weight(lat, n) * pos
        return np.sum(rho.lambdas * pos, axis=1)

    return parts


def _momentum_parts(rho: FiberedDensity, xi: np.ndarray) -> np.ndarray:
    """Per-fiber momentum energies of the diagonal packet coupling at momenta xi, shape (n_k,)."""
    xi_k = xi[None, :, :] - rho.hbar * rho.kgrid.points[:, None, :]   # (n_k, n_j, d)
    mom = momentum_cost(rho.momentum_moments(), xi_k)
    return np.sum(rho.lambdas * mom, axis=1)


def diagonal_coupling_parts(rho: FiberedDensity, x: np.ndarray, xi: np.ndarray,
                            cost: CostParams):
    """Per-fiber position and momentum energies of a diagonal packet coupling.

    Vector j of fiber k, weighted by lambda_kj, is coupled to the phase-space
    point (x_j, xi_j - hbar k).  The position part is the cell-grid
    quadrature of lambda^2 theta(|P_Gamma(x_j - y)|^2) against its density,
    one weight function per vector (``FiberedDensity.grid_expectations``).
    It sweeps the density's node chunks: each chunk's theta weights are formed
    right before its quadrature, once for all fibers, so the weights, like the
    chunk's work block, stay within the cache-sized ``_CHUNK_BYTES`` budget
    instead of a (rank, n^d) array per sample.  The momentum part is exact in
    coefficients.  Returns two (n_k,) arrays.
    """
    return _position_parts(rho, cost)(x), _momentum_parts(rho, xi)


def coupling_energy_toeplitz(f: PhaseSpaceDensity, rho: FiberedDensity,
                             cost: CostParams) -> CouplingEnergy:
    """Energy of the diagonal packet coupling between f and its quantization rho.

    ``rho`` is ``toeplitz_quantize`` of ``f``, one vector per node.  For each
    node and fiber the integrand is the cost expectation on the periodized
    packet at (q_j, p_j - hbar k); the k average of the total is an upper
    bound (squared) for the pseudo-distance, below (1+lambda^2) d hbar/2.
    """
    pos_fiber, mom_fiber = diagonal_coupling_parts(rho, f.nodes_q, f.nodes_p, cost)
    per_fiber = pos_fiber + mom_fiber
    bound = (1.0 + cost.lam ** 2) * rho.lat.dimension * rho.hbar / 2.0
    return CouplingEnergy(total=float(np.mean(per_fiber)), per_fiber=per_fiber,
                          position_part=float(np.mean(pos_fiber)),
                          momentum_part=float(np.mean(mom_fiber)), bound=bound,
                          position_per_fiber=pos_fiber, momentum_per_fiber=mom_fiber)


def pair_moment(coeffs: np.ndarray, lat: LatticeSpec):
    """int int n(y) n(y') |P_Gamma(y - y')|^2 dy dy' of a cell density n, exactly.

    ``coeffs`` has shape (..., 2r+1, ..., 2r+1): the plane-wave coefficients of
    n over d trailing axes (``_density_coeffs`` for n = |v|^2); the result has
    the leading shape.  The integral is |cell| sum_n D_n |coeffs_n|^2 with
    D the Fourier coefficients of |P_Gamma z|^2 = sum_ij (a_i . a_j) t_i t_j on
    the fractional cell [-1/2, 1/2)^d: sums of products over axes of the
    moments int t^k exp(-2 pi i n t) dt, which are delta_n0 (k = 0),
    i (-1)^n / (2 pi n) and 0 at n = 0 (k = 1), (-1)^n / (2 pi^2 n^2) and 1/12
    at n = 0 (k = 2).
    """
    d = lat.dimension
    n = np.arange(coeffs.shape[-1]) - coeffs.shape[-1] // 2
    safe, sign = np.where(n == 0, 1, n), np.where(n % 2 == 0, 1.0, -1.0)
    moments = ((n == 0).astype(complex), np.where(n == 0, 0.0, 1j * sign / (2.0 * np.pi * safe)),
               np.where(n == 0, 1.0 / 12.0, sign / (2.0 * np.pi ** 2 * safe ** 2)))
    gram = lat.basis @ lat.basis.T
    kernel = 0.0
    for i, j in itertools.product(range(d), repeat=2):
        powers = np.bincount([i, j], minlength=d)
        kernel = kernel + gram[i, j] * functools.reduce(np.multiply.outer,
                                                        [moments[k] for k in powers])
    return lat.cell_volume * np.sum(kernel.real * (coeffs.real ** 2 + coeffs.imag ** 2),
                                    axis=tuple(range(-d, 0)))


def _density_coeffs(rho: FiberedDensity) -> np.ndarray:
    """Plane-wave coefficients of |v|^2 of every vector, shape (n_k, rank) + (4m+1,)*d.

    |v|^2 has frequencies up to 2m, so on the N = ``quadrature_len(2m)`` grid,
    N >= 4m+1, grid sums give its coefficients without aliasing: the one at
    G_D is |cell| / N^d sum_y |v|^2 exp(-i G_D . y) / sqrt(|cell|).  Since
    |v|^2 is real, that is sqrt(|cell|) / N^d times conj X(D), X the offset
    read (``bloch._offset_coefficients``) of |v|^2 |cell| from
    ``squared_values``.
    """
    d, n = rho.lat.dimension, quadrature_len(2 * rho.m)
    shape = rho.lambdas.shape
    sq = squared_values(rho.vectors.reshape(shape + rho.box_shape),
                        np.empty(shape + (n,) * d, dtype=complex), d, rho.box)
    x = _offset_coefficients((sq[..., 0::2] + sq[..., 1::2]).reshape(shape + (n,) * d),
                             rho.lat, rho.m)
    scale = np.sqrt(rho.lat.cell_volume) / n ** d
    return np.conj(x).reshape(shape + (4 * rho.m + 1,) * d) * scale


def _weighted_vectors(rho: FiberedDensity) -> FiberedDensity:
    """A rank-1 density as its weighted vectors sqrt(lambda) v, with unit weights.

    ``coupling_energy_husimi`` works on these, so scaling the density by c
    scales its energy, bound, c_bold and squared std_dev by c^2.
    """
    if rho.rank != 1:
        raise ValueError("requires rank-1 fibers")
    root = np.sqrt(np.clip(rho.lambdas, 0.0, None))
    return FiberedDensity(rho.kgrid, rho.lat, rho.m, rho.hbar, np.ones_like(root),
                          root[:, :, None] * rho.vectors, rho.box)


def coupling_energy_husimi(rho: FiberedDensity) -> CouplingEnergy:
    """Energy of the Husimi-weighted coupling for a rank-1 fibered density, exactly.

    Per fiber, of the weighted vector: the position part is the pair moment of
    the Husimi q-marginal, |v|^2 smoothed by a Gaussian of variance hbar/2 per
    axis (coefficients times exp(-hbar |G|^2 / 4)), against |v|^2.  The
    momentum part, of |p - hbar G|^2 against the p-marginal (Gaussians at
    hbar G), is (d hbar / 2) N^2 + 2 N Q - 2 |P|^2.

    The same coefficients and moments give ``c_bold``, the fiber average of
    N^2, and the spread ``std_dev`` Delta: the square root of the fiber
    average of half the pair moment of |v|^2 (``pair_moment``, exact) plus the
    momentum variance N Q - |P|^2.  ``bound`` is ``d hbar c_bold + 2 Delta^2``;
    it holds fiber by fiber where |P_Gamma z|^2 is the squared distance to the
    nearest lattice point (rectangular cells), which the smoothing raises by
    at most d hbar / 2.
    """
    rho = _weighted_vectors(rho)
    lat, hbar = rho.lat, rho.hbar
    d = lat.dimension
    coeffs = _density_coeffs(rho)[:, 0]
    g = g_vectors(lat, 2 * rho.m)
    pos = pair_moment(coeffs * np.exp(-hbar * np.sum(g * g, axis=-1) / 8.0).reshape(
        coeffs.shape[1:]), lat)
    norm_sq, mean_p, grad_sq = [a[:, 0] for a in rho.momentum_moments()]
    mean_p_sq = np.sum(mean_p * mean_p, axis=-1)
    mom = (d * hbar / 2.0) * norm_sq ** 2 + 2.0 * norm_sq * grad_sq - 2.0 * mean_p_sq
    per_fiber = pos + mom
    spread = 0.5 * pair_moment(coeffs, lat) + norm_sq * grad_sq - mean_p_sq
    std_dev, c_bold = float(np.sqrt(np.mean(spread))), float(np.mean(norm_sq ** 2))
    return CouplingEnergy(total=float(np.mean(per_fiber)), per_fiber=per_fiber,
                          position_part=float(np.mean(pos)),
                          momentum_part=float(np.mean(mom)),
                          bound=d * hbar * c_bold + 2.0 * std_dev ** 2,
                          position_per_fiber=pos, momentum_per_fiber=mom,
                          std_dev=std_dev, c_bold=c_bold)


@dataclass
class StabilityEnvelope:
    """Transported-coupling energy versus the exponential envelope."""

    times: np.ndarray
    energies: np.ndarray
    bounds: np.ndarray
    eta: float

    def max_ratio(self) -> float:
        return float(np.max(self.energies / self.bounds))


def stability_envelope(f: PhaseSpaceDensity, rho: FiberedDensity, cost: CostParams,
                       potential: TrigPotential, horizon: float, n_times: int,
                       dt: float, lipschitz: float | None = None) -> StabilityEnvelope:
    """Track the transported-coupling energy and check the Groenwall envelope.

    Starting from the diagonal packet coupling of ``f`` with its quantization
    ``rho`` (``toeplitz_quantize`` of ``f``), each packet is propagated by the
    fiber dynamics while its cost argument rides the classical fiber flow; the
    energy must stay below ``E(0) exp(2 eta t)`` with eta the Groenwall
    transport rate.  The classical trajectories are fiber-independent (the
    fiber flow is the plain flow with a shifted momentum argument), so
    ``evolution`` moves the nodes once for all fibers.

    At V = 0 the flows are free: xi and every |c_G| are conserved, so the
    momentum part is computed once, at t = 0, and added to each sample's
    position part.  Later energies then differ from a per-sample
    recomputation only by the rounding of the phase multiplies.  The phases
    also keep zeros at zero, so the vectors stay on the box they are stored
    on, and every sample transforms only that box, with the energies of the
    whole window bit for bit.

    ``lipschitz`` is ``potential.lipschitz_gradient().value`` when the caller
    already has it; otherwise it is computed here.

    ``rho.vectors`` are advanced in place: on return ``rho`` is the density at
    time ``horizon``.  A copy of the vectors would add their whole size to the
    peak memory.
    """
    if lipschitz is None:
        lipschitz = potential.lipschitz_gradient().value
    eta = gronwall_rate(cost.geom, cost.lam, lipschitz)
    energies, mom = [], None
    position = _position_parts(rho, cost)
    for x, xi in evolution(rho, potential, horizon, n_times, dt, (f.nodes_q, f.nodes_p)):
        if mom is None or not potential.is_zero:
            mom = _momentum_parts(rho, xi)
        energies.append(np.mean(position(x) + mom))
    energies = np.array(energies)
    times = np.linspace(0.0, horizon, n_times + 1)
    bounds = energies[0] * np.exp(2.0 * eta * times)
    return StabilityEnvelope(times=times, energies=energies, bounds=bounds, eta=eta)
