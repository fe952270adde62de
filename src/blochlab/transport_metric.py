"""Transport cost operator, coupling energies, and the Groenwall stability envelope.

The pseudo-metric between a classical density and a fibered quantum density is
never computed as a true infimum; every quantity here is the energy of one of
the explicitly constructed couplings (diagonal packet coupling for a Toeplitz
pair, the Husimi-weighted coupling for a pure pair, and the transported
coupling for the stability envelope), which upper-bound the metric and are
exactly the objects the theory estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy import fft as sfft

from .bloch import KGrid, PeriodicField, g_vectors, grid_weight, position_grid, quadrature_len, \
    values_to_coeffs
from .classical_dynamics import TrigPotential, flow
from .lattice import CellGeometry, LatticeSpec, reduce_to_cell, theta_cost_weights
from .quantization import FiberedDensity, PacketOverlaps, PhaseSpaceDensity, momentum_cost, \
    momentum_grid, toeplitz_quantize
from .quantum_dynamics import FiberPropagator


@dataclass(frozen=True)
class CostParams:
    """Transport-cost parameters: scale lambda, hbar, and the cell geometry."""

    lam: float
    hbar: float
    geom: CellGeometry

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


def gronwall_rate(geom: CellGeometry, lam: float, lipschitz: float) -> float:
    """Exponential transport rate (2 gamma_+ / gamma_-)(lambda + Lip^2 / lambda)."""
    return (2.0 * geom.gamma_plus / geom.gamma_minus) * (lam + lipschitz ** 2 / lam)


def apply_cost(cost: CostParams, x, xi, u):
    """Apply the cost operator at phase-space point (x, xi) to a periodic field.

    Position part: pointwise multiplication on the cell grid by
    lambda^2 theta(|P_Gamma(x - y)|^2).  Momentum part: the spectral symbol
    (xi - hbar G)^2 on coefficient G.
    """
    lat = u.lat
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    n = 2 * u.m + 1
    grid = position_grid(lat, n)
    w = cost.lam ** 2 * theta_cost_weights(x[None, :], grid, cost.geom)[0]
    vals = u.values() * w.reshape((n,) * lat.dimension)
    out = values_to_coeffs(vals, lat, u.m)
    sym = np.sum((xi - cost.hbar * g_vectors(lat, u.m)) ** 2, axis=-1).reshape(u.coeffs.shape)
    return PeriodicField(lat, u.m, out + sym * u.coeffs)


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
    momentum_identity: np.ndarray | None = None   # per-fiber closed form, pure case

    def __post_init__(self):
        if self.total < -1e-12:
            raise ValueError("coupling energy must be nonnegative")


def diagonal_coupling_parts(rho: FiberedDensity, x: np.ndarray, xi: np.ndarray,
                            cost: CostParams):
    """Per-fiber position and momentum energies of a diagonal packet coupling.

    Vector j of fiber k, weighted by lambda_kj, is coupled to the phase-space
    point (x_j, xi_j - hbar k).  The position part is the cell-grid
    quadrature of lambda^2 theta(|P_Gamma(x_j - y)|^2) against its density;
    the momentum part is exact in coefficients.  Returns two (n_k,) arrays.
    """
    lat = rho.lat
    n = quadrature_len(rho.m)
    w = theta_cost_weights(x, position_grid(lat, n), cost.geom)        # (n_j, n^d)
    pos = cost.lam ** 2 * np.einsum("jg,kjg->kj", w, rho.position_density()) \
        * grid_weight(lat, n)
    xi_k = xi[None, :, :] - cost.hbar * rho.kgrid.points[:, None, :]   # (n_k, n_j, d)
    mom = momentum_cost(rho.momentum_moments(), xi_k)
    return np.sum(rho.lambdas * pos, axis=1), np.sum(rho.lambdas * mom, axis=1)


def coupling_energy_toeplitz(f: PhaseSpaceDensity, cost: CostParams, lat: LatticeSpec,
                             kgrid: KGrid, m: int, mass_tol: float = 1e-8) -> CouplingEnergy:
    """Energy of the diagonal packet coupling between f and its quantization.

    For each node and fiber the integrand is the cost expectation on the
    periodized packet at (q_j, p_j - hbar k); the k average of the total is an
    upper bound (squared) for the pseudo-distance, below (1+lambda^2) d hbar/2.
    """
    rho = toeplitz_quantize(f, lat, kgrid, m, cost.hbar, mass_tol)
    pos_fiber, mom_fiber = diagonal_coupling_parts(rho, f.nodes_q, f.nodes_p, cost)
    per_fiber = pos_fiber + mom_fiber
    bound = (1.0 + cost.lam ** 2) * lat.dimension * cost.hbar / 2.0
    return CouplingEnergy(total=float(np.mean(per_fiber)), per_fiber=per_fiber,
                          position_part=float(np.mean(pos_fiber)),
                          momentum_part=float(np.mean(mom_fiber)), bound=bound,
                          position_per_fiber=pos_fiber, momentum_per_fiber=mom_fiber)


def pair_moment(dens: np.ndarray, lat: LatticeSpec):
    """sum_ij dens_i dens_j |P_Gamma(y_i - y_j)|^2 over the uniform n^d cell grid.

    ``dens`` has shape (..., n, ..., n) with d trailing grid axes; the result
    has the leading shape.  On the uniform fractional grid the summand
    depends on i - j mod n only, so the double sum is dens . (D * dens) with
    one circular convolution by D, the distances from the first grid point.
    """
    d = lat.dimension
    n = dens.shape[-1]
    axes = tuple(range(-d, 0))
    pts = position_grid(lat, n)
    red = reduce_to_cell(pts - pts[0], lat)
    kernel = np.sum(red * red, axis=-1).reshape((n,) * d)
    conv = sfft.irfftn(sfft.rfftn(kernel) * sfft.rfftn(dens, axes=axes), s=(n,) * d, axes=axes)
    return np.sum(dens * conv, axis=axes)


def _weighted_vectors(rho: FiberedDensity) -> FiberedDensity:
    """A rank-1 density as its weighted vectors sqrt(lambda) v, with unit weights.

    ``c_bold``, ``std_dev`` and ``coupling_energy_husimi`` work on these, so
    scaling the density by c scales each of them (std_dev squared) by c^2.
    """
    if rho.rank != 1:
        raise ValueError("requires rank-1 fibers")
    root = np.sqrt(np.clip(rho.lambdas, 0.0, None))
    return FiberedDensity(rho.kgrid, rho.lat, rho.m, rho.hbar, np.ones_like(root),
                          root[:, :, None] * rho.vectors)


def c_bold(rho: FiberedDensity) -> float:
    """Fiber average of the fourth power of the weighted fiber norms (rank-1 densities)."""
    norms = _weighted_vectors(rho).momentum_moments()[0][:, 0]
    return float(np.mean(norms ** 2))


def std_dev(rho: FiberedDensity) -> float:
    """Spread functional Delta of a rank-1 fibered density.

    Per fiber, of the weighted vector sqrt(lambda) v: half the second
    periodized moment of the pair density plus the momentum variance
    N Q - |P|^2 (``FiberedDensity.momentum_moments``); returns the square root
    of the fiber average.
    """
    rho = _weighted_vectors(rho)
    lat = rho.lat
    n = quadrature_len(rho.m)
    w = grid_weight(lat, n)
    dens = rho.position_density()[:, 0].reshape((rho.kgrid.size,) + (n,) * lat.dimension)
    norm_sq, mean_p, grad_sq = (a[:, 0] for a in rho.momentum_moments())
    total = 0.5 * pair_moment(dens, lat) * w * w + norm_sq * grad_sq \
        - np.sum(mean_p * mean_p, axis=-1)
    return float(np.sqrt(np.mean(total)))


def coupling_energy_husimi(rho: FiberedDensity, nq: int, np_per_dim: int,
                           p_max: float) -> CouplingEnergy:
    """Energy of the Husimi-weighted coupling for a rank-1 fibered density.

    Quadrature of the two energy pieces per fiber: the periodized-distance
    moment against the Husimi weight, and the momentum cost against the same
    weight.  ``bound`` carries the closed-form estimate
    ``d hbar c_bold + 2 Delta^2`` that the quadrature total must stay under;
    ``momentum_identity`` holds the exact per-fiber value of the momentum
    piece derived from the momentum moments, matched by the quadrature.
    """
    rho = _weighted_vectors(rho)
    lat, m, hbar = rho.lat, rho.m, rho.hbar
    d = lat.dimension
    n = quadrature_len(m)

    qs = position_grid(lat, nq)
    wq = grid_weight(lat, nq)
    ps, wp = momentum_grid(d, np_per_dim, p_max)

    # second periodized moment of |psi|^2 around each husimi q node, per fiber
    red_qy = reduce_to_cell((qs[:, None, :] - position_grid(lat, n)[None, :, :]).reshape(-1, d),
                            lat)
    dist_qy = np.sum(red_qy * red_qy, axis=-1).reshape(qs.shape[0], -1)
    m2 = rho.position_density()[:, 0] @ dist_qy.T * grid_weight(lat, n)    # (n_k, Nq)

    moments = tuple(a[:, 0] for a in rho.momentum_moments())
    overlaps = PacketOverlaps(lat, m, hbar, qs)
    # husimi weight at (q, p + hbar k): packet momentum argument is p itself
    window = overlaps.window(ps)
    e1 = np.zeros(rho.kgrid.size)
    e2 = np.zeros(rho.kgrid.size)
    for ik in range(rho.kgrid.size):
        fk = overlaps.pref * np.abs(overlaps(rho.vectors[ik, 0], window)) ** 2    # (Np, Nq)
        e1[ik] = float(np.einsum("pq,q->", fk, m2[ik]) * wq * wp)
        e2[ik] = float((fk.sum(axis=1) * wq * wp)
                       @ momentum_cost([a[ik] for a in moments], ps))

    norm_sq, mean_p, grad_sq = moments
    ident_k = (d * hbar / 2.0) * norm_sq ** 2 + 2.0 * norm_sq * grad_sq \
        - 2.0 * np.sum(mean_p * mean_p, axis=-1)
    per_fiber = e1 + e2
    return CouplingEnergy(total=float(np.mean(per_fiber)), per_fiber=per_fiber,
                          position_part=float(np.mean(e1)),
                          momentum_part=float(np.mean(e2)),
                          bound=d * hbar * c_bold(rho) + 2.0 * std_dev(rho) ** 2,
                          position_per_fiber=e1, momentum_per_fiber=e2,
                          momentum_identity=ident_k)


@dataclass
class StabilityEnvelope:
    """Transported-coupling energy versus the exponential envelope."""

    times: np.ndarray
    energies: np.ndarray
    bounds: np.ndarray
    eta: float
    lam: float
    lipschitz: float
    initial_energy: float

    def max_ratio(self) -> float:
        return float(np.max(self.energies / self.bounds))


def stability_envelope(f: PhaseSpaceDensity, cost: CostParams, potential: TrigPotential,
                       lat: LatticeSpec, kgrid: KGrid, m: int, horizon: float,
                       n_times: int = 20, dt: float = 1e-3) -> StabilityEnvelope:
    """Track the transported-coupling energy and check the Groenwall envelope.

    Starting from the diagonal packet coupling of ``f`` with its quantization,
    each packet is propagated by the fiber dynamics while its cost argument
    rides the classical fiber flow; the energy must stay below
    ``E(0) exp(2 eta t)`` with eta the Groenwall transport rate.  The classical
    trajectories are fiber-independent (the fiber flow is the plain flow with
    a shifted momentum argument), so one Verlet sweep per node serves all
    fibers.
    """
    rho = toeplitz_quantize(f, lat, kgrid, m, cost.hbar)
    lip = potential.lipschitz_gradient().value
    eta = gronwall_rate(cost.geom, cost.lam, lip)
    propagator = FiberPropagator(kgrid, lat, m, potential, cost.hbar)

    x, xi = f.nodes_q, f.nodes_p
    times = np.linspace(0.0, horizon, n_times + 1)
    energies = np.empty(n_times + 1)
    sample_dt = horizon / n_times
    for i in range(n_times + 1):
        if i > 0:
            x, xi = flow(x, xi, sample_dt, potential, dt)
            propagator.advance(rho.vectors, sample_dt, dt)
        pos, mom = diagonal_coupling_parts(rho, x, xi, cost)
        energies[i] = np.mean(pos + mom)
    bounds = energies[0] * np.exp(2.0 * eta * times)
    return StabilityEnvelope(times=times, energies=energies, bounds=bounds, eta=eta,
                             lam=cost.lam, lipschitz=lip, initial_energy=energies[0])
