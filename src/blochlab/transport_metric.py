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

from .bloch import KGrid, PeriodicField, centered_indices, coeffs_to_values, grid_weight, \
    position_grid, values_to_coeffs
from .classical_dynamics import TrigPotential, flow
from .lattice import CellGeometry, LatticeSpec, reduce_to_cell, theta_cost_weights
from .quantization import FiberedDensity, PacketOverlaps, PhaseSpaceDensity, toeplitz_quantize
from .quantum_dynamics import FiberPropagator
from .states import coherent_coeff_batch


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
    g = centered_indices(u.m, lat.dimension) @ lat.reciprocal
    sym = np.sum((xi - cost.hbar * g) ** 2, axis=-1).reshape(u.coeffs.shape)
    return PeriodicField(lat, u.m, out + sym * u.coeffs)


def cost_expectation_parts(cost: CostParams, xs: np.ndarray, xis: np.ndarray,
                           coeffs: np.ndarray, lat: LatticeSpec, m: int):
    """Position and momentum parts of <u|c|u> for a batch of (x, xi, u).

    ``coeffs`` has shape (B, nG); returns two (B,) arrays.  The position part
    is a cell-grid quadrature, the momentum part is exact in coefficients.
    """
    d = lat.dimension
    n = 2 * m + 1
    grid = position_grid(lat, n)
    w = theta_cost_weights(xs, grid, cost.geom)                    # (B, nG_pos)
    vals = coeffs_to_values(coeffs.reshape((-1,) + (n,) * d), lat, n).reshape(coeffs.shape[0], -1)
    pos = cost.lam ** 2 * np.einsum("bg,bg->b", w, np.abs(vals) ** 2) * grid_weight(lat, n)
    g = centered_indices(m, d) @ lat.reciprocal
    sym = np.sum((xis[:, None, :] - cost.hbar * g[None, :, :]) ** 2, axis=-1)
    mom = np.einsum("bg,bg->b", sym, np.abs(coeffs) ** 2)
    return pos, mom


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


def coupling_energy_toeplitz(f: PhaseSpaceDensity, cost: CostParams, lat: LatticeSpec,
                             kgrid: KGrid, m: int, mass_tol: float = 1e-8,
                             chunk: int = 512) -> CouplingEnergy:
    """Energy of the diagonal packet coupling between f and its quantization.

    For each node and fiber the integrand is the cost expectation on the
    periodized packet at (q_j, p_j - hbar k); the k average of the total is an
    upper bound (squared) for the pseudo-distance, below (1+lambda^2) d hbar/2.
    """
    if abs(f.mass - 1.0) > mass_tol:
        raise ValueError(f"density mass {f.mass:.3e} is not 1 (tol {mass_tol:g})")
    n_k = kgrid.size
    wf = f.weights * f.values
    pos_fiber = np.zeros(n_k)
    mom_fiber = np.zeros(n_k)
    for ik in range(n_k):
        k = kgrid.points[ik]
        for lo in range(0, f.size, chunk):
            sl = slice(lo, min(lo + chunk, f.size))
            xis = f.nodes_p[sl] - cost.hbar * k
            coeffs = coherent_coeff_batch(f.nodes_q[sl], xis, cost.hbar, lat, m)
            pos, mom = cost_expectation_parts(cost, f.nodes_q[sl], xis, coeffs, lat, m)
            pos_fiber[ik] += float(wf[sl] @ pos)
            mom_fiber[ik] += float(wf[sl] @ mom)
    d = lat.dimension
    per_fiber = pos_fiber + mom_fiber
    bound = (1.0 + cost.lam ** 2) * d * cost.hbar / 2.0
    return CouplingEnergy(total=float(np.mean(per_fiber)), per_fiber=per_fiber,
                          position_part=float(np.mean(pos_fiber)),
                          momentum_part=float(np.mean(mom_fiber)), bound=bound,
                          position_per_fiber=pos_fiber, momentum_per_fiber=mom_fiber)


def pair_moment(dens: np.ndarray, lat: LatticeSpec) -> float:
    """sum_ij dens_i dens_j |P_Gamma(y_i - y_j)|^2 over the uniform n^d cell grid.

    ``dens`` has shape (n,)*d.  On the uniform fractional grid the summand
    depends on i - j mod n only, so the double sum is dens . (D * dens) with
    one circular convolution by D, the distances from the first grid point.
    """
    n = dens.shape[-1]
    pts = position_grid(lat, n)
    red = reduce_to_cell(pts - pts[0], lat)
    kernel = np.sum(red * red, axis=-1).reshape(dens.shape)
    conv = sfft.irfftn(sfft.rfftn(kernel) * sfft.rfftn(dens), s=dens.shape)
    return float(np.sum(dens * conv))


def coupling_energy_husimi(rho: FiberedDensity, nq: int, np_per_dim: int,
                           p_max: float) -> CouplingEnergy:
    """Energy of the Husimi-weighted coupling for a rank-1 fibered density.

    Quadrature of the two energy pieces per fiber: the periodized-distance
    moment against the Husimi weight, and the momentum symbol against the same
    weight.  ``bound`` carries the closed-form estimate
    ``d hbar <norm^4> + 2 Delta^2`` that the quadrature total must stay under;
    ``momentum_identity`` holds the exact per-fiber value of the momentum
    piece derived from norm/gradient moments, matched by the quadrature.
    """
    if rho.rank != 1:
        raise ValueError("Husimi coupling requires rank-1 fibers")
    lat, m, hbar = rho.lat, rho.m, rho.hbar
    d = lat.dimension
    n = 2 * m + 1
    n_k = rho.kgrid.size

    qs = position_grid(lat, nq)
    wq = grid_weight(lat, nq)
    dp = 2.0 * p_max / np_per_dim
    axis = -p_max + (np.arange(np_per_dim) + 0.5) * dp
    ps = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    wp = dp ** d

    overlaps = PacketOverlaps(lat, m, hbar, qs)
    g = overlaps.g
    e1 = np.zeros(n_k)
    e2 = np.zeros(n_k)
    bound_k = np.zeros(n_k)
    ident_k = np.zeros(n_k)
    grid_fft = position_grid(lat, n)
    w_fft = grid_weight(lat, n)

    diff_qy = qs[:, None, :] - grid_fft[None, :, :]
    red_qy = reduce_to_cell(diff_qy.reshape(-1, d), lat)
    dist_qy = np.sum(red_qy * red_qy, axis=-1).reshape(qs.shape[0], -1)

    for ik in range(n_k):
        psi = rho.vectors[ik, 0]
        norm_sq = float(np.sum(np.abs(psi) ** 2))
        vals = coeffs_to_values(psi.reshape((n,) * d), lat, n)
        dens = np.abs(vals) ** 2
        # second periodized moment of |psi|^2 around each husimi q node
        m2 = (dist_qy @ dens.reshape(-1)) * w_fft

        # husimi weight at (q, p + hbar k): packet momentum argument is p itself
        fk = overlaps.pref * np.abs(overlaps(psi[None, :], ps)[0]) ** 2    # (Np, Nq)
        mom_sym = np.sum((ps[:, None, :] - hbar * g[None, :, :]) ** 2, axis=-1)
        mom_psi = mom_sym @ np.abs(psi) ** 2                         # (Np,)

        e1[ik] = float(np.einsum("pq,q->", fk, m2) * wq * wp)
        e2[ik] = float((fk.sum(axis=1) * wq * wp) @ mom_psi)

        hg = hbar * g
        grad_sq = float(np.sum(np.sum(hg * hg, axis=-1) * np.abs(psi) ** 2))
        grad_mean = (hg * np.abs(psi[:, None]) ** 2).sum(axis=0)
        ident_k[ik] = (d * hbar / 2.0) * norm_sq ** 2 \
            + 2.0 * norm_sq * grad_sq - 2.0 * float(grad_mean @ grad_mean)

        bound_k[ik] = d * hbar * norm_sq ** 2 + pair_moment(dens, lat) * w_fft ** 2 \
            + 2.0 * (norm_sq * grad_sq - float(grad_mean @ grad_mean))

    per_fiber = e1 + e2
    return CouplingEnergy(total=float(np.mean(per_fiber)), per_fiber=per_fiber,
                          position_part=float(np.mean(e1)),
                          momentum_part=float(np.mean(e2)),
                          bound=float(np.mean(bound_k)),
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
    n_k = kgrid.size
    d = lat.dimension
    n = 2 * m + 1
    wf = f.weights * f.values
    lip = potential.lipschitz_gradient().value
    eta = gronwall_rate(cost.geom, cost.lam, lip)
    coeffs = rho.vectors
    propagator = FiberPropagator(kgrid, lat, m, potential, cost.hbar)

    x = f.nodes_q.copy()
    xi = f.nodes_p.copy()
    grid = position_grid(lat, n)
    g = centered_indices(m, d) @ lat.reciprocal

    def energy_now():
        w = theta_cost_weights(x, grid, cost.geom)                    # (n_j, nGpos)
        vals = coeffs_to_values(coeffs.reshape((-1,) + (n,) * d), lat, n)
        dens = np.abs(vals.reshape(n_k, f.size, -1)) ** 2
        pos = cost.lam ** 2 * np.einsum("jg,kjg->kj", w, dens) * grid_weight(lat, n)
        xi_eff = xi[None, :, :] - cost.hbar * kgrid.points[:, None, :]   # (n_k, n_j, d)
        sym = np.sum((xi_eff[:, :, None, :] - cost.hbar * g[None, None, :, :]) ** 2, axis=-1)
        mom = np.einsum("kjg,kjg->kj", sym, np.abs(coeffs) ** 2)
        return float(np.mean((pos + mom) @ wf))

    times = np.linspace(0.0, horizon, n_times + 1)
    energies = np.empty(n_times + 1)
    energies[0] = energy_now()
    sample_dt = horizon / n_times
    for i in range(1, n_times + 1):
        x, xi = flow(x, xi, sample_dt, potential, dt)
        propagator.advance(coeffs, sample_dt, dt)
        energies[i] = energy_now()
    bounds = energies[0] * np.exp(2.0 * eta * times)
    return StabilityEnvelope(times=times, energies=energies, bounds=bounds, eta=eta,
                             lam=cost.lam, lipschitz=lip, initial_energy=energies[0])
