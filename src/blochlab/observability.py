"""Explicit observability constants and the end-to-end inequality verifier.

Everything here evaluates the two-sided inequality

    time-integrated observation over the enlarged region
        >=  control constant * initial mass on K  -  penalty(hbar) / delta

for the two admissible initial-data families (quantized classical densities
and fibered pure states).  The verifier computes both sides from first
principles on the configured discretization and reports the margin together
with every intermediate constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import KGrid, quadrature_len
from .classical_dynamics import GCEstimate, LipschitzBound, TrigPotential, gc_constant
from .errors import ConfigValidationError
from .lattice import CellGeometry, LatticeSpec, Region
from .quantization import FiberedDensity, PhaseBoxSet, PhaseSpaceDensity, husimi_mass_on_boxes, \
    periodic_trace, toeplitz_quantize
from .quantum_dynamics import observation_series
from .transport_metric import coupling_energy_husimi, gronwall_rate


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def _toeplitz_objective(log_lam: np.ndarray, geom: CellGeometry, horizon: float,
                        lip: float) -> np.ndarray:
    lam = np.exp(log_lam)
    a = 2.0 * geom.gamma_plus / geom.gamma_minus
    with np.errstate(over="ignore"):
        num = np.expm1(a * (lam + lip ** 2 / lam) * horizon)
    return num / (lam ** 2 + lip ** 2) * np.sqrt((1.0 + lam ** 2) / 2.0)


def minimize_toeplitz_penalty(geom: CellGeometry, horizon: float,
                              lip: float) -> tuple[float, float]:
    """Quantized-density penalty constant and the cost scale that attains it.

    The inner minimum over the cost scale is found in log-lambda over [-8, 8]
    by three 2001-point scans, each on the bracket of the previous one's
    minimum, which pins it to 8e-9.  Returns (constant, lambda).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if lip < 0:
        raise ValueError("Lipschitz bound must be nonnegative")
    lo, hi = -8.0, 8.0
    for _ in range(3):
        grid = np.linspace(lo, hi, 2001)
        vals = _toeplitz_objective(grid, geom, horizon, lip)
        i = int(np.argmin(vals))
        lo, hi = grid[max(0, i - 1)], grid[min(grid.size - 1, i + 1)]
    return (float(np.sqrt(geom.gamma_minus / (2.0 * geom.gamma_plus)) * vals[i]),
            float(np.exp(grid[i])))


def constant_pure(geom: CellGeometry, horizon: float, lip: float) -> float:
    """Pure-state penalty constant, closed form (cost scale pinned to 1)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    a = 2.0 * geom.gamma_plus / geom.gamma_minus
    return float(np.sqrt(geom.gamma_minus / (2.0 * geom.gamma_plus))
                 * np.expm1(a * (1.0 + lip ** 2) * horizon) / (1.0 + lip ** 2))


def hbar_threshold(c_gc: float, c_toeplitz: float, delta: float, dimension: int) -> float:
    """Largest hbar for which the quantized-density bound stays strictly positive."""
    if c_toeplitz <= 0:
        raise ValueError("penalty constant must be positive")
    return (delta ** 2 / dimension) * (c_gc / c_toeplitz) ** 2


# Trace fraction that node pruning and rank compression of the quantized bump may drop.
PRUNE_TOL = 1e-10

# Largest ``k_alias_bound``, per unit trace, at which a V = 0 run takes a k-grid coarser than n_k.
K_ALIAS_TOL = 1e-14


# ---------------------------------------------------------------------------
# scenario and report
# ---------------------------------------------------------------------------

@dataclass
class Discretization:
    """Numerical knobs for a verification run."""

    m: int
    n_k: int
    n_q: int
    n_p: int
    n_time_obs: int
    n_time_gc: int
    gc_per_axis: int
    gc_quasi: int
    dt: float
    p_max: float | None = None


@dataclass
class ObservabilityScenario:
    """Everything needed to run the inequality check once."""

    lat: LatticeSpec
    geom: CellGeometry
    potential: TrigPotential
    hbar: float
    horizon: float
    delta: float
    omega: Region
    k_set: PhaseBoxSet
    disc: Discretization
    lam: float | None = None
    initial_kind: str = "toeplitz"          # "toeplitz" | "pure"
    center_q: np.ndarray | None = None      # bump / packet center (default: origin)
    center_p: np.ndarray | None = None
    sigma_q: float = 0.1
    sigma_p: float = 0.15
    tolerance_scale: float = 1.0

    def __post_init__(self):
        d = self.lat.dimension
        self.center_q = np.zeros(d) if self.center_q is None else np.atleast_1d(self.center_q)
        self.center_p = np.zeros(d) if self.center_p is None else np.atleast_1d(self.center_p)
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.k_set.n_boxes == 0:
            raise ValueError("K must be nonempty")


@dataclass
class TheoremReport:
    """Both sides of the observability inequality plus all auxiliary constants.

    ``rows`` maps each ``_verify.csv`` quantity to its value, in CSV order;
    ``hbar_threshold`` (toeplitz data) and ``std_dev``, ``c_bold`` (pure data)
    are present only for the kind that computes them.  A new quantity of that
    table is one entry in ``verify_theorem``.
    """

    rows: dict
    times: np.ndarray
    observation_series: np.ndarray
    warnings: tuple = ()

    @property
    def passed(self) -> bool:
        return bool(self.rows["passed"])

    def summary(self) -> list:
        """The verdict as ``verify`` prints it: both sides, the warnings, PASS or FAIL."""
        r = self.rows
        return [f"{r['kind']} case: lhs = {r['lhs']:.6g}, rhs = {r['rhs']:.6g}, "
                f"margin = {r['margin']:.6g} (budget {r['error_budget']:.2g})",
                *(f"warning: {w}" for w in self.warnings),
                "PASS" if self.passed else "FAIL"]


def observed_time_integral(rho: FiberedDensity, region: Region, delta: float,
                           potential: TrigPotential, horizon: float,
                           n_samples: int, dt: float):
    """Trapezoid time integral of the masked fiber-average trace along the evolution.

    An odd ``n_samples`` is rounded up to even, because the error estimate
    takes every other sample: the series then has ``n_samples + 2`` values.
    The series is ``quantum_dynamics.observation_series``: one Hermitian form
    per fiber in its band basis evaluated at every sample, or, where
    ``_band_path`` says that costs more, the masked trace at every sample of
    ``evolution``.  Either way ``rho.vectors`` are advanced in place: on
    return ``rho`` is the density at time ``horizon``.  Returns the integral,
    the sample values, the times, a quadrature-error estimate from comparing
    with the half-resolution trapezoid rule, and the trace drift: the largest
    relative change |tr_k(T) - tr_k(0)| / tr_k(0) of a fiber trace.  The band
    basis moves the vectors unitarily to rounding; the Strang split step
    projects onto the plane-wave window, so it is not exactly unitary.
    """
    n_samples += n_samples % 2
    mask = rho.region_mask(region, delta)
    traces = rho.fiber_traces()
    series = observation_series(rho, mask, potential, horizon, n_samples, dt)
    drift = float(np.max(np.abs(rho.fiber_traces() - traces) / traces))
    times = np.linspace(0.0, horizon, n_samples + 1)
    integral = float(np.trapezoid(series, times))
    halved = float(np.trapezoid(series[::2], times[::2]))
    return integral, series, times, abs(integral - halved), drift


def initial_density(scn: ObservabilityScenario) -> PhaseSpaceDensity:
    """The scenario's Gaussian bump, cut to K, sampled, pruned and normalized."""

    def bump(q, p):
        val = np.exp(-np.sum((q - scn.center_q) ** 2, axis=-1) / (2 * scn.sigma_q ** 2)
                     - np.sum((p - scn.center_p) ** 2, axis=-1) / (2 * scn.sigma_p ** 2))
        val[~scn.k_set.contains(q, p)] = 0.0    # supported in K by construction
        if not np.any(val > 0):
            raise ConfigValidationError(
                "discretization.n_p", "no node of the n_q x n_p phase-space grid inside K "
                "carries mass of the initial bump; refine the momentum grid")
        return val

    f = PhaseSpaceDensity.from_function(bump, scn.lat, scn.disc.n_q, scn.disc.n_p,
                                        default_p_max(scn))
    return f.pruned(PRUNE_TOL).normalized()


def initial_state(scn: ObservabilityScenario) -> tuple[PhaseSpaceDensity, FiberedDensity]:
    """The scenario's classical datum f and its quantization rho, for either kind.

    f is the pruned bump of ``initial_density`` for toeplitz data and the
    unit point mass at (center_q, center_p) for pure data, whose quantization
    is the coherent family: fiber k holds the one packet at
    (center_q, center_p - hbar k).  Either way rho = ``toeplitz_quantize`` of f
    on the scenario's k-grid, one vector per node; this is the only builder of
    that k-grid and of the datum.  The grid has ``k_grid_size(scn)`` points
    per axis: n_k at V != 0, and at V = 0 the coarsest grid whose alias bound
    meets ``K_ALIAS_TOL``.  Callers that evolve or export the datum take
    ``rho.compressed(PRUNE_TOL)``, which returns a rank-1 family unchanged.
    """
    if scn.initial_kind == "toeplitz":
        f = initial_density(scn)
    else:
        f = PhaseSpaceDensity(scn.center_q[None], scn.center_p[None], [1.0], [1.0])
    kgrid = KGrid.monkhorst_pack(scn.lat, k_grid_size(scn)[0])
    return f, toeplitz_quantize(f, scn.lat, kgrid, scn.disc.m, scn.hbar)


def _lattice_gauss_sum(rows: np.ndarray, n: int, a: float) -> float:
    """Upper bound of sum_{l in Z^d, l != 0} exp(-|n l @ rows|^2 / a), in closed form.

    |l @ rows|^2 >= s |l|^2 for any s up to the least eigenvalue of rows
    rows^T; s is 1 over the largest absolute row sum of its inverse
    (Gershgorin), which is that eigenvalue on cubic and hexagonal cells and
    needs no eigensolver.  So the sum is at most
    (1 + 2 sum_{j >= 1} exp(-c j^2))^d - 1 with c = n^2 s / a, and
    sum_{j >= 1} exp(-c j^2) <= exp(-c) (1 + 1 / (2c)): its first term, and
    the integral of x exp(-c x^2) from 1 for the rest.  Exact on a cubic
    lattice up to that tail; inf when c is 0.
    """
    s = 1.0 / float(np.max(np.sum(np.abs(np.linalg.inv(rows @ rows.T)), axis=1)))
    c = n * n * s / a
    if not c > 0.0:
        return float("inf")
    with np.errstate(over="ignore"):
        return float(np.expm1(rows.shape[0] * np.log1p(2.0 * np.exp(-c) * (1.0 + 0.5 / c))))


def k_alias_bound(scn: ObservabilityScenario, n_k: int) -> float:
    """How far fiber means on the shifted n_k^d grid can be from the zone integral, at V = 0.

    Per unit trace; README ("The quasimomentum grid") derives it.  The grid
    mean of exp(i k.L) is unimodular for L in n_k Gamma and 0 for the other
    lattice vectors, so a mean misses only the overlaps of each packet with
    its translates by n_k Gamma \\ 0, Gaussian small while the packets'
    position variance stays below ``var`` per axis.  Linear outputs weigh
    them by at most ``weight`` (times ``riemann`` for cell-grid sums); the
    quadratic outputs of pure data (c_bold, std_dev, the Husimi coupling
    energy) have the weaker exponent of ``quad``, and std_dev its square root.
    """
    lat, hbar, horizon, geom = scn.lat, scn.hbar, scn.horizon, scn.geom
    d = lat.dimension
    lam = 1.0 if scn.lam is None else scn.lam
    # a packet's position variance per axis over [0, T], and its Husimi function's at 0
    var = hbar * max(2.0, 1.0 + horizon * horizon) / 2.0
    # grid sums of a Gaussian of variance >= hbar / 2 per axis over its integral
    riemann = 1.0 + _lattice_gauss_sum(lat.reciprocal, quadrature_len(scn.disc.m), 4.0 / hbar)
    weight = max(2.0 * horizon, 1.0,
                 lam * lam * geom.gamma_minus / 2.0 + (d / 2.0 + 2.0 / np.e) * hbar)
    bound = weight * riemann * _lattice_gauss_sum(lat.basis, n_k, 8.0 * var)
    if scn.initial_kind == "pure":
        quad = (max(1.0, geom.gamma_plus ** 2 + (2.0 * d + 6.0 / np.e) * hbar)
                * (1.0 + _lattice_gauss_sum(lat.basis, 1, 4.0 * hbar))
                * _lattice_gauss_sum(lat.basis, n_k, 16.0 * hbar))
        bound += quad + np.sqrt(quad)
    return float(bound)


def k_grid_size(scn: ObservabilityScenario) -> tuple[int, float]:
    """(n_k_used, k_alias_bound): the k-grid a run evaluates, per axis, and its alias bound.

    At V = 0, the coarsest n in [2, n_k] whose ``k_alias_bound`` is at most
    ``K_ALIAS_TOL``, by bisection (the bound falls as n grows), or n_k when no
    n is.  At V != 0 there is no closed-form packet width, so n_k, and the
    bound is nan.
    """
    n_k = scn.disc.n_k
    if not scn.potential.is_zero:
        return n_k, float("nan")
    lo, hi = 2, n_k
    if k_alias_bound(scn, hi) <= K_ALIAS_TOL:
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if k_alias_bound(scn, mid) <= K_ALIAS_TOL else (mid + 1, hi)
    return hi, k_alias_bound(scn, hi)


def default_p_max(scn: ObservabilityScenario) -> float:
    if scn.disc.p_max is not None:
        return scn.disc.p_max
    p0 = float(np.max(np.abs(scn.center_p)))
    reach = float(np.max(np.abs(scn.k_set.p_bounds)))
    return max(p0, reach) + 6.0 * np.sqrt(scn.hbar)


class TheoremConstants(NamedTuple):
    """The constants both inequalities are assembled from (``constants`` writes them all)."""

    lip: LipschitzBound
    gc: GCEstimate
    c_toeplitz: float
    lambda_toeplitz: float
    c_pure: float
    hbar_threshold: float


def theorem_constants(scn: ObservabilityScenario) -> TheoremConstants:
    """Lipschitz bound of grad V, C_GC, both penalty constants and the hbar threshold."""
    lip = scn.potential.lipschitz_gradient()
    gc = gc_constant(scn.horizon, scn.k_set, scn.omega, scn.potential,
                     n_time=scn.disc.n_time_gc, per_axis=scn.disc.gc_per_axis,
                     n_quasi=scn.disc.gc_quasi)
    c_t, lam_t = minimize_toeplitz_penalty(scn.geom, scn.horizon, lip.value)
    return TheoremConstants(lip, gc, c_t, lam_t, constant_pure(scn.geom, scn.horizon, lip.value),
                            hbar_threshold(gc.value, c_t, scn.delta, scn.lat.dimension))


def verify_theorem(scn: ObservabilityScenario) -> TheoremReport:
    """Run the inequality check for the scenario's initial datum, of either kind.

    The datum is evolved on its effective rank: compression at ``PRUNE_TOL``
    drops at most that fraction of each fiber trace, the same tolerance as the
    node pruning of the classical density.  The kinds differ only in the mass
    on K (of the classical bump, or of the Husimi density), the penalty
    constant with its cost scale, the initial coupling-energy bound, and the
    hbar threshold, which only the quantized-density bound has.  Everything
    read from the initial datum is computed before the evolution, which
    advances the datum in place.
    """
    d = scn.lat.dimension
    f, rho = initial_state(scn)
    n_k_used, alias = k_grid_size(scn)
    rank = rho.rank
    rho, tail = rho.compressed(PRUNE_TOL)
    constants = theorem_constants(scn)
    gc, lip = constants.gc, constants.lip.value
    warnings = []
    if scn.initial_kind == "toeplitz":
        mass_k = f.mass_in(scn.k_set)
        c_const, lam_star = constants.c_toeplitz, constants.lambda_toeplitz
        # penalty is C * sqrt(d hbar)/delta; the Groenwall assembly carries the
        # coupling-energy bound sqrt((1+lam^2) d hbar / 2) at the minimizing scale
        penalty_scale = float(np.sqrt(d * scn.hbar))
        energy_bound = float(np.sqrt((1.0 + lam_star ** 2) * d * scn.hbar / 2.0))
        thr = constants.hbar_threshold
        if scn.hbar >= thr:
            warnings.append(
                f"hbar={scn.hbar:g} exceeds the uniform-positivity threshold {thr:.3e}; "
                "the inequality is still checked but its right side need not be positive")
        kind_rows = {"hbar_threshold": thr}
    else:
        mass_k = husimi_mass_on_boxes(rho, scn.k_set)
        c_const, lam_star = constants.c_pure, 1.0
        ce = coupling_energy_husimi(rho)
        energy_bound = penalty_scale = float(np.sqrt(ce.bound))
        kind_rows = {"std_dev": ce.std_dev, "c_bold": ce.c_bold}
    if not gc.satisfied:
        warnings.append("geometric-control constant is not shown positive")
    trace0 = periodic_trace(rho)
    lhs, series, times, quad_err, drift = observed_time_integral(
        rho, scn.omega, scn.delta, scn.potential, scn.horizon,
        scn.disc.n_time_obs, scn.disc.dt)
    penalty = c_const * penalty_scale / scn.delta
    classical = gc.value * mass_k
    rhs = classical - penalty
    margin = lhs - rhs
    budget = 5e-3 * abs(classical) * scn.tolerance_scale
    eta = gronwall_rate(scn.geom, lam_star, lip)
    gfac = (np.sqrt(2.0 * scn.geom.gamma_plus / scn.geom.gamma_minus)
            / (scn.delta * lam_star) * np.expm1(eta * scn.horizon) / eta)
    rows = {
        "kind": scn.initial_kind, "lhs": lhs, "classical_term": classical,
        "penalty": penalty, "rhs": rhs, "margin": margin, "error_budget": budget,
        "passed": int(margin >= -budget), "C_GC": gc.value, "C_GC_lo": gc.lower,
        "penalty_constant": c_const,
        "mass_on_K": mass_k, "hbar": scn.hbar, "delta": scn.delta, "T": scn.horizon,
        "lip_grad_V": lip, "eta": eta, "lambda_star": lam_star,
        # sqrt(2 g+/g-) / (delta * lambda) * (e^{eta T}-1)/eta
        "gronwall_factor": float(gfac), "energy_bound": energy_bound,
        "lhs_quad_error": quad_err, "initial_periodic_trace": trace0, "trace_drift": drift,
        "rank": rank, "rank_evolved": rho.rank, "rank_tail": tail, "n_k_used": n_k_used,
        "k_alias_bound": alias, **kind_rows,
    }
    return TheoremReport(rows=rows, times=times, observation_series=series,
                         warnings=tuple(warnings))
