"""Fiber Hamiltonians, split-step propagation, and commutator identity checks.

Sign convention: the density evolves as ``R(t) = U(t)^* R_in U(t)`` where the
adjoint ``U(t)^*`` acts on fiber vectors as the standard forward propagator
``exp(-i t H_k / hbar)``; that is what ``propagate_fiber`` applies.  The
stability estimates downstream depend on this pairing of quantum forward
propagation with the forward classical flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .bloch import KGrid, PeriodicField, _alt_sign, _twisted, coeffs_to_values, g_vectors, \
    grid_weight, position_grid, values_to_coeffs
from .classical_dynamics import TrigPotential
from .lattice import CellGeometry, LatticeSpec, theta_cost_weights
from .quantization import FiberedDensity


@dataclass
class FiberHamiltonian:
    """Kinetic diagonal (shifted by the fiber quasimomentum) plus a periodic potential."""

    lat: LatticeSpec
    m: int
    k: np.ndarray
    potential: TrigPotential
    hbar: float

    def __post_init__(self):
        self.k = np.atleast_1d(np.asarray(self.k, dtype=float))
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        d = self.lat.dimension
        shifted = g_vectors(self.lat, self.m) + self.k
        diag = 0.5 * self.hbar ** 2 * np.sum(shifted * shifted, axis=-1)
        self.kinetic_diagonal = diag.reshape((2 * self.m + 1,) * d)
        n = 2 * self.m + 1
        self.potential_values = self.potential.value(position_grid(self.lat, n)) \
            .reshape((n,) * d)


def kinetic_phase(h: FiberHamiltonian, t: float) -> np.ndarray:
    return np.exp(-1j * t * h.kinetic_diagonal / h.hbar)


def propagate_batch(coeffs: np.ndarray, h: FiberHamiltonian, t: float, dt: float) -> np.ndarray:
    """Strang-split propagation of a batch of coefficient arrays (leading axes free).

    Kinetic half-steps act diagonally on coefficients; the potential factor
    multiplies pointwise on the position grid.  The zero-potential case uses
    the exact diagonal propagator.

    The batch is moved once into twisted FFT order, x = ifftshift(c * alt),
    in which the values on the cell grid are ifftn(x) up to a constant that
    cancels between the two transforms of a step; each step is then
    fftn(ifftn(x) * pot) * phase with kinetic phases in FFT order, and the
    result is moved back once at the end.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if t == 0.0:
        return coeffs.copy()
    if h.potential.is_zero:
        return coeffs * kinetic_phase(h, t)
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    step = t / n_steps
    d = h.lat.dimension
    axes = tuple(range(coeffs.ndim - d, coeffs.ndim))
    half = kinetic_phase(h, 0.5 * step)
    x = _twisted(coeffs * half, 2 * h.m + 1, d)
    half = sfft.ifftshift(half)
    full = half * half
    pot = np.exp(-1j * step * h.potential_values / h.hbar)
    for i in range(n_steps):
        vals = sfft.ifftn(x, axes=axes, overwrite_x=True)
        vals *= pot
        x = sfft.fftn(vals, axes=axes, overwrite_x=True)
        x *= half if i == n_steps - 1 else full
    return sfft.fftshift(x, axes=axes) * _alt_sign(2 * h.m + 1, d)


def propagate_fiber(u: PeriodicField, h: FiberHamiltonian, t: float, dt: float) -> PeriodicField:
    """Apply exp(-i t H_k / hbar) to one periodic field."""
    if u.m != h.m:
        raise ValueError("field and Hamiltonian truncation orders differ")
    return PeriodicField(u.lat, u.m, propagate_batch(u.coeffs, h, t, dt))


class FiberPropagator:
    """One Hamiltonian per fiber of a k-grid, advancing (n_k, batch, n_G) coefficient blocks."""

    def __init__(self, kgrid: KGrid, lat: LatticeSpec, m: int, potential: TrigPotential,
                 hbar: float):
        self.hams = [FiberHamiltonian(lat, m, k, potential, hbar) for k in kgrid.points]
        self.free = potential.is_zero
        self.hbar = hbar
        self.kinetic = np.stack([h.kinetic_diagonal.reshape(-1) for h in self.hams])

    def advance(self, coeffs: np.ndarray, t: float, dt: float) -> np.ndarray:
        """Propagate every fiber of ``coeffs`` by time t in place; returns ``coeffs``.

        With V = 0 the kinetic phases of all fibers are applied at once;
        otherwise each fiber's batch goes through one ``propagate_batch`` call.
        """
        if self.free:
            coeffs *= np.exp(-1j * t * self.kinetic / self.hbar)[:, None, :]
            return coeffs
        n_b = coeffs.shape[1]
        for ik, h in enumerate(self.hams):
            coeffs[ik] = propagate_batch(coeffs[ik].reshape((n_b,) + h.kinetic_diagonal.shape),
                                         h, t, dt).reshape(n_b, -1)
        return coeffs


def evolve_density(rho: FiberedDensity, potential: TrigPotential, t: float,
                   dt: float) -> FiberedDensity:
    """Propagate every low-rank factor; fiber weights (hence traces) are untouched."""
    propagator = FiberPropagator(rho.kgrid, rho.lat, rho.m, potential, rho.hbar)
    vectors = propagator.advance(rho.vectors.copy(), t, dt)
    return FiberedDensity(rho.kgrid, rho.lat, rho.m, rho.hbar, rho.lambdas.copy(), vectors)


# ---------------------------------------------------------------------------
# commutator identities
# ---------------------------------------------------------------------------

def _field_of_potential(v: TrigPotential, lat: LatticeSpec, order: int) -> np.ndarray:
    """Coefficient array whose values() reproduce the potential exactly."""
    n = 2 * order + 1
    vals = v.value(position_grid(lat, n)).reshape((n,) * lat.dimension).astype(complex)
    return values_to_coeffs(vals, lat, order)


def _mult_exact(a: np.ndarray, order_a: int, b: np.ndarray, order_b: int,
                lat: LatticeSpec) -> np.ndarray:
    """Product of two trigonometric polynomials, exact to roundoff.

    Result order is order_a + order_b; evaluation happens on a grid large
    enough that no aliasing occurs.
    """
    order = order_a + order_b
    n = 2 * order + 1
    va = coeffs_to_values(a, lat, n)
    vb = coeffs_to_values(b, lat, n)
    # values carry a 1/sqrt(cell) factor each; one of them is spurious for a product
    return values_to_coeffs(va * vb, lat, order) * np.sqrt(lat.cell_volume)


def _embed(coeffs: np.ndarray, order_in: int, order_out: int) -> np.ndarray:
    pad = order_out - order_in
    d = coeffs.ndim
    return np.pad(coeffs, [(pad, pad)] * d)


@dataclass(frozen=True)
class CommutatorResiduals:
    """Norms of the commutator-identity defects on a test field."""

    potential_gradient: float   # i/hbar [V, (xi + i hbar grad)^2] vs first-order form
    theta_gradient: float       # same identity for the (truncated) cost multiplier
    diagonal: float             # [V, theta-multiplier]: both diagonal, exactly zero
    kinetic: float              # [kinetic, (xi + i hbar grad)^2]: both diagonal in G


def commutator_residual(potential: TrigPotential, k, xi, u: PeriodicField, hbar: float,
                        geom: CellGeometry, x_center=None, lam: float = 1.0,
                        theta_order: int | None = None) -> CommutatorResiduals:
    """Check the commutator identities behind the cost-transport estimate.

    Both sides of each identity are assembled with exact polynomial products
    (padded grids), so for multiplier fields given as trigonometric
    polynomials the residuals are pure roundoff.  The cost multiplier
    ``lam^2 * theta(|P_Gamma(x - y)|^2)`` enters through its band-limited
    projection of order ``theta_order`` (default: the field's order), which is
    exactly the multiplier the discrete cost operator uses.
    """
    lat = u.lat
    d = lat.dimension
    k = np.atleast_1d(np.asarray(k, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if x_center is None:
        x_center = np.zeros(d)
    x_center = np.atleast_1d(np.asarray(x_center, dtype=float))

    res_v = _gradient_identity_residual(
        _field_of_potential(potential, lat, max(1, potential.bandwidth)),
        max(1, potential.bandwidth), u, xi, hbar, lat)

    t_ord = theta_order if theta_order is not None else u.m
    n = 2 * t_ord + 1
    grid = position_grid(lat, n)
    w_vals = lam ** 2 * theta_cost_weights(x_center[None, :], grid, geom)[0]
    w_coeffs = values_to_coeffs(w_vals.astype(complex).reshape((n,) * d), lat, t_ord)
    # The fiber momentum operator -i hbar grad + hbar k is minus a standard-form
    # operator with xi = -hbar k, so the kinetic/theta identity reduces to the
    # gradient identity at that xi; the factor 1/2 restores the defect norm of
    # the half-kinetic commutator.
    res_t = 0.5 * _gradient_identity_residual(w_coeffs, t_ord, u, -hbar * k, hbar, lat)

    # diagonal pairs commute bitwise once composed as pointwise products
    nv = 2 * (max(1, potential.bandwidth) + t_ord) + 1
    v_vals = potential.value(position_grid(lat, nv))
    w_vals2 = lam ** 2 * theta_cost_weights(x_center[None, :], position_grid(lat, nv), geom)[0]
    diff = v_vals * w_vals2 - w_vals2 * v_vals
    u_big = np.abs(coeffs_to_values(u.coeffs, lat, nv)).reshape(-1)
    res_diag = float(np.sqrt(np.sum(np.abs(diff * u_big) ** 2) * grid_weight(lat, nv)))

    g = g_vectors(lat, u.m)
    kin = 0.5 * hbar ** 2 * np.sum((g + k) ** 2, axis=-1)
    mom = np.sum((xi - hbar * g) ** 2, axis=-1)
    both = kin * mom - mom * kin
    res_kin = float(np.sqrt(np.sum(np.abs(both * u.coeffs.reshape(-1)) ** 2)))

    return CommutatorResiduals(potential_gradient=res_v, theta_gradient=res_t,
                               diagonal=res_diag, kinetic=res_kin)


def _gradient_identity_residual(w_coeffs: np.ndarray, w_order: int, u: PeriodicField,
                                xi: np.ndarray, hbar: float, lat: LatticeSpec) -> float:
    """Residual of i/hbar [W, P^2] u = (P . grad W + grad W . P) u, P = xi + i hbar grad.

    P acts diagonally as xi - hbar G; products are evaluated on padded grids so
    the comparison is exact for trigonometric-polynomial multipliers.
    """
    d = lat.dimension
    out_order = w_order + u.m
    big_shape = (2 * out_order + 1,) * d
    g_small = g_vectors(lat, u.m)
    g_big = g_vectors(lat, out_order)
    p_small = xi - hbar * g_small
    p_big = xi - hbar * g_big

    p2_small = np.sum(p_small ** 2, axis=-1).reshape(u.coeffs.shape)
    p2_big = np.sum(p_big ** 2, axis=-1).reshape(big_shape)

    wu = _mult_exact(w_coeffs, w_order, u.coeffs, u.m, lat)
    lhs = (1j / hbar) * (_mult_exact(w_coeffs, w_order, p2_small * u.coeffs, u.m, lat)
                         - p2_big * wu)

    rhs = np.zeros_like(lhs)
    gw = g_vectors(lat, w_order)
    for i in range(d):
        grad_i = (1j * gw[:, i]).reshape(w_coeffs.shape) * w_coeffs
        pi_small = p_small[:, i].reshape(u.coeffs.shape)
        pi_big = p_big[:, i].reshape(big_shape)
        term1 = pi_big * _mult_exact(grad_i, w_order, u.coeffs, u.m, lat)
        term2 = _mult_exact(grad_i, w_order, pi_small * u.coeffs, u.m, lat)
        rhs = rhs + term1 + term2
    return float(np.linalg.norm((lhs - rhs).reshape(-1)))
