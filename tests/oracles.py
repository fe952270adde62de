"""Independent reference constructions that the tests compare the package against.

Each oracle computes a quantity the slow, direct way: a lattice sum on the
position grid, the squared grid values of a density's vectors, the discrete
Bloch transform of a wave packet on R^d and its inverse, a per-fiber loop
over dense momentum symbols, the Gaussian packet and Husimi window without
their floor, a transform loop that rolls and rescales at every step, region
membership against every neighbouring translate, a midpoint quadrature over
phase-space grids, or a plain dump of arrays.  The
proof devices of the stability argument live here too: a single periodic
field with its own packet constructor, the commutator identities behind the
cost transport, and the fiber flow.  So do the shorthand constructors the
tests build their inputs with (a cubic lattice, one-term potentials, single
boxes, a rescaled density).  None of them is used by the package itself.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from blochlab.bloch import KGrid, _alt_sign, centered_indices, coeffs_to_values, g_vectors, \
    grid_weight, position_grid, quadrature_len, values_to_coeffs
from blochlab.classical_dynamics import PhasePoint, TrigPotential, flow
from blochlab.lattice import CellGeometry, LatticeSpec, Region, reduce_to_cell, \
    theta_cost_weights
from blochlab.quantization import FiberedDensity, PhaseBoxSet, husimi, momentum_cost, \
    momentum_grid
from blochlab.states import coherent_coeff_batch


def cubic_lattice(dimension: int, a: float = 1.0) -> LatticeSpec:
    return LatticeSpec(a * np.eye(dimension))


def zero_potential(lat: LatticeSpec) -> TrigPotential:
    return TrigPotential(lat, ())


def cosine_potential(lat: LatticeSpec, n, amplitude: float, phase: float = 0.0) -> TrigPotential:
    return TrigPotential(lat, ((n, amplitude, phase),))


def interval_region(lo, hi, lat: LatticeSpec) -> Region:
    """The region of the one box [lo, hi)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    return Region(np.stack([lo, hi])[None, :, :], lat)


def single_box(qlo, qhi, plo, phi) -> PhaseBoxSet:
    """The phase-space box set of the one box [qlo, qhi] x [plo, phi]."""
    qlo, qhi = np.atleast_1d(qlo), np.atleast_1d(qhi)
    plo, phi = np.atleast_1d(plo), np.atleast_1d(phi)
    return PhaseBoxSet(np.stack([qlo, qhi])[None], np.stack([plo, phi])[None])


def scaled_density(rho: FiberedDensity, c: float) -> FiberedDensity:
    """The density c rho: the same vectors with every fiber weight times c."""
    return FiberedDensity(rho.kgrid, rho.lat, rho.m, rho.hbar, c * rho.lambdas, rho.vectors)


@dataclass
class PeriodicField:
    """One periodic function as plane-wave coefficients of order m."""

    lat: LatticeSpec
    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        want = (2 * self.m + 1,) * self.lat.dimension
        if self.coeffs.shape != want:
            raise ValueError(f"coefficient array must have shape {want}")

    def values(self, nout: int | None = None) -> np.ndarray:
        return coeffs_to_values(self.coeffs, self.lat, nout)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def periodized_coherent_direct(params, lat, m: int, l_cut: int) -> PeriodicField:
    """Periodized packet as a truncated lattice sum sampled on the position grid."""
    n = 2 * m + 1
    x = position_grid(lat, n)
    shifts = lat.lattice_vector(centered_indices(l_cut, lat.dimension))
    vals = np.zeros(x.shape[0], dtype=complex)
    for s in shifts:
        vals += coherent_state(params, x + s)
    return PeriodicField(lat, m, values_to_coeffs(vals.reshape((n,) * lat.dimension), lat, m))

# ---------------------------------------------------------------------------
# whole-space packets and the discrete Bloch transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoherentParams:
    """Phase-space center (q, p) and semiclassical parameter hbar of one packet."""

    q: np.ndarray
    p: np.ndarray
    hbar: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have the same dimension")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


def coherent_state(params: CoherentParams, y: np.ndarray) -> np.ndarray:
    """Normalized Gaussian wave packet amplitude at points y (..., d)."""
    y = np.asarray(y, dtype=float)
    d = params.q.shape[0]
    dy = y - params.q
    norm = (np.pi * params.hbar) ** (-d / 4.0)
    return norm * np.exp(-np.sum(dy * dy, axis=-1) / (2.0 * params.hbar)
                         + 1j * (y @ params.p) / params.hbar)


@dataclass
class FiberedState:
    """One periodic field per k-grid point, stored as a stacked coefficient array."""

    kgrid: KGrid
    lat: LatticeSpec
    m: int
    coeffs: np.ndarray  # shape (n_k,) + (2m+1,)*d

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        want = (self.kgrid.size,) + (2 * self.m + 1,) * self.lat.dimension
        if self.coeffs.shape != want:
            raise ValueError(f"fibered coefficients must have shape {want}")

    def fiber_norms_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.coeffs.reshape(self.kgrid.size, -1)) ** 2, axis=1)


# Relative L2 mass allowed on the outer translate shell of ``bloch_transform`` is TAIL_TOL^2.
TAIL_TOL = 1e-10


def default_window(lat: LatticeSpec, hbar: float, gamma_minus: float) -> int:
    """Smallest l_cut at which a packet centred anywhere in the cell passes the tail check.

    |u|^2 of a coherent packet decays like exp(-|x - q|^2 / hbar).  The outer
    shell |n|_inf = l_cut lies at least (l_cut - 1) * 2 gamma_minus from any
    centre q in the cell (2 gamma_minus is the least distance between
    opposite faces), and the mass beyond a plane at distance D is below
    exp(-D^2 / hbar), which drops below ``TAIL_TOL``^2 for
    D >= sqrt(2 hbar ln(1 / TAIL_TOL)).
    """
    reach = np.sqrt(2.0 * hbar * np.log(1.0 / TAIL_TOL))
    return 1 + int(np.ceil(reach / (2.0 * gamma_minus)))


def bloch_transform(u, lat: LatticeSpec, kgrid: KGrid, m: int, l_cut: int,
                    tail_tol: float = TAIL_TOL) -> FiberedState:
    """Discrete Bloch transform of a decaying function on R^d.

    Parameters
    ----------
    u : callable
        Vectorized wave packet, maps an array of points (..., d) to complex
        amplitudes (...,).
    l_cut : int
        Lattice-sum window; translates with |n|_inf <= l_cut are summed.  The
        window should fit inside the k-grid supercell (2*l_cut+1 <= n_k per
        axis) or cross terms between far translates alias.
    tail_tol : float
        Relative L2 mass allowed on the outermost translate shell; exceeding
        it raises ValueError (window too small).

    The fiber at k holds the coefficients of
    ``x -> sum_ell u(x + ell) exp(-i k . (x + ell))`` on the cell grid.  With
    the shifted uniform k-grid the transform is exactly unitary on functions
    supported inside the n_k-cell window (the discrete k average kills all
    cross terms between distinct translates).
    """
    d = lat.dimension
    n = 2 * m + 1
    x = position_grid(lat, n)
    window = centered_indices(l_cut, d)
    shifts = lat.lattice_vector(window)
    pts = x[None, :, :] + shifts[:, None, :]
    uvals = np.asarray(u(pts), dtype=complex)

    mass = np.sum(np.abs(uvals) ** 2, axis=1)
    shell = np.max(np.abs(window), axis=1) == l_cut
    total = float(np.sum(mass))
    if total > 0 and float(np.sum(mass[shell])) > tail_tol ** 2 * total:
        raise ValueError(
            f"translate window l_cut={l_cut} too small: outer-shell mass "
            f"{np.sum(mass[shell]) / total:.3e} of total exceeds tol^2")

    phase_shift = np.exp(-1j * kgrid.points @ shifts.T)          # (n_k, n_window)
    summed = phase_shift @ uvals                                 # (n_k, n_grid)
    fiber_vals = summed * np.exp(-1j * kgrid.points @ x.T)       # times e^{-ik.x}
    fiber_vals = fiber_vals.reshape((kgrid.size,) + (n,) * d)
    coeffs = values_to_coeffs(fiber_vals, lat, m)
    return FiberedState(kgrid, lat, m, coeffs)


def inverse_bloch(state: FiberedState, l_cut: int) -> np.ndarray:
    """Reconstruct the wave packet on the translate-window grid.

    Returns values of shape ``(n_window, n^d...)`` matching the point layout
    ``position_grid + translate``; the average over fibers implements the
    normalized-cell-average inversion formula.
    """
    lat, m = state.lat, state.m
    n = 2 * m + 1
    x = position_grid(lat, n)
    shifts = lat.lattice_vector(centered_indices(l_cut, lat.dimension))
    vals = coeffs_to_values(state.coeffs, lat, n).reshape(state.kgrid.size, -1)
    phase_x = np.exp(1j * state.kgrid.points @ x.T)              # (n_k, n_grid)
    phase_shift = np.exp(1j * state.kgrid.points @ shifts.T)     # (n_k, n_window)
    out = np.einsum("kw,kg->wg", phase_shift, vals * phase_x) / state.kgrid.size
    return out.reshape((shifts.shape[0],) + (n,) * lat.dimension)


def coeffs_to_values_rolled(coeffs, lat, nout=None):
    """Coefficients to grid values by padding, twisting, ifftshift roll, ifftn and scale."""
    d = lat.dimension
    nout = coeffs.shape[-1] if nout is None else nout
    pad = (nout - coeffs.shape[-1]) // 2
    coeffs = np.pad(coeffs, [(0, 0)] * (coeffs.ndim - d) + [(pad, pad)] * d)
    axes = tuple(range(coeffs.ndim - d, coeffs.ndim))
    vals = sfft.ifftn(sfft.ifftshift(coeffs * _alt_sign(nout, d), axes=axes), axes=axes)
    return vals * (nout ** d / np.sqrt(lat.cell_volume))


def position_density(rho: FiberedDensity) -> np.ndarray:
    """|v(y)|^2 of every vector on the quadrature grid, shape (n_k, rank, n^d), from its values."""
    vals = coeffs_to_values(rho.vectors.reshape(rho.lambdas.shape + rho.coeff_shape), rho.lat,
                            quadrature_len(rho.m))
    return np.abs(vals.reshape(rho.lambdas.shape + (-1,))) ** 2


def values_to_coeffs_rolled(values, lat, m: int):
    """Grid values to order-m coefficients by fftn, fftshift roll, scale, twist and crop."""
    d = lat.dimension
    n = values.shape[-1]
    axes = tuple(range(values.ndim - d, values.ndim))
    spec = sfft.fftshift(sfft.fftn(values, axes=axes), axes=axes)
    spec = spec * (np.sqrt(lat.cell_volume) / n ** d) * _alt_sign(n, d)
    cut = (n - (2 * m + 1)) // 2
    return spec[(Ellipsis,) + (slice(cut, n - cut),) * d]


def propagate_batch_rolled(coeffs, h, t: float, dt: float):
    """Strang splitting with a full coefficient/value round trip (rolls, signs, scales) per step.

    ``coeffs`` is a (n_k, batch, (2m+1)^d) block; returns a new one.  The
    round trip goes through the potential's grid and truncates back to order m.
    """
    window = (2 * h.m + 1,) * h.lat.dimension
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    step = t / n_steps
    half = np.exp(-1j * 0.5 * step * h.kinetic_diagonal / h.hbar).reshape((-1, 1) + window)
    pot = np.exp(-1j * step * h.potential_values / h.hbar)
    out = np.asarray(coeffs, dtype=complex).reshape(coeffs.shape[:2] + window) * half
    for i in range(n_steps):
        vals = coeffs_to_values_rolled(out, h.lat, nout=h.potential_values.shape[-1])
        out = values_to_coeffs(vals * pot, h.lat, h.m)
        out = out * (half if i == n_steps - 1 else half * half)
    return out.reshape(coeffs.shape)


def region_contains_unpruned(region: Region, points) -> np.ndarray:
    """Periodic membership tested against every box at all 3^d neighbouring translates."""
    pts = reduce_to_cell(points, region.lat)
    p = pts.reshape(-1, pts.shape[-1])
    d = region.lat.dimension
    offs = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"), axis=-1).reshape(-1, d)
    out = np.zeros(p.shape[0], dtype=bool)
    for lo, hi in region.boxes:
        for s in region.lat.lattice_vector(offs):
            q = p + s
            out |= np.all((q >= lo) & (q < hi), axis=-1)
    return out.reshape(pts.shape[:-1])


def dump_csv(state, path) -> None:
    """Flat dump of a FiberedState: one row (k_index, flat G index, re, im) per coefficient."""
    flat = state.coeffs.reshape(state.kgrid.size, -1)
    with open(path, "w") as fh:
        fh.write("k_index,g_index,re,im\n")
        for ik in range(flat.shape[0]):
            for ig in range(flat.shape[1]):
                c = flat[ik, ig]
                fh.write(f"{ik},{ig},{c.real:.17g},{c.imag:.17g}\n")


def sample_trajectory(x, xi, horizon: float, potential, dt: float = 1e-3,
                      n_samples: int = 100):
    """Times and phase-space states along one (or a batch of) trajectories."""
    times = np.linspace(0.0, horizon, n_samples + 1)
    xs = [np.array(x, dtype=float, copy=True)]
    xis = [np.array(xi, dtype=float, copy=True)]
    step = horizon / n_samples
    for _ in range(n_samples):
        out = flow(xs[-1], xis[-1], step, potential, dt)
        xs.append(out.x)
        xis.append(out.xi)
    return times, np.stack(xs), np.stack(xis)


def dump_trajectory_csv(path, x, xi, horizon: float, potential, dt: float = 1e-3,
                        n_samples: int = 100) -> None:
    """Write one trajectory as CSV rows (t, x..., xi...)."""
    times, xs, xis = sample_trajectory(x, xi, horizon, potential, dt, n_samples)
    d = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1).shape[0]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i}" for i in range(d))
                 + "," + ",".join(f"xi{i}" for i in range(d)) + "\n")
        for t, xv, xiv in zip(times, xs.reshape(len(times), -1),
                              xis.reshape(len(times), -1)):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for v in xv] + [f"{v:.17g}" for v in xiv]
            fh.write(",".join(row) + "\n")


def diagonal_coupling_dense(f, cost, hbar: float, lat, kgrid, m: int, chunk: int = 512):
    """Per-fiber (position, momentum) energies of the diagonal packet coupling.

    Fiber by fiber and in node chunks, every packet is rebuilt and its
    momentum energy is summed against the dense symbol |xi - hbar G|^2.
    """
    d = lat.dimension
    n = quadrature_len(m)
    grid = position_grid(lat, n)
    g = g_vectors(lat, m)
    wf = f.weights * f.values
    pos_fiber = np.zeros(kgrid.size)
    mom_fiber = np.zeros(kgrid.size)
    for ik, k in enumerate(kgrid.points):
        for lo in range(0, f.size, chunk):
            sl = slice(lo, min(lo + chunk, f.size))
            xs = f.nodes_q[sl]
            xis = f.nodes_p[sl] - hbar * k
            coeffs = coherent_coeff_batch(xs, xis, hbar, lat, m)
            w = theta_cost_weights(xs, grid, cost.geom)
            vals = coeffs_to_values(coeffs.reshape((-1,) + (2 * m + 1,) * d), lat, n)
            pos = cost.lam ** 2 * np.einsum("bg,bg->b", w, np.abs(vals.reshape(w.shape)) ** 2) \
                * grid_weight(lat, n)
            sym = np.sum((xis[:, None, :] - hbar * g[None, :, :]) ** 2, axis=-1)
            mom = np.einsum("bg,bg->b", sym, np.abs(coeffs) ** 2)
            pos_fiber[ik] += float(wf[sl] @ pos)
            mom_fiber[ik] += float(wf[sl] @ mom)
    return pos_fiber, mom_fiber


def pair_moment_grid(dens, lat):
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


def husimi_mass_grid(rho, k_set, dq=None, dp=None):
    """Husimi mass on a union of disjoint boxes by midpoint tensor grids over each box.

    The spacings ``dq``/``dp`` default to sqrt(hbar)/3 and pi*sqrt(hbar)/8,
    the packet-width scale of the density.
    """
    s = np.sqrt(rho.hbar)
    dq = s / 3.0 if dq is None else dq
    dp = np.pi * s / 8.0 if dp is None else dp
    total = 0.0
    for (qlo, qhi), (plo, phi) in zip(k_set.q_bounds, k_set.p_bounds):
        q_axes = [_midpoints(qlo[i], qhi[i], dq) for i in range(qlo.shape[0])]
        p_axes = [_midpoints(plo[i], phi[i], dp) for i in range(plo.shape[0])]
        qs = np.stack(np.meshgrid(*q_axes, indexing="ij"), axis=-1).reshape(-1, qlo.shape[0])
        ps = np.stack(np.meshgrid(*p_axes, indexing="ij"), axis=-1).reshape(-1, plo.shape[0])
        w = float(np.prod([(qhi[i] - qlo[i]) / len(q_axes[i]) for i in range(len(q_axes))])
                  * np.prod([(phi[i] - plo[i]) / len(p_axes[i]) for i in range(len(p_axes))]))
        total += husimi(rho, qs, ps, w).mass
    return total


def husimi_unfloored(rho, qs, ps, weight):
    """``husimi`` with the unfloored momentum window exp(-|p - hbar k - hbar G|^2 / (2 hbar))."""
    qs = np.atleast_2d(qs)
    ps = np.atleast_2d(ps)
    lat, hbar = rho.lat, rho.hbar
    d = lat.dimension
    g = g_vectors(lat, rho.m)
    phase_q = np.exp(1j * qs @ g.T)
    acc = np.zeros((ps.shape[0], qs.shape[0]))
    for k, lambdas, vectors in zip(rho.kgrid.points, rho.lambdas, rho.vectors):
        diff = (ps - hbar * k)[:, None, :] - hbar * g[None, :, :]
        window = np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * hbar))
        for w, vector in zip(lambdas, vectors):
            t = (window * vector) @ phase_q.T
            acc += w * (t.real ** 2 + t.imag ** 2)
    pref = (2.0 * np.pi * hbar) ** (-d) * ((4.0 * np.pi * hbar) ** (d / 2.0) / lat.cell_volume)
    return pref * acc.T.reshape(-1) / rho.kgrid.size


def _midpoints(lo, hi, step):
    n = max(2, int(np.ceil((hi - lo) / step)))
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def coupling_energy_husimi_grid(rho, nq, np_per_dim, p_max, ny=None):
    """Per-fiber (position, momentum) energies of the Husimi coupling of a rank-1 density.

    Midpoint quadrature over the nq^d cell grid and the np_per_dim^d momentum
    grid on [-p_max, p_max]^d of the Husimi weight of each fiber (at
    (q, p + hbar k)) against the periodized second moment of |v|^2 about q,
    itself summed on ``ny`` points per axis (default ``quadrature_len(m)``),
    and against the momentum cost.  The fiber weights ride on the vectors.
    """
    lat, m, hbar = rho.lat, rho.m, rho.hbar
    d = lat.dimension
    ny = quadrature_len(m) if ny is None else ny
    vectors = np.sqrt(rho.lambdas[:, 0])[:, None] * rho.vectors[:, 0]
    qs = position_grid(lat, nq)
    ps, wp = momentum_grid(d, np_per_dim, p_max)
    ys = position_grid(lat, ny)
    vals = coeffs_to_values(vectors.reshape((-1,) + (2 * m + 1,) * d), lat, ny)
    dens = np.abs(vals.reshape(vectors.shape[0], -1)) ** 2
    m2 = np.empty((vectors.shape[0], qs.shape[0]))
    for iq, q in enumerate(qs):
        red = reduce_to_cell(q - ys, lat)
        m2[:, iq] = dens @ np.sum(red * red, axis=-1) * grid_weight(lat, ny)

    g = g_vectors(lat, m)
    window = np.exp(-np.sum((ps[:, None, :] - hbar * g[None, :, :]) ** 2, axis=-1) / (2 * hbar))
    phase_q = np.exp(1j * qs @ g.T)
    pref = (2 * np.pi * hbar) ** (-d) * (4 * np.pi * hbar) ** (d / 2) / lat.cell_volume
    weights = np.abs(vectors) ** 2
    moments = (weights.sum(axis=-1), weights @ (hbar * g),
               weights @ np.sum((hbar * g) ** 2, axis=-1))
    pos, mom = np.zeros(vectors.shape[0]), np.zeros(vectors.shape[0])
    wq = grid_weight(lat, nq)
    for ik, v in enumerate(vectors):
        fk = pref * np.abs((window * v) @ phase_q.T) ** 2                  # (Np, Nq)
        pos[ik] = float(np.einsum("pq,q->", fk, m2[ik]) * wq * wp)
        mom[ik] = float((fk.sum(axis=1) * wq * wp) @ momentum_cost([a[ik] for a in moments], ps))
    return pos, mom


# ---------------------------------------------------------------------------
# periodized packets, fiber flow and commutator identities
# ---------------------------------------------------------------------------

def coherent_coeff_unfloored(qs, ps, hbar: float, lat: LatticeSpec, m: int) -> np.ndarray:
    """``coherent_coeff_batch`` without its floor: the Gaussian on the whole window.

    Forms the (B, n_G, d) difference tensor p - hbar G and evaluates both
    exponentials everywhere, so the far tail underflows to subnormals and zeros.
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    d = lat.dimension
    hg = hbar * g_vectors(lat, m)
    amp = (4.0 * np.pi * hbar) ** (d / 4.0) / np.sqrt(lat.cell_volume)
    diff = ps[:, None, :] - hg[None, :, :]
    gauss = np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * hbar))
    phase = np.exp(1j * np.einsum("bgd,bd->bg", diff, qs) / hbar)
    return amp * gauss * phase


def coherent_planewave_coeffs(params: CoherentParams, lat: LatticeSpec,
                              k: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of the fiber-k periodization: closed-form Gaussian transform.

    Equals the inner products of the basis functions with the periodized
    packet at momentum ``p - hbar*k``, arranged on the centered index grid.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    flat = coherent_coeff_batch(params.q[None, :], (params.p - params.hbar * k)[None, :],
                                params.hbar, lat, m)[0]
    return flat.reshape((2 * m + 1,) * lat.dimension)


def periodized_coherent(params: CoherentParams, lat: LatticeSpec, m: int,
                        edge_tol: float = 1e-6) -> PeriodicField:
    """Periodized packet as a PeriodicField (closed-form coefficients).

    Raises ValueError when the Gaussian momentum profile is clipped by the
    truncation, detected by a non-negligible coefficient on the outer index
    shell relative to the peak.
    """
    coeffs = coherent_planewave_coeffs(params, lat, np.zeros(lat.dimension), m)
    peak = float(np.max(np.abs(coeffs)))
    edge = _edge_max(np.abs(coeffs))
    if peak > 0.0 and edge > edge_tol * peak:
        raise ValueError(
            f"plane-wave order m={m} clips the packet: edge/peak = {edge / peak:.2e}")
    return PeriodicField(lat, m, coeffs)


def _edge_max(a: np.ndarray) -> float:
    mask = np.zeros(a.shape, dtype=bool)
    for axis in range(a.ndim):
        sl = [slice(None)] * a.ndim
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    return float(np.max(a[mask])) if a.size else 0.0


def k_flow(x, xi, k, t: float, potential: TrigPotential, hbar: float,
           dt: float = 1e-3) -> PhasePoint:
    """Fiber flow: the plain flow started at momentum xi + hbar*k, shifted back."""
    k = np.asarray(k, dtype=float)
    shifted = flow(x, np.asarray(xi, dtype=float) + hbar * k, t, potential, dt)
    return PhasePoint(shifted.x, shifted.xi - hbar * k)


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
    projection of order ``theta_order`` (default: the field's order).
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
