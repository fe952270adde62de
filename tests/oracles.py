"""Independent reference constructions that the tests compare the package against.

Each oracle computes a quantity the slow, direct way: a lattice sum on the
position grid, a per-fiber loop over dense momentum symbols, a transform loop
that rolls and rescales at every step, or a plain dump of arrays.  None of
them is used by the package itself.
"""

import numpy as np
from scipy import fft as sfft

from blochlab import PeriodicField
from blochlab.bloch import _alt_sign, coeffs_to_values, g_vectors, grid_weight, position_grid, \
    quadrature_len, translate_window, values_to_coeffs
from blochlab.classical_dynamics import flow
from blochlab.lattice import theta_cost_weights
from blochlab.states import coherent_coeff_batch, coherent_state


def periodized_coherent_direct(params, lat, m: int, l_cut: int) -> PeriodicField:
    """Periodized packet as a truncated lattice sum sampled on the position grid."""
    n = 2 * m + 1
    x = position_grid(lat, n)
    shifts = lat.lattice_vector(translate_window(l_cut, lat.dimension))
    vals = np.zeros(x.shape[0], dtype=complex)
    for s in shifts:
        vals += coherent_state(params, x + s)
    return PeriodicField(lat, m, values_to_coeffs(vals.reshape((n,) * lat.dimension), lat, m))


def coeffs_to_values_rolled(coeffs, lat, nout=None):
    """Coefficients to grid values by padding, twisting, ifftshift roll, ifftn and scale."""
    d = lat.dimension
    nout = coeffs.shape[-1] if nout is None else nout
    pad = (nout - coeffs.shape[-1]) // 2
    coeffs = np.pad(coeffs, [(0, 0)] * (coeffs.ndim - d) + [(pad, pad)] * d)
    axes = tuple(range(coeffs.ndim - d, coeffs.ndim))
    vals = sfft.ifftn(sfft.ifftshift(coeffs * _alt_sign(nout, d), axes=axes), axes=axes)
    return vals * (nout ** d / np.sqrt(lat.cell_volume))


def propagate_batch_rolled(coeffs, h, t: float, dt: float):
    """Strang splitting with a full coefficient/value round trip (rolls, signs, scales) per step."""
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    step = t / n_steps
    half = np.exp(-1j * 0.5 * step * h.kinetic_diagonal / h.hbar)
    pot = np.exp(-1j * step * h.potential_values / h.hbar)
    out = np.asarray(coeffs, dtype=complex) * half
    for i in range(n_steps):
        vals = coeffs_to_values_rolled(out, h.lat)
        out = values_to_coeffs(vals * pot, h.lat, h.m)
        out = out * (half if i == n_steps - 1 else half * half)
    return out


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


def diagonal_coupling_dense(f, cost, lat, kgrid, m: int, chunk: int = 512):
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
            xis = f.nodes_p[sl] - cost.hbar * k
            coeffs = coherent_coeff_batch(xs, xis, cost.hbar, lat, m)
            w = theta_cost_weights(xs, grid, cost.geom)
            vals = coeffs_to_values(coeffs.reshape((-1,) + (2 * m + 1,) * d), lat, n)
            pos = cost.lam ** 2 * np.einsum("bg,bg->b", w, np.abs(vals.reshape(w.shape)) ** 2) \
                * grid_weight(lat, n)
            sym = np.sum((xis[:, None, :] - cost.hbar * g[None, :, :]) ** 2, axis=-1)
            mom = np.einsum("bg,bg->b", sym, np.abs(coeffs) ** 2)
            pos_fiber[ik] += float(wf[sl] @ pos)
            mom_fiber[ik] += float(wf[sl] @ mom)
    return pos_fiber, mom_fiber
