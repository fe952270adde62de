"""Fiber Hamiltonians, their band basis, split-step propagation, and the one evolution loop.

Fiber vectors live on the plane-wave window of order m.  There the fiber
Hamiltonian is the Galerkin matrix H_k = diag(E_k) + V, with V's matrix in
closed form from the potential's cosine series, and one eigendecomposition
H_k = U diag(e) U^* per fiber gives the exact flow v(t) = U exp(-i t e / hbar) U^* v:
the band path, with no time step and unitary to rounding.  At V = 0 the band
basis is the plane waves themselves.  The Strang split step is the fallback:
it applies the potential on the ``quadrature_len(m)`` cell grid, projects back
onto the window, and transforms the whole (n_k, batch) block at once in one
padded work array.

``evolution`` advances the vectors at every sample, in each fiber's band basis
or by ``propagate_batch``.  ``observation_series`` evaluates every sample as
one Hermitian form per fiber in its band basis (``_band_forms``) and moves the
vectors to the horizon exactly, or reads the masked trace at every sample of
``evolution``.  One cost rule, ``_band_path``, picks the path of both.

Sign convention: the density evolves as ``R(t) = U(t)^* R_in U(t)`` where the
adjoint ``U(t)^*`` acts on fiber vectors as the standard forward propagator
``exp(-i t H_k / hbar)``; that is what ``propagate_batch`` and the band path
apply.  The stability estimates downstream depend on this pairing of quantum
forward propagation with the forward classical flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _fft, _from_head, _offset_coefficients, _offset_positions, _to_head, \
    g_vectors, position_grid, quadrature_len, window_box
from .classical_dynamics import TrigPotential, _step_count, flow
from .lattice import LatticeSpec
from .quantization import _CHUNK_BYTES, FiberedDensity


@dataclass
class FiberHamiltonian:
    """H_k = |hbar(k + G)|^2 / 2 + V for the fiber quasimomenta ``k``, shape (n_k, d).

    Only the kinetic diagonal, shape (n_k, (2m+1)^d), depends on k.  The split
    step samples V once on the ``quadrature_len(m)``^d cell grid; the band
    basis reads V's Galerkin matrix on the window (``potential_matrix``).  The
    propagation factors of the last (t, dt) that ``propagate_batch`` was called
    with are kept, since an observation loop advances by the same (t, dt) each
    sample.
    """

    lat: LatticeSpec
    m: int
    k: np.ndarray
    potential: TrigPotential
    hbar: float

    def __post_init__(self):
        d = self.lat.dimension
        self.k = np.atleast_2d(np.asarray(self.k, dtype=float))
        if self.k.shape[1:] != (d,):
            raise ValueError(f"k must have shape (n_k, {d})")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        shifted = g_vectors(self.lat, self.m)[None, :, :] + self.k[:, None, :]
        self.kinetic_diagonal = 0.5 * self.hbar ** 2 * np.sum(shifted * shifted, axis=-1)
        n = quadrature_len(self.m)
        self.potential_values = self.potential.value(position_grid(self.lat, n)) \
            .reshape((n,) * d)
        self._factors = (None, None)

    def potential_matrix(self) -> np.ndarray:
        """V's Galerkin matrix <e_n|V|e_n'> on the window, shape (n_G, n_G), in closed form.

        A term c cos(G_t . x + phi) puts c/2 exp(+i phi) at n - n' = n_t and
        c/2 exp(-i phi) at n - n' = -n_t, so a term with n_t = 0 puts c cos(phi)
        on the diagonal; no grid is sampled.  The entries are read from a table
        over the offsets n' - n (-2m..2m per axis), as the mask's are in
        ``_band_forms``; a term beyond 2m on some axis meets no pair of the
        window.
        """
        d, m = self.lat.dimension, self.m
        table = np.zeros((4 * m + 1,) * d, dtype=complex)
        for n, c, phi in self.potential.terms:
            if max(map(abs, n)) <= 2 * m:
                table[tuple(2 * m - v for v in n)] += 0.5 * c * np.exp(1j * phi)
                table[tuple(2 * m + v for v in n)] += 0.5 * c * np.exp(-1j * phi)
        pos = _offset_positions(m, d)
        return table.reshape(-1)[pos[None, :] - pos[:, None] + table.size // 2]

    def eigenpairs(self):
        """Yield (e, U) fiber by fiber, with H_k = U diag(e) U^* (``numpy.linalg.eigh``).

        At V = 0, U is None, the identity, and e is the kinetic diagonal.
        Otherwise e ascends and the columns of U are orthonormal eigenvectors.
        A fiber's matrix lives only while it is diagonalized, so the generator
        holds no (n_G, n_G) array between fibers: that kept 0.3 MB off the
        peak RSS of potential-1d ``verify``, against one buffer updated in place.
        """
        for kinetic in self.kinetic_diagonal:
            if self.potential.is_zero:
                yield kinetic, None
                continue
            h = self.potential_matrix()
            h[np.diag_indices_from(h)] += kinetic
            pair = np.linalg.eigh(h)
            del h
            yield pair

    def _step_factors(self, t: float, dt: float):
        """The factors of ``propagate_batch`` for (t, dt), computed once per (t, dt).

        (n_steps, half, full, pot): the Strang step count, the half and full
        kinetic phases of step tau = t / n_steps at the head of each axis
        (index n at position n + m, as ``bloch._to_head`` places the
        coefficients) and zero elsewhere, shape (n_k, 1, N, ..., N), and
        exp(-i tau V / hbar) / N^d on the grid: the 1/N^d carries the
        normalization that the inverse FFT leaves out.
        """
        key, factors = self._factors
        if key == (t, dt):
            return factors
        d, nin = self.lat.dimension, 2 * self.m + 1
        n_steps = _step_count(t, dt)
        step = t / n_steps
        half = np.zeros((self.k.shape[0], 1) + self.potential_values.shape, dtype=complex)
        half[(Ellipsis,) + (slice(0, nin),) * d] = np.exp(
            -1j * (0.5 * step) * self.kinetic_diagonal / self.hbar).reshape((-1, 1) + (nin,) * d)
        pot = np.exp(-1j * step * self.potential_values / self.hbar) / self.potential_values.size
        factors = (n_steps, half, half * half, pot)
        self._factors = ((t, dt), factors)
        return factors


def propagate_batch(coeffs: np.ndarray, h: FiberHamiltonian, t: float, dt: float) -> np.ndarray:
    """Advance a (n_k, batch, (2m+1)^d) block of fiber i under H_{k_i} in place; returns it.

    Each Strang step is P e^{-i tau V / hbar} P between kinetic half-steps,
    the factor collocated on the N = ``quadrature_len(m)`` grid per axis and P
    the projection onto the plane-wave window: the Galerkin step up to the
    factor's Fourier tail beyond N - 2m - 1 (N = 2m+1: plain collocation),
    not exactly unitary.  The phases and the factor are set up once per
    (t, dt) (``FiberHamiltonian._step_factors``).  The whole block moves once
    into the head layout of ``bloch._to_head``, the one padded work array of
    the call.  Each step is an inverse FFT within the head, the factor, and a
    forward FFT over the d trailing axes of all fibers and vectors: the ramp
    exp(2 pi i m j / N) of the head layout commutes with the factor, so the
    forward FFT returns the window at the head and aliased content in the
    tail.  The phase multiply that ends the step is zero outside the head,
    which is the projection.  The window is gathered back into ``coeffs`` at
    the end.
    """
    if t == 0.0:
        return coeffs
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps, half, full, pot = h._step_factors(t, dt)
    d, nin = h.lat.dimension, 2 * h.m + 1
    window = coeffs.reshape(coeffs.shape[:2] + (nin,) * d)     # a view: only splits an axis
    head = window_box(nin, d)
    x = _to_head(window, np.empty(window.shape[:2] + pot.shape, dtype=complex), d, head)
    x *= half
    for i in range(n_steps):
        _fft(x, d, inverse=True, box=head)
        x *= pot
        _fft(x, d)
        x *= half if i == n_steps - 1 else full
    _from_head(x, window, d)
    return coeffs


# Price of one flop of a complex matrix product, in flops of an FFT: at the
# window sizes of the band path, products ran at 0.01 ns per flop and Strang
# steps at 0.10-0.11 ns per flop (one thread, n_G = 129 and 353).
_PRODUCT_FLOP = 0.1
# Price of one Hermitian eigendecomposition with vectors, per n_G^3, in flops of
# an FFT: ``numpy.linalg.eigh`` took 0.6-0.9 ns per n_G^3 at n_G = 129 and 353.
_EIGH_FLOPS = 9.0
# Bytes of one complex (rows, W) block of ``_band_forms`` and of the samples
# of ``observation_series``: 16 rows at the largest W, 362, and 32 at W = 191.
# On a support of one run the form path then holds its (W, W) form and at most
# two such blocks, no more than the loop's work block and its transients.
_FORM_BLOCK_BYTES = 96 * 1024


def _form_rows(w: int) -> int:
    """Rows of a (rows, ``w``) complex block of ``_FORM_BLOCK_BYTES``, and at least one."""
    return max(1, _FORM_BLOCK_BYTES // (16 * w))


def _band_path(rho: FiberedDensity, n_support: int, n_samples: int, n_steps: int,
               observed: bool) -> bool:
    """Whether ``observation_series`` (``observed``) or ``evolution`` takes the band path.

    The one path rule: per fiber, the band path must cost less than the loop,
    and its (W, W) matrix, W = ``n_support``, must fit ``_CHUNK_BYTES``
    (W <= 362).  W is the support of the vectors at V = 0, where only the
    observation asks, and n_G otherwise; ``n_steps`` is the Strang steps per
    sample, 0 at V = 0.

    - The loop costs, per vector and sample, ``n_steps`` Strang steps of
      10 P log2 P + 12 P flops (an FFT pair and two complex multiplies) and,
      when ``observed``, one masked trace of 5 P log2 P + 8 P flops (an inverse
      FFT, the squares and the weights), at P = ``quadrature_len(m)``^d points.
    - The band path costs matrix products, at ``_PRODUCT_FLOP`` per flop.
      Observed, it builds the form (8 rank W^2) and evaluates each sample as
      one row times it (8 W^2); otherwise it moves every vector into the band
      basis once (8 rank W^2) and back at each sample (8 rank W^2).  At
      V != 0 it first diagonalizes the fiber (``_EIGH_FLOPS`` W^3) and,
      observed, reads the mask's matrix in the band basis (16 W^3).
    """
    if 16 * n_support ** 2 > _CHUNK_BYTES:
        return False
    p = quadrature_len(rho.m) ** rho.lat.dimension
    log_p, w2, rank = np.log2(p), n_support ** 2, rho.rank
    loop = n_samples * rank * (n_steps * (10 * p * log_p + 12 * p)
                               + observed * (5 * p * log_p + 8 * p))
    band = _PRODUCT_FLOP * 8 * w2 * (n_samples * (1 if observed else rank) + rank)
    if n_steps:
        band += (_EIGH_FLOPS + _PRODUCT_FLOP * 16 * observed) * n_support ** 3
    return band < loop


def _band_forms(rho: FiberedDensity, h: FiberHamiltonian, mask: np.ndarray, horizon: float,
                support: np.ndarray):
    """Yield each fiber's rates e / hbar and masked form in its band basis, on ``support``.

    With (e, U) from ``FiberHamiltonian.eigenpairs``, a_r = U^* v_r and
    p(t) = exp(-i t e / hbar), <v_r(t)| mask |v_r(t)> is
    sum_ab conj(p_a a_ra) K_ab p_b a_rb with K = U^* M U, M_nn' = X(n' - n) the
    mask's matrix (X from ``bloch._offset_coefficients``).  So the fiber's form
    is K o sum_r lambda_r conj(a_r) a_r^T on the W coefficients of ``support``:
    all n_G at V != 0; at V = 0, where U is the identity and K is read from X,
    those nonzero in some vector, since the others stay zero under the phases;
    when they are one run, the form reads the vectors in place.  It is built
    in blocks of ``_form_rows(W)`` rows into one (W, W) buffer that
    every fiber reuses.  Once the caller has read it, the fiber's vectors move
    to ``horizon`` in place, exactly: v_r = U (p(horizon) o a_r).  One fiber's
    eigenvectors are held at a time, and K only until the form is built.
    """
    x = _offset_coefficients(mask.reshape((quadrature_len(rho.m),) * rho.lat.dimension),
                             rho.lat, rho.m)
    w = support.size
    if w and support[-1] - support[0] + 1 == w:
        # one run of coefficients: at V = 0, a is a view of the vectors, not a copy
        support = slice(support[0], support[0] + w)
    # offset n' - n sits at position pos(n') - pos(n) + x.size // 2 of x
    pos = _offset_positions(rho.m, rho.lat.dimension)[support]
    cols = pos + x.size // 2
    form, step = np.empty((w, w), dtype=complex), _form_rows(w)
    for (e, u), lambdas, vectors in zip(h.eigenpairs(), rho.lambdas, rho.vectors):
        if u is None:
            e, a, k = e[support], vectors[:, support], None
        else:
            a = vectors @ np.conj(u)
            k = np.conj(u).T @ (x[cols[None, :] - pos[:, None]] @ u)
        for start in range(0, w, step):
            rows = slice(start, start + step)
            left = np.conj(a[:, rows])
            left *= lambdas[:, None]
            np.matmul(left.T, a, out=form[rows])
            form[rows] *= x[cols[None, :] - pos[rows, None]] if k is None else k[rows]
        del k
        yield e / h.hbar, form
        a *= np.exp(-1j * horizon * e / h.hbar)
        vectors[:, support] = a if u is None else a @ u.T
        del a, u  # before the next fiber's are made


def observation_series(rho: FiberedDensity, mask: np.ndarray, potential: TrigPotential,
                       horizon: float, n_samples: int, dt: float) -> np.ndarray:
    """``rho.masked_trace(mask)`` at the times i horizon / n_samples, i = 0..n_samples.

    On return ``rho.vectors``, the same array, hold the density at
    ``horizon``.  Where ``_band_path`` says so, every sample is u(t)^H A u(t)
    per fiber, A the fiber's Hermitian form in its band basis from
    ``_band_forms`` and u(t) = exp(-i t e / hbar) the phases of its band
    energies e; A lives on the support W of the vectors at V = 0 and on all
    n_G coefficients otherwise.  The samples are evaluated ``_form_rows(W)``
    at a time as one (samples, W) x (W, W) product.  Otherwise the trace is
    read at every yield of ``evolution``, at V = 0 on the support box of the
    vectors, which the phases keep.  Either path builds the run's one
    ``FiberHamiltonian``.
    """
    n_steps = _step_count(horizon / n_samples, dt)  # rejects dt <= 0 at every V
    if potential.is_zero:
        support, n_steps = rho.support(), 0
    else:
        support = np.arange(rho.vectors.shape[-1])
    if not _band_path(rho, support.size, n_samples + 1, n_steps, True):
        box = rho.support_box() if potential.is_zero else None
        return np.array([rho.masked_trace(mask, box)
                         for _ in evolution(rho, potential, horizon, n_samples, dt)])
    h = FiberHamiltonian(rho.lat, rho.m, rho.kgrid.points, potential, rho.hbar)
    times = np.arange(n_samples + 1) * (horizon / n_samples)
    series, step = np.zeros(n_samples + 1), _form_rows(support.size)
    for rates, form in _band_forms(rho, h, mask, horizon, support):
        for start in range(0, times.size, step):
            block = slice(start, start + step)
            conj_u = np.multiply.outer(times[block], 1j * rates)
            np.exp(conj_u, out=conj_u)
            # Re(p u) = Re(p) Re(conj u) + Im(p) Im(conj u), with p = conj(u) A
            p = (conj_u @ form).view(float)
            series[block] += (p[:, None, :] @ conj_u.view(float)[:, :, None])[:, 0, 0]
        del conj_u, p  # before the next fiber's form is built
    return series / rho.kgrid.size


def evolution(rho: FiberedDensity, potential: TrigPotential, horizon: float, n_samples: int,
              dt: float, nodes=None):
    """Yield once at each of the times i horizon / n_samples, i = 0..n_samples, in order.

    At each yield ``rho`` holds the density at that time: between samples
    ``rho.vectors`` are advanced in place under the run's one
    ``FiberHamiltonian``, so callers read what they need of the initial datum
    first.  Given ``nodes = (x, xi)``, each yield is the nodes at that time,
    moved by ``flow`` with the same step; otherwise it is None.

    Each fiber moves in its band basis (``FiberHamiltonian.eigenpairs``): it
    holds a = U^* v, and each sample multiplies a by the one-sample phases
    exp(-i t e / hbar), in one multiply over all fibers, and writes v = U a
    back.  At V = 0, a is ``rho.vectors`` itself, so a sample is one phase
    multiply in place, on the support box of the vectors only
    (``FiberedDensity.support_box``, found once): the phases keep zeros at
    zero, so the box holds at every sample, and the vectors are C-contiguous
    (``FiberedDensity``), so the box is a view of them.  At V != 0 the band
    basis is taken where ``_band_path`` says so (many Strang steps per
    sample, many vectors, a small window); otherwise ``propagate_batch``
    advances the vectors at every sample by Strang steps of at most ``dt``.
    """
    h = FiberHamiltonian(rho.lat, rho.m, rho.kgrid.points, potential, rho.hbar)
    sample_dt = horizon / n_samples
    n_steps = _step_count(sample_dt, dt)  # rejects dt <= 0 at every V
    band = potential.is_zero or _band_path(rho, rho.vectors.shape[-1], n_samples, n_steps, False)
    if band:
        e, u = zip(*h.eigenpairs())
        phases = np.exp(-1j * sample_dt * np.stack(e) / h.hbar)[:, None, :]
        if potential.is_zero:
            within = (Ellipsis,) + rho.support_box()
            a = rho.vectors.reshape(rho.lambdas.shape + rho.coeff_shape)[within]
            phases = phases.reshape(phases.shape[:2] + rho.coeff_shape)[within]
        else:
            a = np.stack([vectors @ np.conj(ui) for vectors, ui in zip(rho.vectors, u)])
    yield nodes
    for _ in range(n_samples):
        if nodes is not None:
            nodes = flow(*nodes, sample_dt, potential, dt)
        if not band:
            propagate_batch(rho.vectors, h, sample_dt, dt)
        else:
            a *= phases
            if not potential.is_zero:
                for ai, ui, vectors in zip(a, u, rho.vectors):
                    np.matmul(ai, ui.T, out=vectors)
        yield nodes
