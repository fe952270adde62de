import numpy as np
import pytest
from scipy.linalg import eigh, expm

from blochlab import KGrid, LatticeSpec, Region, TrigPotential, gamma_bounds, periodic_trace
from blochlab.bloch import _offset_coefficients, _offset_positions, grid_weight, position_grid, \
    quadrature_len
from blochlab.classical_dynamics import _step_count, _verlet_step, flow
from blochlab.quantization import FiberedDensity
from blochlab import quantum_dynamics
from blochlab.quantum_dynamics import FiberHamiltonian, evolution, observation_series, \
    propagate_batch
from blochlab.states import coherent_coeff_batch

from oracles import (CoherentParams, bloch_transform, coherent_family, coherent_state,
                     commutator_residual, cosine_potential, cubic_lattice, galerkin_matrices,
                     galerkin_propagators, periodized_coherent, propagate_batch_rolled,
                     zero_potential)

LATTICES = {"line": [[1.0]], "hexagonal": [[1.0, 0.0], [0.5, 0.8660254037844386]]}


@pytest.fixture(scope="module")
def vpot():
    return cosine_potential(cubic_lattice(1), (1,), 0.1)


def propagate_copy(coeffs, h, t, dt):
    """``propagate_batch`` of a copy of one fiber's coefficients, in their own shape."""
    block = np.array(coeffs, dtype=complex).reshape(1, -1, h.kinetic_diagonal.shape[-1])
    return propagate_batch(block, h, t, dt).reshape(np.shape(coeffs))


def test_free_propagator_exact(lat1):
    # at V = 0 evolution multiplies the plane-wave coefficients by their exact phases
    hbar, m = 0.05, 24
    k = np.array([0.3])
    coeffs = np.zeros(2 * m + 1, dtype=complex)
    coeffs[m + 3] = 1.0                      # single plane wave G = 3 b
    rho = FiberedDensity(KGrid(k[None, :], lat1), lat1, m, hbar, np.ones((1, 1)),
                         coeffs[None, None, :])
    for _ in evolution(rho, zero_potential(lat1), 0.7, 1, 1e-2):
        pass
    out = rho.vectors[0, 0]
    g = 3 * 2 * np.pi
    phase = np.exp(-1j * 0.7 * hbar * (g + k[0]) ** 2 / 2)
    assert out[m + 3] == pytest.approx(phase, abs=1e-14)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_norm_preserved_thousand_steps(lat1, vpot):
    hbar, m = 0.05, 32
    h = FiberHamiltonian(lat1, m, np.array([0.2]), vpot, hbar)
    u = periodized_coherent(CoherentParams([0.0], [0.4], hbar), lat1, m)
    out = propagate_copy(u.coeffs, h, 1.0, 1e-3)    # 1000 strang steps
    assert abs(np.sqrt(np.sum(np.abs(out) ** 2)) - np.sqrt(u.norm_sq)) < 1e-9


@pytest.mark.parametrize("basis, terms, m", [
    ([[1.0]], (((1,), 0.1, 0.0),), 32),
    ([[1.0, 0.0], [0.5, 0.8660254037844386]], (((1, 0), 0.3, 0.2), ((1, -1), 0.2, 0.0)), 8),
    ([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.2, 0.5, 0.8]],
     (((1, 0, 0), 0.3, 0.2), ((0, 1, -1), 0.2, 0.0), ((1, 1, 1), 0.1, 0.5)), 6),
])
def test_propagate_batch_matches_rolled_loop(rng, basis, terms, m):
    # the head layout, pruned inverse and phases precomputed once against a full
    # round trip per step
    lat = LatticeSpec(basis)
    h = FiberHamiltonian(lat, m, [0.3 * lat.reciprocal[0], -0.2 * lat.reciprocal[-1]],
                         TrigPotential(lat, terms), 0.05)
    shape = (2, 3, (2 * m + 1) ** lat.dimension)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = propagate_batch_rolled(coeffs, h, 0.2, 1e-2)
    err = np.max(np.abs(propagate_batch(coeffs, h, 0.2, 1e-2) - ref))
    assert err <= 1e-13 * np.max(np.abs(ref))


def test_propagate_batch_is_the_galerkin_strang_step(rng, lat1):
    # each step is half-kinetic * P exp(-i tau V / hbar) P * half-kinetic, with the
    # potential factor the Toeplitz matrix of its Fourier coefficients on a fine grid
    hbar, m, t, dt = 0.05, 32, 0.2, 1e-2
    pot = TrigPotential(lat1, (((1,), 0.3, 0.2), ((2,), 0.1, 0.0)))
    h = FiberHamiltonian(lat1, m, np.array([0.6 * np.pi]), pot, hbar)
    coeffs = rng.standard_normal((3, 2 * m + 1)) + 1j * rng.standard_normal((3, 2 * m + 1))
    n_steps = int(np.ceil(t / dt))
    tau, fine = t / n_steps, 4097
    factor = np.exp(-1j * tau * pot.value(position_grid(lat1, fine)) / hbar)
    # coefficient n of a function sampled at j/fine - 1/2 is (-1)^n fft_n / fine
    idx = np.arange(-m, m + 1)
    diff = idx[:, None] - idx[None, :]
    toeplitz = np.fft.fft(factor)[diff % fine] / fine * (-1.0) ** diff
    half = np.exp(-0.5j * tau * h.kinetic_diagonal[0] / hbar)
    step = half[:, None] * toeplitz * half[None, :]
    ref = coeffs.T
    for _ in range(n_steps):
        ref = step @ ref
    err = np.max(np.abs(propagate_copy(coeffs, h, t, dt) - ref.T))
    assert err <= 1e-12 * np.max(np.abs(ref))


def test_strang_matches_dense_exponential(lat1, vpot):
    hbar, m = 0.05, 24
    h = FiberHamiltonian(lat1, m, np.array([0.3]), vpot, hbar)
    dense = galerkin_matrices(h)[0]
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)
    u = periodized_coherent(CoherentParams([0.1], [0.2], hbar), lat1, m)
    exact = (expm(-1j * 0.5 * dense / hbar) @ u.coeffs).reshape(u.coeffs.shape)
    approx = propagate_copy(u.coeffs, h, 0.5, 1e-3)
    assert np.max(np.abs(approx - exact)) < 1e-6


def test_strang_second_order(lat1, vpot):
    hbar, m = 0.05, 24
    h = FiberHamiltonian(lat1, m, np.array([0.1]), vpot, hbar)
    dense = galerkin_matrices(h)[0]
    u = periodized_coherent(CoherentParams([0.0], [0.3], hbar), lat1, m)
    exact = (expm(-1j * 0.4 * dense / hbar) @ u.coeffs).reshape(u.coeffs.shape)
    errs = []
    for dt in (4e-3, 2e-3):
        approx = propagate_copy(u.coeffs, h, 0.4, dt)
        errs.append(np.max(np.abs(approx - exact)))
    assert errs[0] / errs[1] >= 3.5


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("free", [False, True])
def test_block_matches_single_fiber_calls_bitwise(lattice, free):
    # one (n_k, batch, n_G) block through one call equals one call per fiber, bit
    # for bit, with and without a potential
    lat = LatticeSpec(LATTICES[lattice])
    d = lat.dimension
    hbar, m = 0.05, (16 if d == 1 else 6)
    potential = zero_potential(lat) if free else cosine_potential(lat, (1,) * d, 0.1, 0.3)
    kg = KGrid.monkhorst_pack(lat, 3 if d == 1 else 2)
    rho = coherent_family(lat, kg, m, hbar, np.zeros(d), np.full(d, 0.2))
    block = np.concatenate([rho.vectors, 1j * rho.vectors[:, :, ::-1]], axis=1)
    norms = np.sum(np.abs(block) ** 2, axis=-1)
    ref = np.concatenate([propagate_batch(block[ik:ik + 1].copy(),
                                          FiberHamiltonian(lat, m, k, potential, hbar), 0.1, 1e-3)
                          for ik, k in enumerate(kg.points)])
    out = propagate_batch(block, FiberHamiltonian(lat, m, kg.points, potential, hbar), 0.1, 1e-3)
    assert out is block
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_allclose(np.sum(np.abs(out) ** 2, axis=-1), norms, rtol=1e-12)


@pytest.mark.parametrize("free", [False, True])
def test_propagate_batch_advances_in_place(lat1, vpot, free):
    # two half-time calls on the same array equal one full-time call on a copy
    hbar, m = 0.05, 16
    kg = KGrid.monkhorst_pack(lat1, 2)
    h = FiberHamiltonian(lat1, m, kg.points, zero_potential(lat1) if free else vpot, hbar)
    vectors = coherent_family(lat1, kg, m, hbar, [0.0], [0.2]).vectors
    before = vectors.copy()
    for _ in range(2):
        assert propagate_batch(vectors, h, 0.05, 1e-2) is vectors
    assert not np.array_equal(vectors, before)
    full = propagate_batch(before.copy(), h, 0.1, 1e-2)
    np.testing.assert_allclose(vectors, full, rtol=0, atol=1e-13)


@pytest.mark.parametrize("free", [False, True])
def test_reused_hamiltonian_matches_a_fresh_one_bitwise(rng, lat1, vpot, free):
    # the factors kept for the last (t, dt) never leak into a call with another t or dt
    hbar, m = 0.05, 16
    kg = KGrid.monkhorst_pack(lat1, 2)
    potential = zero_potential(lat1) if free else vpot
    h = FiberHamiltonian(lat1, m, kg.points, potential, hbar)
    shape = (kg.size, 2, 2 * m + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for t, dt in ((0.05, 1e-2), (0.05, 1e-2), (0.03, 1e-2), (0.05, 1e-2), (0.05, 1e-3),
                  (-0.05, 1e-3), (-0.05, 1e-2), (0.05, 1e-2)):
        fresh = FiberHamiltonian(lat1, m, kg.points, potential, hbar)
        np.testing.assert_array_equal(propagate_batch(coeffs.copy(), h, t, dt),
                                      propagate_batch(coeffs.copy(), fresh, t, dt))


@pytest.mark.parametrize("free", [False, True])
def test_propagate_batch_rejects_a_nonpositive_step(rng, lat1, vpot, free):
    # the same check, in the same order as ``flow``, with and without a potential
    kg = KGrid.monkhorst_pack(lat1, 2)
    h = FiberHamiltonian(lat1, 8, kg.points, zero_potential(lat1) if free else vpot, 0.05)
    coeffs = rng.standard_normal((kg.size, 1, 17)) + 0j
    for dt in (-1.0, 0.0):
        with pytest.raises(ValueError, match="dt must be positive"):
            propagate_batch(coeffs.copy(), h, 0.1, dt)
    assert propagate_batch(coeffs, h, 0.0, -1.0) is coeffs


@pytest.mark.parametrize("band", [False, True])
@pytest.mark.parametrize("free", [False, True])
def test_evolution_and_observation_reject_a_nonpositive_step(monkeypatch, lat1, vpot, free,
                                                             band):
    # the same check as ``propagate_batch`` on either path, also at V = 0,
    # where the vectors move by phases and dt moves nothing
    monkeypatch.setattr(quantum_dynamics, "_band_path", lambda *args: band)
    kg = KGrid.monkhorst_pack(lat1, 2)
    rho = coherent_family(lat1, kg, 8, 0.05, [0.0], [0.2])
    potential = zero_potential(lat1) if free else vpot
    mask = rho.region_mask(Region([[[-0.1], [0.1]]], lat1))
    for dt in (-1.0, 0.0):
        with pytest.raises(ValueError, match="dt must be positive"):
            next(evolution(rho, potential, 0.1, 2, dt))
        with pytest.raises(ValueError, match="dt must be positive"):
            observation_series(rho, mask, potential, 0.1, 2, dt)


def packet_density(lat, m: int, hbar: float, n_k: int, qs, ps) -> FiberedDensity:
    """Fibered density of one packet per node (qs, ps - hbar k) in fiber k, unit weights."""
    kg = KGrid.monkhorst_pack(lat, n_k)
    qs, ps = np.atleast_2d(qs), np.atleast_2d(ps)
    vecs = np.stack([coherent_coeff_batch(qs, ps - hbar * k, hbar, lat, m) for k in kg.points])
    return FiberedDensity(kg, lat, m, hbar, np.ones(vecs.shape[:2]), vecs)


@pytest.mark.parametrize("name, m, hbar", [("line", 64, 0.01), ("hexagonal", 24, 0.03)])
def test_free_evolution_moves_the_support_box_as_the_whole_window(name, m, hbar):
    # at V = 0 each sample multiplies the phases on the support box only: the
    # vectors equal those of the whole-window multiply at every sample (a zero
    # may differ in sign), and the box does not grow
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    rho = packet_density(lat, m, hbar, 2, np.full((3, d), 0.1), [[0.2] * d, [0.5] * d, [-0.3] * d])
    box = rho.support_box()
    assert np.prod([s.stop - s.start for s in box]) < (2 * m + 1) ** d
    vectors, ref = rho.vectors, rho.vectors.copy()
    h = FiberHamiltonian(lat, m, rho.kgrid.points, zero_potential(lat), hbar)
    phases = np.exp(-1j * 0.05 * h.kinetic_diagonal / hbar)[:, None, :]
    for i, _ in enumerate(evolution(rho, zero_potential(lat), 0.2, 4, 1e-2)):
        if i:
            ref *= phases
        assert rho.vectors is vectors
        np.testing.assert_array_equal(rho.vectors, ref)
        assert rho.support_box() == box


def test_fiber_hamiltonian_holds_every_fiber(lat2):
    kg = KGrid.monkhorst_pack(lat2, 2)
    h = FiberHamiltonian(lat2, 4, kg.points, cosine_potential(lat2, (1, 0), 0.1), 0.05)
    assert h.kinetic_diagonal.shape == (4, 81)
    assert h.potential_values.shape == (9, 9)
    with pytest.raises(ValueError):
        FiberHamiltonian(lat2, 4, np.zeros((2, 3)), zero_potential(lat2), 0.05)


def test_self_adjointness_quadratic_form(rng, lat1, vpot):
    hbar, m = 0.05, 20
    h = FiberHamiltonian(lat1, m, np.array([0.4]), vpot, hbar)
    dense = galerkin_matrices(h)[0]
    for _ in range(5):
        u = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
        v = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
        a = np.vdot(u, dense @ v)
        b = np.vdot(v, dense @ u)
        assert a == pytest.approx(np.conj(b), abs=1e-12 * abs(a))


def test_eigenstate_stationary(lat1, vpot):
    hbar, m = 0.05, 24
    kg = KGrid.monkhorst_pack(lat1, 2)
    k = kg.points[0]
    h = FiberHamiltonian(lat1, m, k, vpot, hbar)
    w, vecs = eigh(galerkin_matrices(h)[0])
    ground = vecs[:, 0]
    lam = np.ones((1, 1))
    rho = FiberedDensity(KGrid(k[None, :], lat1), lat1, m, hbar, lam,
                         ground[None, None, :])
    out = propagate_batch(rho.vectors.copy(), h, 0.8, 2e-4)   # splitting error ~ dt^2
    # projector comparison is phase-free
    p_in = np.outer(ground, ground.conj())
    v_out = out[0, 0]
    p_out = np.outer(v_out, v_out.conj())
    assert np.max(np.abs(p_out - p_in)) < 1e-8


def test_evolve_density_trace_and_identity(lat1, vpot):
    hbar, m, nk = 0.05, 32, 4
    kg = KGrid.monkhorst_pack(lat1, nk)
    rho = coherent_family(lat1, kg, m, hbar, [0.0], [0.4])
    h = FiberHamiltonian(lat1, m, kg.points, vpot, hbar)
    np.testing.assert_array_equal(propagate_batch(rho.vectors.copy(), h, 0.0, 1e-3),
                                  rho.vectors)
    # the fiber weights are untouched, so the trace moves only with the vector norms
    out = FiberedDensity(kg, lat1, m, hbar, rho.lambdas,
                         propagate_batch(rho.vectors.copy(), h, 1.0, 1e-3))
    assert abs(periodic_trace(out) - periodic_trace(rho)) < 1e-9


def test_decomposability_whole_space_vs_fiberwise(lat1, vpot):
    # evolving on the real line then taking fibers equals evolving each fiber:
    # whole-space propagation runs split-step on a supercell torus
    hbar, m, nk, l_cut = 0.05, 48, 16, 3
    t, dt = 0.4, 1e-3
    cp = CoherentParams([0.1], [0.8], hbar)
    kg = KGrid.monkhorst_pack(lat1, nk)
    state0 = bloch_transform(lambda p: coherent_state(cp, p), lat1, kg, m, l_cut)

    # fiberwise evolution
    evolved_fibers = propagate_batch(state0.coeffs.reshape(nk, 1, -1).copy(),
                                     FiberHamiltonian(lat1, m, kg.points, vpot, hbar),
                                     t, dt).reshape(state0.coeffs.shape)

    # whole-space split-step on a torus of nk cells, grid anchored on the cell
    # grid so every transform query hits a sample exactly
    n_cell = 2 * m + 1
    n_big = nk * n_cell
    xs = np.arange(n_big) / n_cell - 0.5 - (nk // 2)
    u = coherent_state(cp, xs[:, None])
    freqs = 2 * np.pi * np.fft.fftfreq(n_big, d=1.0 / n_cell)
    vvals = vpot.value(xs[:, None])
    n_steps = int(round(t / dt))
    kin_half = np.exp(-1j * 0.5 * dt * hbar * freqs ** 2 / 2)
    pot_full = np.exp(-1j * dt * vvals / hbar)
    u = np.fft.ifft(np.fft.fft(u) * kin_half)
    for s in range(n_steps):
        u = u * pot_full
        u = np.fft.ifft(np.fft.fft(u) * (kin_half if s == n_steps - 1 else kin_half ** 2))

    def u_interp(pts):
        x = pts[..., 0]
        idx = np.round((x + 0.5 + (nk // 2)) * n_cell).astype(int)
        ok = (idx >= 0) & (idx < n_big)
        out = np.zeros(x.shape, dtype=complex)
        out[ok] = u[idx[ok]]
        return out

    state1 = bloch_transform(u_interp, lat1, kg, m, l_cut, tail_tol=1e-6)
    assert np.max(np.abs(state1.coeffs - evolved_fibers)) < 1e-7


def test_commutator_residuals(lat1, vpot):
    geom = gamma_bounds(lat1)
    hbar = 0.05
    u = periodized_coherent(CoherentParams([0.05], [0.3], hbar), lat1, 64)
    res = commutator_residual(vpot, np.array([0.7]), np.array([0.3]), u, hbar, geom,
                              x_center=np.array([0.2]), lam=1.3)
    assert res.potential_gradient < 1e-8
    assert res.theta_gradient < 1e-8
    assert res.diagonal == 0.0
    assert res.kinetic == 0.0


def test_commutator_constant_potential(lat1):
    geom = gamma_bounds(lat1)
    hbar = 0.05
    u = periodized_coherent(CoherentParams([0.0], [0.2], hbar), lat1, 32)
    vconst = TrigPotential(lat1, (((0,), 2.5, 0.0),))   # constant shift
    res = commutator_residual(vconst, np.zeros(1), np.array([0.1]), u, hbar, geom)
    assert res.potential_gradient < 1e-12


def test_dense_commutator_assembly_oracle(lat1, vpot):
    # assemble both sides of the gradient identity as dense matrices at small m
    hbar, m, xi = 0.07, 24, 0.3
    big = 2 * m + 1
    h = FiberHamiltonian(lat1, m, np.zeros(1), vpot, hbar)
    idx = np.arange(-m, m + 1)
    g = 2 * np.pi * idx
    p2 = np.diag((xi - hbar * g) ** 2).astype(complex)
    vmat = galerkin_matrices(h)[0] - np.diag(h.kinetic_diagonal.reshape(-1))
    lhs = (1j / hbar) * (vmat @ p2 - p2 @ vmat)
    # gradient of V as a dense multiplication operator
    gv = TrigPotential(lat1, (((1,), 0.1 * 2 * np.pi, np.pi / 2),))  # -c G sin = c G cos(+pi/2)
    h2 = FiberHamiltonian(lat1, m, np.zeros(1), gv, hbar)
    gmat = galerkin_matrices(h2)[0] - np.diag(h2.kinetic_diagonal.reshape(-1))
    pdiag = np.diag(xi - hbar * g).astype(complex)
    rhs = pdiag @ gmat + gmat @ pdiag
    # compare on the interior block (the product spills one bandwidth at the edge)
    inner = slice(2, big - 2)
    assert np.max(np.abs((lhs - rhs)[inner, inner])) < 1e-10


def test_step_count_takes_a_whole_quotient_up_to_rounding(lat1, vpot):
    # stability's 20 samples of T = 1.1 at dt = 1e-3: 0.055 / 1e-3 rounds to
    # 55.00000000000001, which is 55 steps of dt, not 56 shorter ones
    t, dt = 1.1 / 20, 1e-3
    assert t / dt > 55
    assert _step_count(t, dt) == 55
    assert _step_count(0.0551, dt) == 56
    assert _step_count(-t, dt) == 55
    assert _step_count(1e-9, dt) == 1
    with pytest.raises(ValueError):
        _step_count(t, 0.0)
    assert FiberHamiltonian(lat1, 8, [[0.1]], vpot, 0.05)._step_factors(t, dt)[0] == 55
    x, xi = np.array([[0.1]]), np.array([[0.7]])
    state = (x, xi, -vpot.gradient(x))
    for _ in range(55):
        state = _verlet_step(*state, t / 55, vpot)
    out = flow(x, xi, t, vpot, dt)
    np.testing.assert_array_equal(out.x, state[0])
    np.testing.assert_array_equal(out.xi, state[1])


# One window per case whose quadrature grid resolves the potential: the grid
# sum gives the exact coefficients when quadrature_len(m) > 2m + bandwidth.
_POTENTIAL_CASES = [
    ([[1.0]], (((1,), 0.3, 0.7),), 64, 0.01),                                   # with a phase
    (LATTICES["hexagonal"], (((1, 0), 0.3, 0.2), ((1, -1), 0.2, 0.0)), 6, 0.05),   # two terms
    ([[1.0]], (((0,), 0.25, 0.4), ((2,), 0.1, 0.0)), 32, 0.02),                  # a constant
]
_POTENTIALS = pytest.mark.parametrize("basis, terms, m, hbar", _POTENTIAL_CASES)


@_POTENTIALS
def test_potential_matrix_is_the_grid_sampled_one(basis, terms, m, hbar):
    # the closed form from the terms equals the Fourier coefficients of V on the
    # quadrature grid, V_nn' = X(n' - n) times the grid weight, and is Hermitian
    lat = LatticeSpec(basis)
    d, n = lat.dimension, quadrature_len(m)
    assert n > 2 * m + max(max(map(abs, t[0])) for t in terms)
    h = FiberHamiltonian(lat, m, np.zeros((1, d)), TrigPotential(lat, terms), hbar)
    x = _offset_coefficients(h.potential_values, lat, m) * grid_weight(lat, n)
    pos = _offset_positions(m, d)
    sampled = x[pos[None, :] - pos[:, None] + x.size // 2]
    closed = h.potential_matrix()
    assert np.max(np.abs(closed - sampled)) <= 1e-14
    np.testing.assert_array_equal(closed, closed.conj().T)
    np.testing.assert_array_equal(closed + np.diag(h.kinetic_diagonal[0]), galerkin_matrices(h)[0])


@pytest.mark.parametrize("basis, terms, m, hbar", _POTENTIAL_CASES + [
    ([[1.0]], (), 64, 0.01),                                                     # V = 0
    (LATTICES["hexagonal"], (), 6, 0.05),
])
def test_band_propagator_is_the_exact_galerkin_flow(monkeypatch, rng, basis, terms, m, hbar):
    # one eigendecomposition per fiber, H_k = U diag(e) U^* (at V = 0 U is the
    # identity and e the kinetic diagonal), and evolution in that basis is the
    # dense exponential of the Galerkin matrix at every sample, unitary to
    # rounding; the phases t e / hbar reach 8.2e2 at t = 1 (line, m = 64)
    lat = LatticeSpec(basis)
    kg = KGrid.monkhorst_pack(lat, 3)
    potential = TrigPotential(lat, terms)
    h = FiberHamiltonian(lat, m, kg.points, potential, hbar)
    pairs = list(h.eigenpairs())
    assert len(pairs) == kg.size
    for (e, u), mat, kinetic in zip(pairs, galerkin_matrices(h), h.kinetic_diagonal):
        if potential.is_zero:
            assert u is None
            np.testing.assert_array_equal(e, kinetic)
        else:
            np.testing.assert_allclose((u * e) @ u.conj().T, mat, rtol=0, atol=1e-12)
    shape = (kg.size, 2, h.kinetic_diagonal.shape[1])
    vectors = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    monkeypatch.setattr(quantum_dynamics, "_band_path", lambda *args: True)
    for horizon in (0.05, 1.0):
        rho = FiberedDensity(kg, lat, m, hbar, np.ones(shape[:2]), vectors.copy())
        samples = evolution(rho, potential, horizon, 2, 1e-2)
        for t, _ in zip((0.0, horizon / 2, horizon), samples):
            exact = vectors @ galerkin_propagators(h, t)
            assert np.max(np.abs(rho.vectors - exact)) <= 1e-12
            assert np.max(np.abs(np.linalg.norm(rho.vectors, axis=-1) - 1.0)) <= 1e-13
