import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochlab import KGrid, LatticeSpec
from blochlab.bloch import (_offset_coefficients, centered_indices, fft_threads, g_vectors,
                            grid_weight, position_grid, quadrature_len, squared_values)

from conftest import LATTICES, coherent_overlap, is_11_smooth
from oracles import (CoherentParams, FiberedState, PeriodicField, bloch_transform,
                     coeffs_to_values_rolled, coherent_state, default_window, dump_csv,
                     inverse_bloch, values_to_coeffs_rolled)


def random_field(rng, lat, m):
    shape = (2 * m + 1,) * lat.dimension
    return PeriodicField(lat, m, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("name, m, batch", [("line", 384, (3, 2)), ("hexagonal", 24, (2, 2)),
                                            ("hexagonal", 8, (3,)), ("skew", 6, (2,))])
def test_squared_values_match_the_squared_grid_values(rng, name, m, batch):
    # padded 1-D (825 points), unpadded hexagonal (49), padded hexagonal (21), padded 3-D (15)
    lat = LatticeSpec(LATTICES[name])
    d, n = lat.dimension, quadrature_len(m)
    shape = batch + (2 * m + 1,) * d
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = np.abs(coeffs_to_values_rolled(coeffs, lat, n)) ** 2
    work = np.full(batch + (n,) * d, np.nan, dtype=complex)     # stale contents are ignored
    sq = squared_values(coeffs, work, d)
    assert sq.shape == batch + (2 * n ** d,)
    got = (sq[..., 0::2] + sq[..., 1::2]) / lat.cell_volume
    np.testing.assert_allclose(got, ref.reshape(batch + (-1,)), rtol=1e-13,
                               atol=1e-13 * np.max(ref))
    with pytest.raises(ValueError):
        squared_values(coeffs, np.empty(batch + (2 * m,) * d, dtype=complex), d)


@pytest.mark.parametrize("name, m, box", [
    ("line", 384, ((300, 420),)),                               # padded: 825 > 769 points
    ("hexagonal", 24, ((5, 22), (30, 48))),                     # unpadded, 17 x 18 off centre
    ("hexagonal", 24, ((0, 49), (48, 49))),                     # one line at the window edge
    ("skew", 6, ((1, 5), (0, 13), (7, 12))),                    # padded 3-D (15 > 13)
    ("skew", 6, ((0, 0),) * 3),                                 # empty: every vector zero
])
def test_squared_values_on_a_box_are_bitwise_those_of_the_window(rng, name, m, box):
    # coefficients that vanish outside the box: transforming only the box's
    # lines gives the whole-window result bit for bit, on any thread count
    lat = LatticeSpec(LATTICES[name])
    d, n, batch = lat.dimension, quadrature_len(m), (3, 2)
    box = tuple(slice(a, b) for a, b in box)
    shape = batch + (2 * m + 1,) * d
    coeffs = np.zeros(shape, dtype=complex)
    inside = coeffs[(Ellipsis,) + box].shape
    coeffs[(Ellipsis,) + box] = rng.standard_normal(inside) + 1j * rng.standard_normal(inside)
    whole = squared_values(coeffs, np.empty(batch + (n,) * d, dtype=complex), d).copy()
    for threads in (1, 2):
        work = np.full(batch + (n,) * d, np.nan, dtype=complex)  # stale contents are ignored
        with fft_threads(threads):
            sq = squared_values(coeffs, work, d, box)
        assert sq.tobytes() == whole.tobytes()
    assert np.any(whole) == np.any(coeffs)


def test_kgrid_points_inside_cell(lat1, lat2):
    for lat, nk in ((lat1, 8), (lat1, 9), (lat2, 4)):
        kg = KGrid.monkhorst_pack(lat, nk)
        frac = kg.points @ np.linalg.inv(lat.reciprocal)
        assert np.all(np.abs(frac) < 0.5)          # shifted off the boundary
        assert kg.size == nk ** lat.dimension
    with pytest.raises(ValueError):
        KGrid(np.zeros((0, 1)), lat1)


def test_fiber_average_linear_in_k_convergence(lat1):
    # mean over the shifted uniform grid reproduces the cell average of a
    # smooth non-periodic function at second order
    errs = []
    for nk in (8, 16, 32):
        kg = KGrid.monkhorst_pack(lat1, nk)
        vals = np.cos(kg.points[:, 0] / 2.0)
        exact = 2 * np.sin(np.pi / 2) / np.pi
        errs.append(abs(np.mean(vals) - exact))
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] > 3.0                  # O(nk^-2)


def test_coeff_value_roundtrip(rng, lat1, lat2):
    for lat, m in ((lat1, 17), (lat2, 5)):
        f = random_field(rng, lat, m)
        v = f.values()
        back = values_to_coeffs_rolled(v, lat, m)
        np.testing.assert_allclose(back, f.coeffs, atol=1e-12)
        # padded evaluation agrees with direct plane-wave summation
        n = 2 * m + 3
        pts = position_grid(lat, n)
        direct = (np.exp(1j * pts @ g_vectors(lat, m).T) @ f.coeffs.reshape(-1)
                  / np.sqrt(lat.cell_volume))
        np.testing.assert_allclose(coeffs_to_values_rolled(f.coeffs, lat, n).reshape(-1),
                                   direct, atol=1e-11)


@st.composite
def skew_transforms(draw):
    """A random skew lattice of dimension 1 to 3, a small order m, an odd grid and a seed."""
    d = draw(st.integers(1, 3))
    diag = draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d))
    off = draw(st.lists(st.floats(-0.8, 0.8), min_size=d * d, max_size=d * d))
    basis = np.tril(np.reshape(off, (d, d)), -1) + np.diag(diag)
    m = draw(st.integers(0, (6, 4, 2)[d - 1]))
    nout = 2 * m + 1 + 2 * draw(st.integers(0, 3))
    batch = tuple(draw(st.lists(st.integers(1, 2), max_size=2)))
    return LatticeSpec(basis), m, nout, batch, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(skew_transforms())
def test_transform_invariants_on_random_skew_lattices(case):
    # the round trip through any grid of at least 2m+1 points returns the
    # coefficients, and squared_values is |v|^2 |cell| on it
    lat, m, nout, batch, seed = case
    rng = np.random.default_rng(seed)
    shape = batch + (2 * m + 1,) * lat.dimension
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals = coeffs_to_values_rolled(coeffs, lat, nout)
    np.testing.assert_allclose(values_to_coeffs_rolled(vals, lat, m), coeffs, rtol=0, atol=1e-12)
    sq = squared_values(coeffs, np.empty(batch + (nout,) * lat.dimension, dtype=complex),
                        lat.dimension)
    ref = (vals.real ** 2 + vals.imag ** 2).reshape(batch + (-1,)) * lat.cell_volume
    np.testing.assert_allclose(sq[..., 0::2] + sq[..., 1::2], ref, rtol=1e-12,
                               atol=1e-12 * np.max(ref))


@pytest.mark.parametrize("name, m, n", [("line", 5, 21), ("line", 5, 27), ("hexagonal", 2, 9),
                                        ("skew", 1, 7)])
def test_offset_coefficients_are_the_offset_sums(rng, name, m, n):
    # batched grid functions on any N >= 4m+1 points per axis: X(D) is the
    # direct sum over the grid of values(y) exp(i G_D . y) / |cell|
    lat = LatticeSpec(LATTICES[name])
    d = lat.dimension
    values = rng.standard_normal((2, 3) + (n,) * d) + 1j * rng.standard_normal((2, 3) + (n,) * d)
    got = _offset_coefficients(values, lat, m)
    phases = np.exp(1j * position_grid(lat, n) @ g_vectors(lat, 2 * m).T)   # (N^d, (4m+1)^d)
    ref = values.reshape(2, 3, -1) @ phases / lat.cell_volume
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_parseval_on_grid(rng, lat1):
    f = random_field(rng, lat1, 12)
    n = 2 * 12 + 1
    quad = float(np.sum(np.abs(f.values()) ** 2)) * grid_weight(lat1, n)
    assert quad == pytest.approx(f.norm_sq, rel=1e-12)


def test_bloch_single_cell_support(lat1):
    # packet supported in one cell: fiber k is u(x) e^{-ikx} on the cell
    m, nk = 24, 6
    kg = KGrid.monkhorst_pack(lat1, nk)

    def u(pts):
        x = pts[..., 0]
        return np.where(np.abs(x) < 0.5, np.cos(np.pi * x) ** 2, 0.0)

    state = bloch_transform(u, lat1, kg, m, l_cut=2)
    pts = position_grid(lat1, 2 * m + 1)
    for i in range(nk):
        expected = u(pts) * np.exp(-1j * pts[:, 0] * kg.points[i, 0])
        got = coeffs_to_values_rolled(state.coeffs[i], lat1, 2 * m + 1)
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_bloch_isometry_random_packets(rng, lat1):
    hbar = 0.05
    m, nk = 48, 16
    kg = KGrid.monkhorst_pack(lat1, nk)
    l_cut = default_window(lat1, hbar, 0.5)
    for _ in range(10):
        qs = rng.uniform(-0.4, 0.4, (3, 1))
        ps = rng.uniform(-1.0, 1.0, (3, 1))
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        packets = [CoherentParams(qs[i], ps[i], hbar) for i in range(3)]

        def u(pts):
            return sum(a * coherent_state(c, pts) for a, c in zip(amps, packets))

        state = bloch_transform(u, lat1, kg, m, l_cut)
        avg = np.mean(state.fiber_norms_sq())
        norm = sum((np.conj(amps[i]) * amps[j]
                    * coherent_overlap(qs[i], ps[i], qs[j], ps[j], hbar)).real
                   for i in range(3) for j in range(3))
        assert abs(avg - norm) <= 1e-10 * norm


def test_bloch_roundtrip_and_isometry_at_the_acceptance_sizes(rng, lat1):
    # hbar = 1e-3, m = 384, n_k = 32: superpositions of packets up to 0.4 from the
    # cell centre keep more than 1e-20 of their mass on the shell l = 1, so the
    # default window is two shells
    hbar, m, nk = 1e-3, 384, 32
    kg = KGrid.monkhorst_pack(lat1, nk)
    l_cut = default_window(lat1, hbar, 0.5)
    assert l_cut == 2
    shifts = lat1.lattice_vector(centered_indices(l_cut, 1))
    pts = position_grid(lat1, 2 * m + 1)[None, :, :] + shifts[:, None, :]
    for _ in range(5):
        qs = rng.uniform(-0.4, 0.4, (3, 1))
        ps = rng.uniform(-0.8, 0.8, (3, 1))
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        packets = [CoherentParams(qs[i], ps[i], hbar) for i in range(3)]

        def u(x):
            return sum(a * coherent_state(c, x) for a, c in zip(amps, packets))

        state = bloch_transform(u, lat1, kg, m, l_cut)
        norm = sum((np.conj(amps[i]) * amps[j]
                    * coherent_overlap(qs[i], ps[i], qs[j], ps[j], hbar)).real
                   for i in range(3) for j in range(3))
        assert abs(np.mean(state.fiber_norms_sq()) - norm) <= 1e-10 * norm
        back = inverse_bloch(state, l_cut).reshape(pts.shape[:-1])
        assert np.max(np.abs(back - u(pts))) <= 1e-8


def test_bloch_tail_error(lat1):
    cp = CoherentParams([0.0], [0.0], 0.5)
    kg = KGrid.monkhorst_pack(lat1, 4)
    with pytest.raises(ValueError, match="too small"):
        bloch_transform(lambda pts: coherent_state(cp, pts), lat1, kg, 16, l_cut=1)


def test_inverse_bloch_roundtrip_gaussian(lat1):
    # oracle: direct evaluation of the inversion average on the window grid
    hbar = 0.05
    m, nk, l_cut = 64, 32, 3
    cp = CoherentParams([0.0], [1.0], hbar)
    kg = KGrid.monkhorst_pack(lat1, nk)
    state = bloch_transform(lambda p: coherent_state(cp, p), lat1, kg, m, l_cut)
    back = inverse_bloch(state, l_cut)
    shifts = lat1.lattice_vector(centered_indices(l_cut, 1))
    pts = position_grid(lat1, 2 * m + 1)[None, :, :] + shifts[:, None, :]
    ref = coherent_state(cp, pts)
    assert np.max(np.abs(back.reshape(ref.shape) - ref)) < 1e-8


def test_inverse_bloch_single_fiber(lat1, rng):
    # one k-point at the grid center: inversion must return the periodic field
    kg = KGrid.monkhorst_pack(lat1, 1)
    m = 8
    f = random_field(rng, lat1, m)
    state_coeffs = f.coeffs[None, ...]
    st = FiberedState(kg, lat1, m, state_coeffs)
    vals = inverse_bloch(st, l_cut=0)[0]
    k = kg.points[0]
    pts = position_grid(lat1, 2 * m + 1)
    expected = coeffs_to_values_rolled(f.coeffs, lat1, 2 * m + 1) * np.exp(1j * pts[:, 0] * k[0])
    np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_quasi_periodicity_contract(lat1):
    # fibers at k and k + K agree after the unit-cell phase twist
    hbar, m, l_cut = 0.05, 48, 3
    cp = CoherentParams([0.2], [0.4], hbar)
    k0 = np.array([[0.7]])
    big_k = lat1.reciprocal[0]
    kg1 = KGrid(k0, lat1)
    state1 = bloch_transform(lambda p: coherent_state(cp, p), lat1, kg1, m, l_cut)
    # k + K lies outside the cell; evaluate the transform there directly
    x = position_grid(lat1, 2 * m + 1)
    shifts = lat1.lattice_vector(centered_indices(l_cut, 1))
    pts = x[None, :, :] + shifts[:, None, :]
    uvals = coherent_state(cp, pts)
    k2 = k0[0] + big_k
    fiber2 = np.einsum("w,wg->g", np.exp(-1j * shifts @ k2), uvals) \
        * np.exp(-1j * x @ k2)
    fiber1_vals = coeffs_to_values_rolled(state1.coeffs[0], lat1, 2 * m + 1)
    twist = np.exp(-1j * x @ big_k)
    np.testing.assert_allclose(fiber2, twist * fiber1_vals, atol=1e-10)


def test_periodic_multiplication_commutes(rng, lat1):
    # multiplying by a lattice-periodic function before or after the transform
    hbar, m, nk, l_cut = 0.05, 48, 8, 3
    cp = CoherentParams([0.0], [0.5], hbar)
    kg = KGrid.monkhorst_pack(lat1, nk)

    def w(pts):
        return 1.0 + 0.3 * np.cos(2 * np.pi * pts[..., 0])

    s_after = bloch_transform(lambda p: w(p) * coherent_state(cp, p), lat1, kg, m, l_cut)
    s_before = bloch_transform(lambda p: coherent_state(cp, p), lat1, kg, m, l_cut)
    pts = position_grid(lat1, 2 * m + 1)
    for i in range(nk):
        lhs = coeffs_to_values_rolled(s_after.coeffs[i], lat1, 2 * m + 1)
        rhs = w(pts) * coeffs_to_values_rolled(s_before.coeffs[i], lat1, 2 * m + 1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_fiber_composition_identity(rng, lat1):
    # fiberwise products compose associatively in the discrete representation
    m, nk = 6, 4
    kg = KGrid.monkhorst_pack(lat1, nk)
    n_g = 2 * m + 1
    a = rng.standard_normal((nk, n_g, n_g)) + 1j * rng.standard_normal((nk, n_g, n_g))
    b = rng.standard_normal((nk, n_g, n_g)) + 1j * rng.standard_normal((nk, n_g, n_g))
    u = rng.standard_normal((nk, n_g)) + 1j * rng.standard_normal((nk, n_g))
    for i in range(nk):
        left = (a[i] @ b[i]) @ u[i]
        right = a[i] @ (b[i] @ u[i])
        np.testing.assert_allclose(left, right, atol=1e-12 * np.abs(left).max())


def test_fibered_state_csv_dump(tmp_path, rng, lat1):
    kg = KGrid.monkhorst_pack(lat1, 2)
    coeffs = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    st = FiberedState(kg, lat1, 2, coeffs)
    path = tmp_path / "state.csv"
    dump_csv(st, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k_index,g_index,re,im"
    assert len(lines) == 1 + 2 * 5
    k, g, re, im = lines[3].split(",")
    assert complex(float(re), float(im)) == pytest.approx(coeffs[int(k), int(g)])


def test_quadrature_len_is_the_least_odd_11_smooth_length():
    for m in range(601):
        n = quadrature_len(m)
        assert n % 2 == 1 and n >= 2 * m + 1 and is_11_smooth(n)
        assert not any(is_11_smooth(j) for j in range(2 * m + 1, n, 2))
    assert (quadrature_len(384), quadrature_len(64), quadrature_len(24)) == (825, 135, 49)
