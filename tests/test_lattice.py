import numpy as np
import pytest
from scipy.integrate import quad

from blochlab import LatticeSpec, Region, gamma_bounds, reduce_to_cell, theta
from blochlab.bloch import position_grid
from conftest import LATTICES
from oracles import cubic_lattice, interval_region, region_contains_unpruned, \
    theta_cost_weights, theta_cost_weights_zero_started


def test_reciprocal_duality(lat1, lat2):
    for lat in (lat1, lat2, LatticeSpec([[1.0, 0.2], [0.0, 0.8]])):
        prod = lat.reciprocal @ lat.basis.T
        np.testing.assert_allclose(prod, 2 * np.pi * np.eye(lat.dimension),
                                   rtol=1e-12, atol=1e-12)
        # computed once with the lattice and shared by every caller, so read-only
        assert lat.cell_volume == abs(np.linalg.det(lat.basis))
        assert not lat.reciprocal.flags.writeable and not lat.inverse_basis.flags.writeable


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        LatticeSpec([[1.0, 1.0], [1.0, 1.0]])


def test_project_examples(lat1, lat2):
    np.testing.assert_allclose(reduce_to_cell(np.array([0.7]), lat1), [-0.3])
    np.testing.assert_allclose(reduce_to_cell(np.array([0.0]), lat1), [0.0])
    np.testing.assert_allclose(reduce_to_cell(np.array([0.6, -0.7]), lat2), [-0.4, 0.3],
                               atol=1e-15)
    np.testing.assert_allclose(reduce_to_cell(np.array([[0.7], [-1.2]]), lat1), [[-0.3], [-0.2]])


def test_project_boundary_ties(lat1):
    # +1/2 wraps down to -1/2: deterministic half-open convention
    np.testing.assert_allclose(reduce_to_cell(np.array([0.5]), lat1), [-0.5])
    np.testing.assert_allclose(reduce_to_cell(np.array([-0.5]), lat1), [-0.5])


def test_project_lattice_membership(rng, lat2):
    z = rng.uniform(-7, 7, size=(10_000, 2))
    p = reduce_to_cell(z, lat2)
    frac = (z - p) @ lat2.inverse_basis
    assert np.max(np.abs(frac - np.round(frac))) < 1e-9
    t = p @ lat2.inverse_basis
    assert np.all(t >= -0.5) and np.all(t < 0.5)


def test_project_odd_symmetry(rng, lat2):
    z = rng.uniform(-3, 3, size=(3000, 2))
    t = z @ lat2.inverse_basis
    off = np.min(np.abs(np.abs(t + 0.5) % 1.0), axis=1) > 1e-3  # off the boundary set
    z = z[off]
    np.testing.assert_allclose(reduce_to_cell(-z, lat2), -reduce_to_cell(z, lat2), atol=1e-12)


def test_projection_contracts(rng, lat2):
    x = rng.uniform(-2, 2, size=(2000, 2))
    y = rng.uniform(-2, 2, size=(2000, 2))
    red = reduce_to_cell(x - y, lat2)
    assert np.all(np.linalg.norm(red, axis=1)
                  <= np.linalg.norm(x - y, axis=1) + 1e-12)


def test_gamma_bounds_examples(lat1, lat2):
    g1 = gamma_bounds(lat1)
    assert g1.gamma_minus == pytest.approx(0.5, abs=1e-12)
    assert g1.gamma_plus == pytest.approx(0.5, abs=1e-12)
    g2 = gamma_bounds(lat2)
    assert g2.gamma_minus == pytest.approx(0.5, abs=1e-12)
    assert g2.gamma_plus == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
    gs = gamma_bounds(cubic_lattice(1, 2.0))
    assert gs.gamma_minus == pytest.approx(1.0, abs=1e-12)
    assert gs.gamma_plus == pytest.approx(1.0, abs=1e-12)


def test_gamma_bounds_skew_brute_force():
    lat = LatticeSpec([[1.0, 0.0], [0.4, 0.9]])
    g = gamma_bounds(lat)
    # independent oracle: very dense boundary scan
    t = np.linspace(-0.5, 0.5, 4001)
    pts = []
    for s in (-0.5, 0.5):
        pts.append(np.stack([np.full_like(t, s), t], axis=1))
        pts.append(np.stack([t, np.full_like(t, s)], axis=1))
    bd = np.concatenate(pts) @ lat.basis
    r = np.linalg.norm(bd, axis=1)
    assert g.gamma_minus == pytest.approx(r.min(), rel=1e-4)
    assert g.gamma_plus == pytest.approx(r.max(), rel=1e-12)


def test_gamma_minus_exact_on_skew_3d_cell():
    # the nearest face of this cell is t_3 = +-1/2: a_3 has height 0.8 over
    # the plane of a_1, a_2, so the inradius is 0.4
    g = gamma_bounds(LatticeSpec([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.2, 0.5, 0.8]]))
    assert g.gamma_minus == pytest.approx(0.4, abs=1e-12)


def test_theta_values(geom1):
    assert theta(0.0, geom1) == 0.0
    # oracle: adaptive quadrature of the defining integrand
    for r in (0.5, 2.0, 0.3, 0.05):
        ref = quad(lambda s: max(0.0, 1.0 - s / geom1.gamma_minus), 0.0, r)[0]
        assert theta(r, geom1) == pytest.approx(ref, abs=1e-12)
    assert theta(0.5, geom1) == pytest.approx(0.25, abs=1e-14)
    assert theta(2.0, geom1) == pytest.approx(0.25, abs=1e-14)


def test_theta_domain_error(geom1):
    with pytest.raises(ValueError):
        theta(-0.1, geom1)


@pytest.mark.parametrize("dim", [1, 2])
def test_theta_equivalence_bounds(dim, geom1, geom2):
    geom = geom1 if dim == 1 else geom2
    r = np.linspace(0.0, geom.gamma_plus ** 2, 500)
    th = theta(r, geom)
    assert np.all(np.diff(th) >= -1e-15)          # nondecreasing
    assert np.all(th <= r + 1e-15)
    lower = geom.gamma_minus / (2 * geom.gamma_plus) * r
    assert np.all(th >= lower - 1e-12)


def test_theta_cost_weights_match_pointwise(rng, lat2, geom2):
    xs = rng.uniform(-1, 1, size=(5, 2))
    ys = rng.uniform(-1, 1, size=(7, 2))
    w = theta_cost_weights(xs, ys, geom2)
    for i in range(5):
        for j in range(7):
            r2 = float(np.sum(reduce_to_cell(xs[i] - ys[j], lat2) ** 2))
            assert w[i, j] == pytest.approx(float(theta(r2, geom2)), abs=1e-14)


@pytest.mark.parametrize("name", ["hexagonal", "skew"])
def test_theta_cost_weights_match_the_cell_reduction(rng, name):
    lat = LatticeSpec(LATTICES[name])
    geom = gamma_bounds(lat)
    xs = rng.uniform(-1.5, 1.5, size=(9, lat.dimension))
    ys = rng.uniform(-1.5, 1.5, size=(40, lat.dimension))
    red = reduce_to_cell(xs[:, None, :] - ys[None, :, :], lat)
    ref = theta(np.sum(red * red, axis=-1), geom)
    np.testing.assert_allclose(theta_cost_weights(xs, ys, geom), ref, rtol=0, atol=1e-15)


def test_theta_cost_weights_on_the_line_equal_the_cartesian_form_bitwise(rng, lat1, geom1):
    xs = rng.uniform(-2.0, 2.0, size=(7, 1))
    ys = position_grid(lat1, 45)
    red = reduce_to_cell(xs[:, None, :] - ys[None, :, :], lat1)
    np.testing.assert_array_equal(theta_cost_weights(xs, ys, geom1),
                                  theta(np.sum(red * red, axis=-1), geom1))


def test_theta_cost_weights_follow_the_floor_rule_at_half_cell_ties():
    # x = y + (1/2, 0.085) in fractional coordinates, each coordinate of x nudged by up
    # to 2 ulps; at every exact tie the representative is s = t - floor(t + 1/2) = -1/2,
    # whichever way a Cartesian difference x - y would have rounded
    lat = LatticeSpec(LATTICES["hexagonal"])
    geom = gamma_bounds(lat)
    ys = position_grid(lat, 9)
    ty = ys @ lat.inverse_basis
    nudge = np.arange(-2, 3)
    steps = np.stack(np.meshgrid(nudge, nudge, indexing="ij"), axis=-1).reshape(-1, 2)
    base = lat.from_fractional(ty + np.array([0.5, 0.085]))
    xs = (base[:, None, :] + steps[None] * np.spacing(base)[:, None, :]).reshape(-1, 2)
    owner = np.repeat(np.arange(len(ys)), len(steps))
    frac = xs @ lat.inverse_basis - ty[owner]
    tie = np.flatnonzero(frac[:, 0] == 0.5)
    assert np.all(np.abs(frac[tie, 1] - 0.085) < 1e-15)
    # ties that the Cartesian round trip breaks towards +1/2 are among them
    cartesian = reduce_to_cell(xs[tie] - ys[owner[tie]], lat) @ lat.inverse_basis
    assert np.any(cartesian[:, 0] > 0.0)
    rep = frac[tie] - np.array([1.0, 0.0])
    ref = theta(np.einsum("ni,ij,nj->n", rep, lat.basis @ lat.basis.T, rep), geom)
    got = theta_cost_weights(xs, ys, geom)[tie, owner[tie]]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
    other = rep + np.array([1.0, 0.0])
    assert np.all(np.abs(got - theta(np.einsum("ni,ij,nj->n", other, lat.basis @ lat.basis.T,
                                                    other), geom)) > 0.03)


@pytest.mark.parametrize("name", ["line", "hexagonal", "skew"])
def test_theta_cost_weights_equal_the_zero_started_sum_bitwise(rng, name):
    lat = LatticeSpec(1.3 * np.array(LATTICES[name]))     # a Gram matrix without unit entries
    geom = gamma_bounds(lat)
    xs = rng.uniform(-1.5, 1.5, size=(11, lat.dimension)) @ lat.basis
    ys = position_grid(lat, 9)
    assert theta_cost_weights(xs, ys, geom).tobytes() == \
        theta_cost_weights_zero_started(xs, ys, geom).tobytes()


def test_theta_cost_weights_equal_the_zero_started_sum_at_half_cell_ties():
    # the cell-2d pairs at t = 0: its 12^2 position nodes against its 49^2
    # quadrature grid on the hexagonal cell, among them exact half-cell ties at
    # which theta depends on the floor rule
    lat = LatticeSpec(LATTICES["hexagonal"])
    geom = gamma_bounds(lat)
    xs, ys = position_grid(lat, 12), position_grid(lat, 49)
    frac = np.subtract.outer(xs @ lat.inverse_basis, ys @ lat.inverse_basis)
    frac = np.stack([frac[:, 0, :, 0], frac[:, 1, :, 1]], axis=-1)
    tie = np.any(np.abs(frac) == 0.5, axis=-1)
    assert np.count_nonzero(tie) > 1000
    got = theta_cost_weights(xs, ys, geom)
    assert got.tobytes() == theta_cost_weights_zero_started(xs, ys, geom).tobytes()
    # the other rule, s = t - ceil(t - 1/2), moves theta at those ties
    other = frac - np.ceil(frac - 0.5)
    r2 = np.einsum("xyi,ij,xyj->xy", other, lat.basis @ lat.basis.T, other)
    assert np.max(np.abs(theta(r2, geom) - got)[tie]) > 0.06


def test_region_membership_and_wrap(lat1):
    reg = interval_region([0.4], [0.6], lat1)  # spills past the cell edge
    assert reg.contains(np.array([[0.45]]))[0]
    assert reg.contains(np.array([[-0.45]]))[0]   # wraps to 0.55
    assert not reg.contains(np.array([[0.0]]))[0]


def test_region_distance_periodic(lat1):
    reg = interval_region([-0.1], [0.1], lat1)
    assert reg.distance(np.array([[0.05]]))[0] == 0.0
    assert reg.distance(np.array([[0.3]]))[0] == pytest.approx(0.2, abs=1e-12)
    assert reg.distance(np.array([[0.45]]))[0] == pytest.approx(0.35, abs=1e-12)
    # wrap side: distance through the cell boundary
    assert reg.distance(np.array([[-0.48]]))[0] == pytest.approx(0.38, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_region_membership_of_far_translates(rng, dim):
    # membership and distance see the cell representative of any point of R^d,
    # however many cells away it lies
    if dim == 1:
        lat = cubic_lattice(1)
        reg = interval_region([-0.1], [0.1], lat)
        assert reg.contains(np.array([[2.0]]))[0]
        assert reg.distance(np.array([[5.0]]))[0] == 0.0
        assert reg.distance(np.array([[-6.7]]))[0] == pytest.approx(0.2, abs=1e-12)
        shifts = np.array([[3], [-17], [250]])
    else:
        lat = LatticeSpec([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])     # hexagonal
        reg = Region([[[-0.5, -0.1], [0.5, 0.1]]], lat)
        shifts = np.array([[3, -2], [-17, 9], [40, 250]])
    pts = lat.from_fractional(rng.uniform(-0.5, 0.5, size=(200, dim)))
    inside, dist = reg.contains(pts), reg.distance(pts)
    assert inside.any() and not inside.all()
    for n in shifts:
        far = pts + lat.lattice_vector(n)
        np.testing.assert_array_equal(reg.contains(far), inside)
        np.testing.assert_allclose(reg.distance(far), dist, rtol=0, atol=1e-12)


SQRT3_2 = np.sqrt(3.0) / 2.0
CELLS = {
    # a box inside the cell, one that spills over a cell face, and one on a
    # cell face (1-D) or as wide as the cell along one axis (2-D)
    "line": ([[1.0]], [[[-0.1], [0.1]], [[0.4], [0.62]], [[-0.5], [-0.35]]]),
    "square": (np.eye(2), [[[-0.1, -0.2], [0.1, 0.2]], [[0.35, -0.55], [0.6, -0.3]],
                           [[-0.5, -0.05], [0.5, 0.05]]]),
    "hexagonal": ([[1.0, 0.0], [0.5, SQRT3_2]], [[[-0.5, -0.1], [0.5, 0.1]],
                                                 [[0.1, 0.3], [0.5, 0.5]],
                                                 [[-0.8, -0.05], [-0.6, 0.05]]]),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_region_membership_equals_the_all_translates_loop(rng, cell):
    # only the translates whose box can meet the cell are tested, with the
    # answer of all 3^d, at random points, on box edges and on cell faces
    basis, boxes = CELLS[cell]
    lat = LatticeSpec(basis)
    d = lat.dimension
    reg = Region(boxes, lat)
    pts = [lat.from_fractional(rng.uniform(-0.5, 0.5, size=(400, d)))]
    for lo, hi in reg.boxes:
        inner = rng.uniform(lo, hi, size=(20, d))
        for axis in range(d):
            for edge in (lo[axis], hi[axis]):
                p = inner.copy()
                p[:, axis] = edge
                pts.append(p)
        corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, d)
        pts.append(corners)
    for axis in range(d):
        for face in (-0.5, 0.5):
            t = rng.uniform(-0.5, 0.5, size=(20, d))
            t[:, axis] = face
            pts.append(lat.from_fractional(t))
    pts = np.concatenate(pts)
    pts = np.concatenate([pts, pts + lat.lattice_vector(rng.integers(-3, 4, size=pts.shape))])
    inside = reg.contains(pts)
    assert inside.any() and not inside.all()
    np.testing.assert_array_equal(inside, region_contains_unpruned(reg, pts))


@pytest.mark.parametrize("dim", [1, 2])
def test_region_distance_sees_translates_outside_the_cell(dim):
    # the box [0.3, 0.45) moved back by one lattice vector lies wholly outside the
    # cell, yet it is the nearest translate to a point near the face x = -1/2
    lat = cubic_lattice(dim)
    lo, hi = np.full(dim, -0.1), np.full(dim, 0.1)
    lo[0], hi[0] = 0.3, 0.45
    reg = Region([[lo, hi]], lat)
    point = np.zeros((1, dim))
    point[0, 0] = -0.45
    assert not reg.contains(point)[0]
    assert reg.distance(point)[0] == pytest.approx(0.1, abs=1e-12)
    assert reg.contains_dilated(point, 0.11)[0]


def test_region_distance_reads_a_box_outside_the_cell_as_its_cell_translate():
    # [1.4, 1.5) is [0.4, 0.5) + 1, the same periodic region: -0.45 is 0.05 from
    # it (at 0.55 - 1), not 0.85, and its dilated mask on a grid is the same
    lat = cubic_lattice(1)
    far, near = Region([[[1.4], [1.5]]], lat), Region([[[0.4], [0.5]]], lat)
    point = np.array([[-0.45]])
    assert far.distance(point)[0] == near.distance(point)[0] == pytest.approx(0.05, abs=1e-12)
    grid = position_grid(lat, 101)
    np.testing.assert_array_equal(far.contains_dilated(grid, 0.07),
                                  near.contains_dilated(grid, 0.07))
    assert far.contains_dilated(point, 0.07)[0]


@pytest.mark.parametrize("boxes", [
    [[[0.1], [-0.1]]],                        # inverted
    [[[0.1], [0.1]]],                         # empty
    [[[-0.1, 0.2], [0.1, -0.2]]],             # inverted on the second axis only
    [[[-0.2], [-0.1]], [[0.3], [0.2]]],       # a good box next to an inverted one
])
def test_region_rejects_boxes_without_lo_below_hi(lat1, lat2, boxes):
    # an inverted box contains no point, yet its distance clipped to one corner,
    # so its dilation observed a ball around that corner
    lat = lat1 if len(boxes[0][0]) == 1 else lat2
    with pytest.raises(ValueError, match="lo < hi"):
        Region(boxes, lat)
