import math

import numpy as np
import pytest

from nlgeom import fields, flow, rate
from nlgeom.fields import (
    AxisBox,
    Ball,
    Box,
    FieldDomainError,
    GridField,
    Halfspace,
    rasterize,
    superlevel,
)


@pytest.fixture
def unit_box():
    return Box.cube(1.0, 64)


def test_rasterize_ball_cell_count(unit_box):
    # area-count oracle: pi * 0.25 / (2/64)^2 ~ 804
    ind = rasterize(Ball((0.0, 0.0), 0.5), unit_box)
    assert ind.tag == "indicator"
    count = int(ind.values.sum())
    assert 804 - 40 <= count <= 804 + 40


def test_rasterize_halfspace_exact_half(unit_box):
    ind = rasterize(Halfspace((1.0, 0.0), 0.0), unit_box)
    assert ind.values.sum() == 64 * 64 / 2


def test_rasterize_empty(unit_box):
    # a ball outside the box covers no cell center
    assert rasterize(Ball((5.0, 5.0), 0.5), unit_box).values.sum() == 0.0


@pytest.mark.parametrize("normal", [(0.3, -0.7), (1.0, 0.0), (0.2, -0.9)])
def test_halfspace_phi_rounds_a_point_the_same_alone_and_in_a_batch(normal):
    # a point within an ulp of the plane must not change sides with the
    # way it is evaluated
    hs = Halfspace(normal, 0.1)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (20000, len(normal)))
    single = np.array([hs.phi(p) for p in x])
    assert np.array_equal(hs.phi(x), single)
    assert np.array_equal(hs.phi(x.reshape(100, 200, -1)), single.reshape(100, 200))


def test_axis_box_contains_the_open_box():
    # the level function is the inner margin, positive exactly where
    # lo < x < hi: inside, outside, on the edges and at the corners
    box = AxisBox((-0.3, -0.2), (0.5, 0.4))
    edges = [[-0.3, 0.0], [0.5, 0.0], [0.0, -0.2], [0.0, 0.4], [-0.3, -0.2], [0.5, 0.4]]
    x = np.concatenate([np.random.default_rng(5).uniform(-1.0, 1.0, (20000, 2)), edges])
    want = np.all((x > box.lo) & (x < box.hi), axis=1)
    assert np.array_equal(box.contains(x), want)
    assert 0 < np.count_nonzero(want) < len(x) - len(edges)


def test_superlevel_monotone_and_extremes(unit_box):
    phi = GridField(unit_box, np.sqrt(np.sum(unit_box.centers() ** 2, axis=-1)) - 0.5)
    full = superlevel(phi, phi.values.min() - 1.0)
    none = superlevel(phi, phi.values.max() + 1.0)
    assert np.count_nonzero(full.values) == 64 * 64
    assert np.count_nonzero(none.values) == 0
    lo = superlevel(phi, 0.0)
    hi = superlevel(phi, 0.2)
    assert np.count_nonzero(hi.values) <= np.count_nonzero(lo.values)
    # cells of the higher level are a subset of the lower level's
    assert np.all(hi.values <= lo.values)


def test_superlevel_is_disk_complement(unit_box):
    phi = GridField(unit_box, np.sqrt(np.sum(unit_box.centers() ** 2, axis=-1)) - 0.5)
    sup = superlevel(phi, 0.0)
    oracle = 1.0 - rasterize(Ball((0, 0), 0.5), unit_box).values
    assert np.array_equal(sup.values, oracle)


def test_superlevel_membership_is_nonstrict():
    box = Box((0.0,) * 2, (1.0,) * 2, (4, 4))
    f = GridField(box, np.full((4, 4), 0.25))
    assert np.count_nonzero(superlevel(f, 0.25).values) == 16


def test_grid_file_round_trip(tmp_path, unit_box):
    rng = np.random.default_rng(7)
    f = GridField(unit_box, rng.standard_normal(unit_box.resolution),
                  tag="level-set", outside=-0.25)
    path = tmp_path / "field.grid"
    fields.save_field(f, path)
    back = fields.load_field(path)
    assert back.box == f.box
    assert back.tag == f.tag and back.outside == f.outside
    assert np.array_equal(back.values, f.values)


def test_ball_boundary_sample_measure_and_normals():
    b = Ball((0.2, -0.1), 0.5)
    bs = b.boundary_sample(128)
    assert bs.weights.sum() == pytest.approx(math.pi, rel=1e-12)
    # inner normals point back toward the center
    toward = np.einsum("ij,ij->i", bs.normals, bs.points - np.array([0.2, -0.1]))
    assert np.allclose(toward, -0.5, atol=1e-12)


def test_grid_field_validation(unit_box):
    with pytest.raises(FieldDomainError):
        GridField(unit_box, np.ones((3, 3)))
    with pytest.raises(FieldDomainError):
        GridField(unit_box, 0.5 * np.ones(unit_box.resolution), tag="indicator")
    with pytest.raises(FieldDomainError):
        GridField(unit_box, 2.0 * np.ones(unit_box.resolution), tag="phase")
    with pytest.raises(FieldDomainError):
        Box((0, 0), (1, 1), (2, 2))  # too coarse


@pytest.mark.parametrize("make", [
    lambda: Box((math.nan, 0.0), (1.0, 1.0), (8, 8)),
    lambda: Box((0.0, -math.inf), (1.0, 1.0), (8, 8)),
    lambda: Box((0.0, 0.0), (math.nan, 1.0), (8, 8)),
    lambda: Box((0.0, 0.0), (1.0, math.inf), (8, 8)),
    lambda: Box.cube(math.nan, 8),
    lambda: Box.cube(math.inf, 8),
    lambda: Ball((math.nan, 0.0), 0.5),
    lambda: Ball((0.0, math.inf), 0.5),
    lambda: Ball((0.0, 0.0), math.nan),
], ids=["origin-nan", "origin-inf", "size-nan", "size-inf", "cube-nan", "cube-inf",
        "ball-center-nan", "ball-center-inf", "ball-radius-nan"])
def test_box_is_finite(make):
    # a NaN side passes a "side <= 0" test, and a grid on it never ends; a
    # NaN disk radius passes "radius <= 0" too, and no window holds the disk
    with pytest.raises(FieldDomainError, match="must be finite"):
        make()


@pytest.mark.parametrize("center, radius", [((1e151, 0.0), 0.5), ((0.0, -1e300), 0.5),
                                            ((0.0, 0.0), 1e151)])
def test_ball_bounds_its_center_and_radius(center, radius):
    # phi squares coordinate differences, which overflow with a warning
    # for points near a ball beyond the bound
    with pytest.raises(FieldDomainError, match="at most 1e150"):
        Ball(center, radius)
    assert Ball((1e150, -1e150), 1e150).contains([(1e150, -1e150)]).all()


# a normal whose largest component lies outside (1e-150, 1e150) has a
# squared norm that under- or overflows
@pytest.mark.parametrize("normal", [(0.0, 0.0), (math.nan, 0.0), (0.0, math.nan),
                                    (math.inf, 0.0), (math.nan, math.nan),
                                    (1e-300, 1e-300), (5e-324, 0.0), (1e150, 1.0),
                                    (1e300, 1e300)])
def test_halfspace_normal_is_finite_nonzero_and_in_range(normal):
    with pytest.raises(FieldDomainError, match="finite, nonzero and within"):
        Halfspace(normal)
    assert Halfspace((1e-149, 0.0)).normal == Halfspace((1e149, 0.0)).normal == (1.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: Box((0.0,), (1.0,), (8,)),
    lambda: Box((0.0,) * 3, (1.0,) * 3, (8,) * 3),
    lambda: Ball((0.0, 0.0, 0.0), 0.5),
    lambda: Halfspace((0.0, 0.0, 1.0)),
    lambda: AxisBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
], ids=["box-1d", "box-3d", "ball-3d", "halfspace-3d", "axis-box-3d"])
def test_geometry_is_planar(make):
    with pytest.raises(FieldDomainError, match="planar"):
        make()


@pytest.mark.parametrize("cell", [(0, 3), (-1, 4), (5, 0), (2, -1), (0, 0), (-1, -1)],
                         ids=["x-first", "x-last", "y-first", "y-last", "corner", "far-corner"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
def test_check_constant_ring_reads_all_four_edges(cell, sign):
    # the ring sits at the extension value 0.25 and the interior reaches 1,
    # so the tolerance is 1e-9 of the range 0.75
    box = Box.cube(1.0, 8)
    vals = np.full(box.resolution, 0.25)
    vals[3:5, 3:5] = 1.0
    tol = 1e-9 * 0.75
    near = vals.copy()
    near[cell] += sign * 0.5 * tol
    fields.check_constant_ring(GridField(box, near, "phase", 0.25), FieldDomainError)
    off = vals.copy()
    off[cell] += sign * 2.0 * tol
    with pytest.raises(FieldDomainError, match="window boundary"):
        fields.check_constant_ring(GridField(box, off, "phase", 0.25), FieldDomainError)


def _shift_taps_row_by_row(flat, taps, stride):
    """Each tap row on its own: a unit row copies node 1, any other row adds
    its nonzero taps' products in node order onto 0."""
    n = flat.size - 3 * stride
    out = np.zeros((len(taps), flat.size))
    for row, acc in zip(taps, out):
        nonzero = [i for i in range(4) if row[i]]
        node = [flat[i * stride:i * stride + n] for i in range(4)]
        if nonzero == [1] and row[1] == 1.0:
            acc[:n] = node[1]
            continue
        total = row[nonzero[0]] * node[nonzero[0]] + 0.0
        for i in nonzero[1:]:
            total = total + row[i] * node[i]
        acc[:n] = total
    return out


def test_shift_taps_copies_unit_rows_and_sums_the_others():
    flat = np.array([0.0, 1.0, 2.0, -0.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    taps = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.25, 0.5, 0.0, 0.25]])
    out = fields.shift_taps(flat, taps, 2)
    assert out.tobytes() == _shift_taps_row_by_row(flat, taps, 2).tobytes()
    # a unit row copies node 1, keeping the sign of a zero
    assert np.array_equal(out[0, :4], flat[2:6])
    assert np.signbit(out[0, 1])
    # other rows add their nonzero taps in node order onto 0
    assert np.array_equal(out[1, :4], 0.5 * flat[2:6])
    assert not np.signbit(out[1, 1])
    assert np.array_equal(out[2, :4], 0.25 * flat[0:4] + 0.5 * flat[2:6] + 0.25 * flat[6:10])
    # the last 3 * stride elements lack a full stencil
    assert np.all(out[:, 4:] == 0.0)
    # the taps the library shifts by, on data with zeros of both signs: the
    # flow's cubic and linear phase rows, whose first row is a unit row and
    # whose linear rows tap nodes 1 and 2 only, and the rate layer's one
    # B-spline row, whose last tap is 0 at t = 0
    rng = np.random.default_rng(5)
    data = rng.normal(size=101)
    data[rng.choice(101, 30, replace=False)] = 0.0
    data[rng.choice(101, 30, replace=False)] = -0.0
    zeros = np.signbit(data[data == 0.0])
    assert zeros.any() and not zeros.all()
    cases = [flow._tap_weights(refine, order) for refine in (1, 2, 4, 8) for order in (1, 3)]
    cases += [rate._bspline_taps(0.0), rate._bspline_taps(0.3)]
    for taps in cases:
        for stride in (1, 7):
            got = fields.shift_taps(data, taps, stride)
            assert got.tobytes() == _shift_taps_row_by_row(data, taps, stride).tobytes()
