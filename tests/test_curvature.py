import math

import numpy as np
import pytest

from nlgeom import curvature, kernels
from nlgeom.curvature import CurvatureDomainError, hk_graph, hk_pv, h0
from nlgeom.fields import Ball, Box, ConvexPolygon, GridField, GridIndicator, Halfspace, LevelShape, rasterize

BALL_K = kernels.ball_indicator(2)
FRAC_K = kernels.fractional(2, 0.5, 1.0)

# two overlapping unit disks at center distance 1
LENS_AREA = 2 * math.acos(0.5) - 0.5 * math.sqrt(3)
LENS_ORACLE = math.pi - 2 * LENS_AREA  # |B cap E^c| - |B cap E|


@pytest.mark.parametrize("normal", [(1, 0), (0, 1), (0.3, -0.7), (1, 1)])
def test_pv_halfspace_cancels(normal):
    mass = kernels.moments(BALL_K).mass.value
    cv = hk_pv(Halfspace(normal, 0.0), (0.0, 0.0), BALL_K)
    assert abs(cv.value) < 1e-10 * mass
    assert not cv.diverged


def test_pv_halfspace_off_origin():
    hs = Halfspace((0.6, 0.8), 0.22)
    x = 0.22 * np.array([0.6, 0.8]) + 1.3 * np.array([-0.8, 0.6])
    assert abs(hk_pv(hs, x, BALL_K).value) < 1e-10


def test_pv_disk_lens_area_oracle():
    # integrable kernel: the value is an area difference of circle overlaps
    cv = hk_pv(Ball((0.0, 0.0), 1.0), (1.0, 0.0), BALL_K)
    assert cv.value == pytest.approx(LENS_ORACLE, rel=1e-9)
    assert cv.method == "pv-annulus"


def test_pv_positive_on_convex():
    for eps in (0.4, 0.1):
        cv = hk_pv(Ball((0.0, 0.0), 0.5), (0.5, 0.0), kernels.rescale(FRAC_K, eps))
        assert cv.value > 0.0


def test_pv_translation_invariance():
    k = kernels.rescale(BALL_K, 0.3)
    base = hk_pv(Ball((-0.3, 0.0), 0.3), (0.0, 0.0), k).value
    shift = np.array([3.1, -2.7])
    moved = hk_pv(Ball((-0.3 + shift[0], shift[1]), 0.3), shift, k).value
    assert abs(base - moved) < 1e-10


def test_pv_monotone_in_nested_tangent_balls():
    # smaller ball inside bigger one, both tangent at the origin
    k = kernels.rescale(BALL_K, 0.3)
    values = [hk_pv(Ball((-r, 0.0), r), (0.0, 0.0), k).value for r in (0.3, 0.5, 0.8)]
    assert values[0] > values[1] > values[2] > 0


def test_pv_rejects_interior_point():
    with pytest.raises(CurvatureDomainError):
        hk_pv(Ball((0.0, 0.0), 1.0), (0.2, 0.0), BALL_K)


def test_pv_rejects_untruncated_kernel():
    with pytest.raises(CurvatureDomainError):
        hk_pv(Ball((0.0, 0.0), 1.0), (1.0, 0.0), kernels.fractional(2, 0.5, math.inf))


def test_pv_divergence_flag():
    # declared origin exponent milder than the actual profile blow-up
    k = kernels.custom_radial(lambda r: r**-3.5, d=2, r_max=1.0, sigma=0.9)
    cv = hk_pv(Ball((0.0, 0.0), 0.5), (0.5, 0.0), k)
    assert cv.diverged


def test_pv_three_dimensional_ball():
    k3 = kernels.rescale(kernels.ball_indicator(3), 0.25)
    cv = hk_pv(Ball((0.0, 0.0, 0.0), 0.5), (0.5, 0.0, 0.0), k3)
    h0_val = h0(Ball((0.0, 0.0, 0.0), 0.5), (0.5, 0.0, 0.0), kernels.ball_indicator(3))
    assert cv.value / 0.25 == pytest.approx(h0_val.value, rel=0.15)
    assert h0_val.value == pytest.approx(math.pi, rel=1e-12)


def test_pv_grid_indicator_fallback():
    box = Box((-1.0, -1.0), (2.0, 2.0), (256, 256))
    grid = GridIndicator(rasterize(Ball((0.0, 0.0), 0.5), box, mode="indicator"))
    k = kernels.rescale(BALL_K, 0.2)
    smooth = hk_pv(Ball((0.0, 0.0), 0.5), (0.5, 0.0), k).value
    coarse = hk_pv(grid, np.array([0.5, 0.0]), k).value
    assert coarse == pytest.approx(smooth, rel=0.1)
    with pytest.raises(CurvatureDomainError):
        hk_pv(grid, np.array([0.0, 0.0]), k)


# ---------------------------------------------------------------------------
# graph route


def test_graph_matches_lens_oracle():
    cv = hk_graph(Ball((0.0, 0.0), 1.0), (1.0, 0.0), BALL_K)
    assert cv.value == pytest.approx(LENS_ORACLE, rel=1e-2)
    assert abs(cv.value - LENS_ORACLE) <= 3 * cv.err


@pytest.mark.parametrize("eps", [0.4, 0.2])
def test_graph_agrees_with_pv(eps):
    k = kernels.rescale(FRAC_K, eps)
    B = Ball((0.0, 0.0), 0.5)
    g = hk_graph(B, (0.5, 0.0), k)
    p = hk_pv(B, (0.5, 0.0), k)
    assert g.value == pytest.approx(p.value, rel=1e-2)


def test_graph_bound_by_parabolic_plus_tail():
    cv = hk_graph(Ball((0.0, 0.0), 1.0), (1.0, 0.0), BALL_K, delta=0.4)
    bound = kernels.parabolic_mass(BALL_K, 1.1, rho_max=0.4) + kernels.tail_mass(BALL_K, 0.4)
    assert abs(cv.value) <= bound


def test_graph_rejects_polygon_vertex_but_not_edge():
    square = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    with pytest.raises(CurvatureDomainError):
        hk_graph(square, (1.0, 1.0), BALL_K)
    edge = hk_graph(square, (1.0, 0.0), BALL_K, delta=0.3)
    assert abs(edge.value) < 1e-10


# ---------------------------------------------------------------------------
# local limit


def test_h0_ball_closed_form():
    cv = h0(Ball((0.0, 0.0), 0.5), (0.5, 0.0), BALL_K)
    assert cv.value == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert cv.method == "local-h0"


def test_h0_halfspace_zero():
    assert h0(Halfspace((1.0, 0.0), 0.0), (0.0, 0.3), BALL_K).value == 0.0


def test_h0_ellipse_hand_value():
    # phi = 1 - (x/a)^2 - (y/b)^2 at (a, 0): curvature a/b^2 times the
    # tangential second moment of the kernel
    ell = curvature.make_ellipse(0.6, 0.3)
    cv = h0(ell, (0.6, 0.0), BALL_K)
    assert cv.value == pytest.approx((0.6 / 0.09) * (2.0 / 3.0), rel=1e-12)


def test_h0_rotation_invariance():
    angles = [0.0, 0.37, 1.1, 2.9]
    vals = []
    for a in angles:
        ell = curvature.make_ellipse(0.6, 0.3, angle=a)
        x = np.array([0.6 * math.cos(a), 0.6 * math.sin(a)])
        vals.append(h0(ell, x, BALL_K).value)
    assert np.ptp(vals) < 1e-8


def test_h0_gradient_floor():
    saddle = LevelShape(
        lambda p: np.asarray(p)[..., 0] ** 2 - np.asarray(p)[..., 1] ** 2,
        2,
        grad_fn=lambda p: np.stack([2 * np.asarray(p)[..., 0], -2 * np.asarray(p)[..., 1]], axis=-1),
        hess_fn=lambda p: np.array([[2.0, 0.0], [0.0, -2.0]]),
    )
    with pytest.raises(CurvatureDomainError):
        h0(saddle, (0.0, 0.0), BALL_K)


def test_h0_from_grid_level_set():
    box = Box((-1.0, -1.0), (2.0, 2.0), (256, 256))
    centers = box.centers()
    vals = 0.5 - np.sqrt(centers[..., 0] ** 2 + centers[..., 1] ** 2)
    field = GridField(box, vals, tag="level-set", outside=-1.0)
    x = centers[192, 128]  # near (0.5, 0) but exactly on a cell center
    exact = h0(Ball((0.0, 0.0), 0.5), x, BALL_K).value
    approx = h0(field, x, BALL_K).value
    assert approx == pytest.approx(exact, rel=2e-2)


# ---------------------------------------------------------------------------
# convergence of the rescaled family


def test_convergence_ball_fractional():
    report = curvature.curvature_convergence(
        Ball((0.0, 0.0), 0.5), FRAC_K, [0.4, 0.2, 0.1, 0.05], boundary_samples=16
    )
    sups = report.sup_errors
    assert all(a > b for a, b in zip(sups, sups[1:]))
    target = kernels.hyperplane_second_moment(FRAC_K) / 0.5
    assert sups[-1] < 0.05 * target
    assert np.allclose(report.h0_values, target, rtol=1e-10)


def test_convergence_ellipse_per_point():
    ell = curvature.make_ellipse(0.6, 0.3)
    report = curvature.curvature_convergence(ell, FRAC_K, [0.4, 0.2, 0.1, 0.05], boundary_samples=16)
    errs = np.abs(report.hk_over_eps - report.h0_values[None, :])
    assert np.all(errs[:-1] >= errs[1:] - 1e-12)


def test_convergence_rejects_bad_kernel():
    with pytest.raises(CurvatureDomainError):
        curvature.curvature_convergence(
            Ball((0.0, 0.0), 0.5), kernels.fractional(2, 0.5, math.inf), [0.1]
        )


def test_supersolution_ratio_bounded():
    table = curvature.supersolution_bound_table(
        BALL_K, radii=(0.1, 0.25, 0.5, 1.0, 2.0, 4.0), eps_list=(0.4, 0.2, 0.1, 0.05)
    )
    kappa = kernels.hyperplane_second_moment(BALL_K)
    assert np.all(table > 0)
    assert table.max() <= 1.25 * kappa  # measured peak 1.18 kappa
    # deep in the eps << r regime the ratio settles on kappa itself
    assert table[-1, -1] == pytest.approx(kappa, rel=1e-3)
