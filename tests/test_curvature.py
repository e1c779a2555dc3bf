import math
import warnings

import numpy as np
import pytest

from nlgeom import DomainError, curvature, kernels
from nlgeom.curvature import CurvatureDomainError, hk_pv, h0
from nlgeom.fields import (AxisBox, Ball, Box, FieldDomainError, GridField, Halfspace,
                           LevelShape)

BALL_K = kernels.ball_indicator(2)
FRAC_K = kernels.fractional(2, 0.5, 1.0)

# two overlapping unit disks at center distance 1
LENS_AREA = 2 * math.acos(0.5) - 0.5 * math.sqrt(3)
LENS_ORACLE = math.pi - 2 * LENS_AREA  # |B cap E^c| - |B cap E|


@pytest.mark.parametrize("normal", [(1, 0), (0, 1), (0.3, -0.7), (1, 1)])
def test_pv_halfspace_cancels(normal):
    mass = kernels.absolute_moment(BALL_K, 0.0).value
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


DISK = Ball((0.0, 0.0), 0.5)
LEVEL_SET = GridField(Box.cube(1.0, 16), np.zeros((16, 16)), tag="level-set")


@pytest.mark.parametrize("call, error", [
    (lambda: hk_pv(DISK, (0.5, 0.0), kernels.ball_indicator(3)), kernels.KernelDomainError),
    (lambda: kernels.disk_reference(kernels.ball_indicator(3), 0.5), kernels.KernelDomainError),
    (lambda: Ball((0.0, 0.0, 0.0), 0.5).boundary_sample(64), FieldDomainError),
    (lambda: Halfspace((0.0, 0.0, 1.0), 0.0).boundary_sample(64), FieldDomainError),
    (lambda: h0(LEVEL_SET, (0.0, 0.0), BALL_K), CurvatureDomainError),
    (lambda: LevelShape(lambda p: 1.0 - np.sum(p * p, axis=-1)).grad_phi((1.0, 0.0)),
     FieldDomainError),
    (lambda: h0(AxisBox((-0.5, -0.5), (0.5, 0.5)), (0.5, 0.0), BALL_K), DomainError),
], ids=["hk_pv-3d", "disk_reference-3d", "ball-sample-3d", "halfspace-sample-3d",
        "h0-grid-field", "level-shape-no-gradient", "h0-axis-box"])
def test_planar_analytic_scope_is_guarded(call, error):
    # curvature takes planar kernels only, shapes are planar (a 3-D one
    # fails at construction), and h0 reads analytic derivatives
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# the 1-D disk reference


def test_disk_reference_matches_lens_oracle():
    # unit ball kernel on the unit disk: the closed-form lens difference
    _, curv = kernels.disk_reference(BALL_K, 1.0)
    assert curv == pytest.approx(LENS_ORACLE, rel=1e-14, abs=0.0)


# worst relative gap of hk_pv to the reference, measured 5e-13 (ball),
# 3e-14 (annulus), 1.4e-6 (sigma 0.5) and 5.7e-5 (sigma 0.9)
PV_REFERENCE_CASES = [
    (BALL_K, 1e-11),
    (kernels.annulus_indicator(2, 0.2, 1.0), 1e-11),
    (FRAC_K, 1e-5),
    (kernels.fractional(2, 0.9, 1.0), 2e-4),
]


@pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05])
def test_pv_matches_disk_reference(eps):
    disk = Ball((0.0, 0.0), 0.5)
    points = disk.boundary_sample(16).points[:3]
    for kernel, rel in PV_REFERENCE_CASES:
        k = kernels.rescale(kernel, eps)
        _, want = kernels.disk_reference(k, 0.5)
        for p in points:
            assert hk_pv(disk, p, k).value == pytest.approx(want, rel=rel, abs=0.0)


# ---------------------------------------------------------------------------
# local limit


def test_h0_ball_closed_form():
    cv = h0(Ball((0.0, 0.0), 0.5), (0.5, 0.0), BALL_K)
    assert cv.value == pytest.approx(4.0 / 3.0, rel=1e-12)


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


def test_h0_rejects_untruncated_kernel():
    # the hyperplane moment is infinite, and inf * 0 would fill M with nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurvatureDomainError, match="bounded quadrature window"):
            h0(Ball((0.0, 0.0), 0.5), (0.5, 0.0), kernels.fractional(2, 0.5, math.inf))


def test_h0_gradient_floor():
    saddle = LevelShape(
        lambda p: np.asarray(p)[..., 0] ** 2 - np.asarray(p)[..., 1] ** 2,
        grad_fn=lambda p: np.stack([2 * np.asarray(p)[..., 0], -2 * np.asarray(p)[..., 1]], axis=-1),
        hess_fn=lambda p: np.array([[2.0, 0.0], [0.0, -2.0]]),
    )
    with pytest.raises(CurvatureDomainError):
        h0(saddle, (0.0, 0.0), BALL_K)


# ---------------------------------------------------------------------------
# convergence of the rescaled family


def hk_table(shape, kernel, eps_list, n):
    """h0 at n boundary samples, and eps^{-1} H(K_eps) there per eps."""
    pts = shape.boundary_sample(n).points
    h0_vals = np.array([h0(shape, p, kernel).value for p in pts])
    table = np.array([[hk_pv(shape, p, kernels.rescale(kernel, e)).value / e for p in pts]
                      for e in eps_list])
    return h0_vals, table


def test_convergence_ball_fractional():
    h0_vals, table = hk_table(Ball((0.0, 0.0), 0.5), FRAC_K, [0.4, 0.2, 0.1, 0.05], 16)
    sups = np.abs(table - h0_vals).max(axis=1)
    assert all(a > b for a, b in zip(sups, sups[1:]))
    target = kernels.hyperplane_second_moment(FRAC_K) / 0.5
    assert sups[-1] < 0.05 * target
    assert np.allclose(h0_vals, target, rtol=1e-10)


def test_convergence_ellipse_per_point():
    ell = curvature.make_ellipse(0.6, 0.3)
    h0_vals, table = hk_table(ell, FRAC_K, [0.4, 0.2, 0.1, 0.05], 16)
    errs = np.abs(table - h0_vals[None, :])
    assert np.all(errs[:-1] >= errs[1:] - 1e-12)


def test_convergence_report_keeps_error_and_divergence(tmp_path):
    # curvature-limit's sample table carries hk_pv's own error and flag
    from nlgeom import cli

    cfg = tmp_path / "curvature-limit.cfg"
    cfg.write_text("experiment curvature-limit\neps 0.2 0.1\nboundary_samples 4\n"
                   "kernel {\n  family fractional\n  sigma 0.5\n}\n"
                   "geometry {\n  shape disk\n  radius 0.5\n}\n", encoding="utf-8")
    _, out = cli.run(cfg, tmp_path / "out")
    rows = (out / "curvature_samples.csv").read_text(encoding="utf-8").splitlines()[1:]
    disk = Ball((0.0, 0.0), 0.5)
    assert len(rows) == 8
    for row in rows:
        eps, _, x, y, hk, _, _, err, diverged = map(float, row.split(","))
        cv = hk_pv(disk, (x, y), kernels.rescale(FRAC_K, eps))
        assert (hk, err, diverged) == (cv.value / eps, cv.err / eps, cv.diverged)
        assert err > 0.0 and diverged == 0.0


def test_convergence_rejects_bad_kernel():
    # h0 gates the window before any hk_pv of the table
    with pytest.raises(CurvatureDomainError):
        hk_table(Ball((0.0, 0.0), 0.5), kernels.fractional(2, 0.5, math.inf), [0.1], 4)


def test_supersolution_ratio_bounded():
    # (r/eps) H(K_eps) for balls of radius r tangent to the origin
    table = np.array([
        [(r / eps) * hk_pv(Ball((-r, 0.0), r), np.zeros(2), kernels.rescale(BALL_K, eps)).value
         for eps in (0.4, 0.2, 0.1, 0.05)]
        for r in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
    ])
    kappa = kernels.hyperplane_second_moment(BALL_K)
    assert np.all(table > 0)
    assert table.max() <= 1.25 * kappa  # measured peak 1.18 kappa
    # deep in the eps << r regime the ratio settles on kappa itself
    assert table[-1, -1] == pytest.approx(kappa, rel=1e-3)


# ---------------------------------------------------------------------------
# lane-wise Brent solver against scipy's scalar brentq


def _poly_lanes(rng, n):
    """Per-lane cubic c (t - z) ((t - w)^2 + s), one real root z each."""
    z = rng.uniform(-1.0, 1.0, n)
    w = rng.uniform(-2.0, 2.0, n)
    s = rng.uniform(1e-3, 1.0, n)
    c = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 10.0, n)
    a = z - rng.uniform(1e-3, 2.0, n)
    b = z + rng.uniform(1e-3, 2.0, n)
    flip = rng.random(n) < 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)

    def f(t, c, z, w, s):
        return c * (t - z) * ((t - w) * (t - w) + s)

    return a, b, (c, z, w, s), f


@pytest.mark.parametrize("xtol", [1e-14, 2e-12])
def test_brentq_lanes_matches_scipy_bitwise(xtol):
    from scipy import optimize

    rng = np.random.default_rng(20240)
    n = 200
    a, b, coef, f = _poly_lanes(rng, n)
    calls = np.zeros(n, dtype=int)

    def lanes_f(t, lanes):
        np.add.at(calls, lanes, 1)
        return f(t, *(v[lanes] for v in coef))

    roots = curvature._brentq_lanes(lanes_f, a, b, xtol)
    want = np.array([
        optimize.brentq(f, a[i], b[i], args=tuple(v[i] for v in coef), xtol=xtol)
        for i in range(n)
    ])
    assert np.array_equal(roots, want)
    # lanes leave the batch at different iterations
    assert len(np.unique(calls)) > 3


def test_brentq_lanes_endpoint_and_exact_interior_zeros():
    from scipy import optimize

    a = np.array([0.25, -1.0, -1.0, -0.5, -2.0])
    b = np.array([1.0, 0.75, 1.0, 0.5, 1.0])
    shift = np.array([0.25, 0.75, 0.0, 0.0, 0.3])

    def f(t, shift):
        # odd about the shift: bisection of [-1, 1] hits t = 0 exactly
        return (t - shift) * (0.5 + (t - shift) * (t - shift))

    roots = curvature._brentq_lanes(lambda t, k: f(t, shift[k]), a, b, 1e-14)
    want = [optimize.brentq(f, a[i], b[i], args=(shift[i],), xtol=1e-14) for i in range(5)]
    assert np.array_equal(roots, want)
    assert roots[0] == 0.25 and roots[1] == 0.75 and roots[2] == 0.0


def test_brentq_lanes_errors():
    a, b = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        curvature._brentq_lanes(lambda t, k: np.where(k == 1, np.nan, t), a, b, 1e-14)
    with pytest.raises(ValueError, match="different signs"):
        curvature._brentq_lanes(lambda t, k: t * t + 1.0, a, b, 1e-14)


@pytest.mark.parametrize("f, a, b, xtol", [
    # a step at 0 with a vanishing tolerance needs about 1000 bisections
    (lambda t: np.where(t > 0.0, 1.0, -1.0), -1.0, 2.0, 1e-300),
    # a triple root whose values underflow the interpolation steps
    (lambda t: (t - 0.1) * (t - 0.1) * (t - 0.1), -2.0, 3.0, 1e-14),
])
def test_brentq_lanes_fails_to_converge_where_scipy_does(f, a, b, xtol):
    from scipy import optimize

    with pytest.raises(RuntimeError, match="converge"):
        optimize.brentq(lambda t: float(f(np.float64(t))), a, b, xtol=xtol)
    with pytest.raises(RuntimeError, match="converge"):
        curvature._brentq_lanes(lambda t, k: f(t), np.array([a]), np.array([b]), xtol)


# ---------------------------------------------------------------------------
# batched principal-value route against the scalar one it replaced


def _scalar_sign_surface_integral(E, x, r, n_hat, t_hat):
    """One radius at a time, two scalar brentq solves per circle."""
    from scipy import optimize

    def f(th):
        u = math.cos(th) * t_hat + math.sin(th) * n_hat
        return float(np.asarray(E.phi(x + r * u)))

    f_top, f_bot = f(0.5 * math.pi), f(-0.5 * math.pi)
    if f_top > 0.0 > f_bot:
        th_a = optimize.brentq(f, -0.5 * math.pi, 0.5 * math.pi, xtol=1e-14)
        th_b = optimize.brentq(f, 0.5 * math.pi, 1.5 * math.pi, xtol=1e-14)
        th = 2 * math.pi * (np.arange(64) + 0.5) / 64 - 0.5 * math.pi
        u = np.cos(th)[:, None] * t_hat + np.sin(th)[:, None] * n_hat
        sv = np.asarray(E.phi(x[None, :] + r * u)) > 0.0
        model = (th > th_a) & (th < th_b)
        if np.array_equal(sv, model):
            return 2.0 * math.pi - 2.0 * (th_b - th_a), 0.0
    mean, err = curvature._dense_sign_mean(E, x, r)
    return 2.0 * math.pi * mean, 2.0 * math.pi * err


def _scalar_hk_pv(E, x, kernel):
    """hk_pv as it was: one sign-surface integral per kernel node."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(E.grad_phi(x), dtype=float)
    n_hat = g / np.linalg.norm(g)
    t_hat = np.array([-n_hat[1], n_hat[0]])
    quad_err = 0.0
    increments = []
    r_hi = kernel.effective_radius()
    for _ in range(8):
        r_lo = r_hi * 0.5
        rs, ws = kernels.radial_rule(kernel, r_lo, r_hi)
        acc = 0.0
        for r, w, k in zip(rs, ws, kernel.profile_at(rs)):
            if k == 0.0:
                continue
            S, e = _scalar_sign_surface_integral(E, x, r, n_hat, t_hat)
            acc += w * r ** (len(x) - 1) * k * S
            quad_err += w * r ** (len(x) - 1) * k * e
        increments.append(acc)
        r_hi = r_lo
    total = 0.0
    total += float(np.sum(increments))
    c1, c2, c3 = (abs(v) for v in increments[-3:])
    scale = max(abs(total), max(c1, 1e-300))
    noise = 1e-13 * scale
    diverged = False
    if c3 <= noise:
        err = noise + quad_err
    elif c3 >= c1:
        err = c3 + quad_err
        diverged = True
    else:
        q = math.sqrt(c3 / c1)
        tail = increments[-1] * q / (1.0 - q)
        err = abs(tail) * (1.0 - q) + noise + quad_err
        total += tail
    return curvature.CurvatureValue(total, err, diverged)


BITWISE_CASES = {
    "disk-frac": (Ball((0.0, 0.0), 0.5), None, kernels.rescale(FRAC_K, 0.1)),
    "disk-ball-offcenter": (Ball((0.3, -0.2), 0.8), None, kernels.rescale(BALL_K, 0.2)),
    "lens": (Ball((0.0, 0.0), 1.0), (1.0, 0.0), BALL_K),
    "divergent": (Ball((0.0, 0.0), 0.5), (0.5, 0.0),
                  kernels.custom_radial(lambda r: r**-3.5, d=2, r_max=1.0, sigma=0.9)),
    "halfspace-x": (Halfspace((1, 0), 0.0), (0.0, 0.0), BALL_K),
    "halfspace-y": (Halfspace((0, 1), 0.0), (0.0, 0.0), BALL_K),
}


@pytest.mark.parametrize("case", sorted(BITWISE_CASES))
def test_pv_batched_matches_scalar_route_bitwise(case):
    E, x, kernel = BITWISE_CASES[case]
    points = [x] if x is not None else list(E.boundary_sample(8).points[:3])
    for p in points:
        assert hk_pv(E, p, kernel) == _scalar_hk_pv(E, p, kernel)


def test_pv_batched_oblique_halfspace_near_scalar_route():
    # Halfspace.phi rounds a point the same alone and inside a batch, so
    # the two routes agree bit for bit on oblique normals too
    for normal in [(0.3, -0.7), (1, 1)]:
        want = _scalar_hk_pv(Halfspace(normal, 0.0), np.zeros(2), BALL_K)
        got = hk_pv(Halfspace(normal, 0.0), np.zeros(2), BALL_K)
        assert got == want


def test_pv_batched_ellipse_near_scalar_route():
    # the ellipse's einsum level function need not round a batch like a point
    ell = curvature.make_ellipse(0.6, 0.3)
    k = kernels.rescale(FRAC_K, 0.1)
    for p in ell.boundary_sample(8).points:
        got, want = hk_pv(ell, p, k), _scalar_hk_pv(ell, p, k)
        assert got.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
        assert got.diverged == want.diverged
