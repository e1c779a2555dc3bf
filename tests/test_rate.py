import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage
from scipy.integrate import cumulative_trapezoid, simpson

from nlgeom import kernels, rate
from nlgeom.fields import Box, GridField
from nlgeom.rate import (
    Profile1D,
    RateDomainError,
    curvature_bound,
    e1d,
    e1d_limit,
    e1d_lower_bound,
    effective_kernel,
    rate_ddim,
    rate_limit_ddim,
    slicing_check,
)

G_BALL = kernels.ball_indicator(d=2)


def parabola(n=1601):
    return Profile1D.from_function(lambda x: np.clip(1.0 - x * x, 0.0, None), (-1.0, 1.0), n)


def radial_bump(box):
    r2 = np.sum(box.centers() ** 2, axis=-1)
    vals = np.clip(1.0 - r2, 0.0, None) ** 2
    return GridField(box, vals.reshape(box.resolution), "phase")


@pytest.fixture(scope="module")
def bump64():
    return radial_bump(Box.cube(1.1, 64))


@pytest.fixture(scope="module")
def bump_slice(bump64):
    return slicing_check(bump64, G_BALL, 0.1)


@pytest.fixture(scope="module")
def bump_sweep(bump64):
    """Rate values and spline-limit for the shared eps sweep."""
    eps = (0.2, 0.1, 0.05)
    vals = [rate_ddim(bump64, G_BALL, e) for e in eps]
    return eps, vals, rate_limit_ddim(bump64, G_BALL)


# ---------------------------------------------------------------------------
# 1D rate energy


def test_e1d_constant_profile_is_zero():
    u = Profile1D((-1.0, 1.0), np.zeros(512))
    assert e1d(u, 0.05) == 0.0


def test_e1d_parabola_converges_to_limit():
    # E_0 = (1/12) int 4x^2 = 2/9 for f = t^2
    target = 2.0 / 9.0
    gaps = []
    for eps, n in ((1e-1, 801), (1e-2, 3201), (1e-3, 16001)):
        u = parabola(n)
        val = e1d(u, eps)
        gaps.append(abs(val - target))
        # f'' = 2 upper bound: E_eps <= int |u'|^2 = 8/3
        assert val <= 8.0 / 3.0 + 1e-12
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.02 * target


def test_e1d_rejects_coarse_sampling():
    with pytest.raises(RateDomainError):
        e1d(parabola(65), 0.01)
    with pytest.raises(RateDomainError):
        e1d(parabola(), 0.0)


def test_e1d_limit_closed_forms():
    assert e1d_limit(Profile1D((-1, 1), np.full(128, 0.7))) == 0.0
    assert e1d_limit(parabola(6401)) == pytest.approx(2.0 / 9.0, rel=1e-3)


def test_e1d_limit_flags_jump_profile():
    vals = np.where(np.linspace(0, 1, 513) < 0.5, 0.0, 1.0)
    assert math.isinf(e1d_limit(Profile1D((0.0, 1.0), vals)))


def test_triangular_second_moment_constant():
    # the 1/24 in the limit density traces back to int_0^1 (r - 1/2)^2 dr
    x, w = np.polynomial.legendre.leggauss(8)
    nodes = 0.5 * (x + 1.0)
    val = 0.5 * np.sum(w * (nodes - 0.5) ** 2)
    assert val == pytest.approx(1.0 / 12.0, abs=1e-10)


def test_e1d_lower_bound_parabola():
    u = parabola()
    eps = 0.05
    val = e1d(u, eps)
    bound = e1d_lower_bound(u, eps)
    # for f = t^2 the bound is an identity, so only discretization noise
    # separates the two sides; slack is measured against the raw magnitude
    scale = np.trapezoid(np.square(u.values), dx=u.spacing) / eps**2
    assert val >= bound - 1e-6 * scale
    assert bound > 0.9 * val


def test_random_profiles_nonnegative_and_above_lower_bound():
    rng = np.random.default_rng(0)
    eps = 0.02
    xx = np.linspace(-1.0, 1.0, 1601)
    for _ in range(100):
        coef = rng.normal(size=6) / np.arange(1, 7)
        vals = sum(c * np.sin(k * np.pi * (xx + 1) / 2) for k, c in enumerate(coef, 1))
        u = Profile1D((-1.0, 1.0), vals)
        val = e1d(u, eps)
        scale = max(np.trapezoid(np.square(u.values), dx=u.spacing) / eps**2, 1e-30)
        assert val >= -1e-9 * scale
        assert val >= e1d_lower_bound(u, eps) - 1e-6 * scale


def test_e1d_gap_shrinks_for_smooth_profile():
    # C^2 profile: |E_eps - E_0| non-increasing along the sweep
    fn = lambda x: np.clip(1.0 - x * x, 0.0, None) ** 3
    gaps = []
    for eps, n in ((1e-1, 801), (1e-2, 3201), (1e-3, 16001)):
        u = Profile1D.from_function(fn, (-1.0, 1.0), n)
        gaps.append(abs(e1d(u, eps) - e1d_limit(u)))
    assert all(b <= a * 1.1 for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# d-dimensional rate energy


def test_rate_ddim_constant_field_all_zero():
    box = Box.cube(0.6, 32)
    u = GridField(box, np.full(box.resolution, 0.4), "phase", outside=0.4)
    rv = rate_ddim(u, kernels.ball_indicator(d=2, radius=0.5), 0.1, n_angular=8)
    assert rv.f_eps == 0.0 and rv.f_0 == 0.0 and rv.e_eps == 0.0


def test_rate_ddim_requires_flat_boundary():
    box = Box.cube(1.0, 32)
    ramp = GridField(box, box.centers()[..., 0].reshape(box.resolution), "level-set")
    with pytest.raises(RateDomainError):
        rate_ddim(ramp, G_BALL, 0.1)


def test_rate_ddim_dimension_guard():
    # the field is planar by construction; the kernel must be too, even
    # where the constant field returns before any quadrature
    box = Box.cube(0.6, 32)
    u = GridField(box, np.zeros(box.resolution), "phase")
    with pytest.raises(kernels.KernelDomainError, match="planar"):
        rate_ddim(u, kernels.ball_indicator(d=3), 0.1)


def test_rate_ddim_rotation_invariance(bump64):
    rot = GridField(bump64.box, np.rot90(bump64.values).copy(), "phase")
    a = rate_ddim(bump64, G_BALL, 0.1)
    b = rate_ddim(rot, G_BALL, 0.1)
    assert abs(a.e_eps - b.e_eps) <= 1e-8 * abs(a.e_eps)


def test_rate_ddim_converges_to_limit(bump_sweep):
    eps, vals, limit = bump_sweep
    gaps = [abs(v.e_eps - limit) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05 * limit


def test_rate_scaling_eps_times_energy_vanishes(bump_sweep):
    eps, vals, _ = bump_sweep
    prods = [e * v.e_eps for e, v in zip(eps, vals)]
    assert prods[0] > prods[1] > prods[2]
    # per halving the product contracts by a factor 2 up to the finite-eps
    # deficit of E_eps (which approaches its limit from below for f = t^2)
    assert prods[0] / prods[1] > 1.9
    assert prods[1] / prods[2] > 1.9


def test_rate_limit_affine_field_zero():
    box = Box.cube(1.0, 48)
    cc = box.centers()
    u = GridField(box, (0.3 * cc[..., 0] - 0.2 * cc[..., 1] + 0.5).reshape(box.resolution),
                  "level-set")
    assert abs(rate_limit_ddim(u, G_BALL)) < 1e-10


def test_rate_limit_matches_closed_form(bump64):
    # exact continuum value for the bump: pi^2/3; the grid value carries the
    # interpolant's smoothing of the curvature jump at |x| = 1
    val = rate_limit_ddim(bump64, G_BALL)
    assert val == pytest.approx(math.pi**2 / 3.0, rel=0.04)


def test_slicing_assembly_matches_direct(bump_slice):
    rep = bump_slice
    assert rep.direct > 0 and rep.assembled > 0
    assert abs(rep.direct - rep.assembled) / rep.direct < 0.01


@pytest.mark.parametrize("name, size", [
    ("_ROW_BLOCK", 1), ("_ROW_BLOCK", 5), ("_ROW_BLOCK", 200),
    ("_POINT_BLOCK", 1000), ("_POINT_BLOCK", 1 << 20),
])
def test_slicing_check_bits_do_not_depend_on_block_sizes(bump64, bump_slice, monkeypatch,
                                                         name, size):
    # the assembly streams lines and points in blocks; no sum may cross one
    monkeypatch.setattr(rate, name, size)
    rep = slicing_check(bump64, G_BALL, 0.1)
    assert rep.direct == bump_slice.direct
    assert rep.assembled == bump_slice.assembled


def test_slicing_check_working_set_stays_below_6_mb(bump64):
    # one block of lines at a time in buffers of one block, and a pad only
    # as wide as the lines reach: about 2.7 MB traced at 64² and 3.0 MB at
    # 96², against 13.8 MB at 64² when every line of a direction was
    # sampled at once, and 4.7 and 8.4 MB with the pad of twice the half
    # diagonal and fresh arrays per block
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        for u in (bump64, radial_bump(Box.cube(1.1, 96))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            slicing_check(u, G_BALL, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < 4e6, u.box.resolution
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_slicing_check_pads_for_the_direct_lattice_on_a_small_box():
    # eps r_eff = 0.4 on a 0.5-wide box: the direct side's shifted lattice
    # reaches 2 eps r_eff = 0.8 past the box, farther than the lines (0.58);
    # the sampler's pad must cover both
    box = Box.cube(0.25, 16)
    r2 = np.sum((box.centers() / 0.2) ** 2, axis=-1)
    u = GridField(box, (np.clip(1.0 - r2, 0.0, None) ** 2).reshape(box.resolution), "phase")
    rep = slicing_check(u, G_BALL, 0.4)
    assert rep.direct == pytest.approx(25.231415994931268, rel=1e-12)
    assert abs(rep.direct - rep.assembled) / rep.direct < 0.01


def test_slicing_requires_2d():
    box = Box.cube(0.5, 8)
    u = GridField(box, np.zeros(box.resolution), "phase")
    with pytest.raises(kernels.KernelDomainError, match="planar"):
        slicing_check(u, kernels.ball_indicator(d=3), 0.1)


# ---------------------------------------------------------------------------
# effective kernel


def test_effective_kernel_radius_factors():
    assert rate.EFFECTIVE_RADIUS_FACTOR == {2: 1.0, 3: 0.5}


# both effective kernels grow like rho^(1-d) at the origin, the ball's with a
# log term at d = 2; the annulus (r0 0.2, r1 1) kinks its own at r0
@pytest.mark.parametrize("d, make", [
    pytest.param(2, kernels.annulus_indicator, id="2"),
    pytest.param(3, kernels.annulus_indicator, id="3"),
    pytest.param(2, kernels.ball_indicator, id="ball-2"),
    pytest.param(3, kernels.ball_indicator, id="ball-3"),
])
def test_effective_kernel_positive_and_mass_preserving(d, make):
    G = make(d)
    Gt = effective_kernel(G)
    mass_in = kernels.absolute_moment(G, 0.0).value
    mass_out = kernels.absolute_moment(Gt, 0.0)
    assert mass_out.value == pytest.approx(mass_in, rel=1e-13)
    assert abs(mass_out.value - mass_in) <= mass_out.err < 1e-12 * mass_in

    beta = rate.EFFECTIVE_RADIUS_FACTOR[d]
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(1000, d))
    radii = 0.99 * beta * rng.random((1000, 1)) ** (1.0 / d)
    pts *= radii / np.linalg.norm(pts, axis=1, keepdims=True)
    assert kernels.evaluate(Gt, pts).min() > 0.0


def test_effective_kernel_needs_compact_support():
    with pytest.raises(kernels.KernelDomainError, match="untruncated"):
        effective_kernel(kernels.fractional(2, 0.5, math.inf))


# ---------------------------------------------------------------------------
# regularity criterion


def rate_energies(u, eps_list, n_angular):
    return [rate_ddim(u, G_BALL, e, n_angular).e_eps for e in eps_list]


def test_regularity_smooth_field_within_bound(bump64):
    values = rate_energies(bump64, [0.1, 0.05], 32)
    assert max(values) <= curvature_bound(bump64, G_BALL) * (1.0 + 1e-9)
    assert values[-1] / values[0] < 1.2


def test_regularity_constant_field_trivial():
    box = Box.cube(1.0, 32)
    u = GridField(box, np.zeros(box.resolution), "phase")
    assert rate_energies(u, [0.1], 8) == [0.0]
    assert curvature_bound(u, G_BALL) == 0.0


def test_regularity_flags_gradient_kink():
    # tent profile in x1 under a smooth window in x2: Lipschitz but the
    # gradient jumps across three lines, so the energies grow as eps shrinks
    box = Box.cube(1.1, 192)
    cc = box.centers()
    vals = (np.clip(0.5 - np.abs(cc[..., 0]), 0.0, None)
            * np.clip(1.0 - (cc[..., 1] / 0.9) ** 2, 0.0, None) ** 2)
    u = GridField(box, vals.reshape(box.resolution), "phase")
    values = rate_energies(u, [0.1, 0.025], 16)
    assert values[-1] / values[0] > 2.0


# ---------------------------------------------------------------------------
# shifted-lattice evaluation against the per-point paths


@pytest.mark.parametrize("d", [2])  # a GridField is planar
@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("phase", ["zero", "near-one", "random"])
def test_spline_lattice_matches_map_coordinates(d, reflect, phase):
    rng = np.random.default_rng(7 * d + reflect)
    n = 12
    u = GridField(Box.cube(1.0, n), rng.random((n, n)), "phase")
    if reflect:
        spl = rate._SplineSampler(u, (5, 5), mode="reflect", reflect_type="odd")
    else:
        spl = rate._SplineSampler.constant(u, 0.3)
    shift = {"zero": np.zeros(2), "near-one": np.full(2, 1.0 - 1e-13),
             "random": rng.uniform(-1.0, 2.0, 2)}[phase]
    shape, base = spl.centers(0.0)
    base = base - 1
    got = spl.lattice(shape, base, shift)
    xs, ys = (base[i] + shift[i] + np.arange(n) for i in (0, 1))
    ref = ndimage.map_coordinates(spl._coeffs, np.meshgrid(xs, ys, indexing="ij"),
                                  order=3, prefilter=False, mode="nearest")
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(spl._coeffs))


def test_spline_lattice_stays_inside_the_coefficients():
    box = Box.cube(1.0, 8)
    spl = rate._SplineSampler.constant(GridField(box, np.zeros((8, 8)), "phase"), 0.0)
    with pytest.raises(RateDomainError):
        spl.lattice(*spl.centers(0.0), np.array([-4.5, 0.0]))
    with pytest.raises(RateDomainError):
        spl.lattice(*spl.centers(0.0), np.array([0.0, 3.5]))


def _gather_e1d_rows(rows, a, h, eps):
    """Per-point reference: samples at a - eps + i h/2, read by fancy indexing."""
    n = rows.shape[1]
    b = a + (n - 1) * h
    dx = h / 2.0
    xs = np.arange(a - eps, b + dx, dx)

    def cell(x):
        idx = np.clip(((x - a) // h).astype(int), 0, n - 2)
        return idx, x - (a + idx * h)

    def integral(x):
        U = cumulative_trapezoid(rows, dx=h, axis=1, initial=0.0)
        idx, s = cell(x)
        slope = (rows[:, idx + 1] - rows[:, idx]) / h
        part = U[:, idx] + rows[:, idx] * s + 0.5 * slope * s * s
        part = np.where(x[None, :] <= a, 0.0, part)
        return np.where(x[None, :] >= b, U[:, -1:], part)

    idx, s = cell(xs)
    s = s / h
    u_x = rows[:, idx] * (1.0 - s) + rows[:, idx + 1] * s
    u_x = np.where((xs[None, :] < a) | (xs[None, :] > b), 0.0, u_x)
    slopes = (integral(xs + eps) - integral(xs)) / eps
    return simpson(np.square(u_x) - np.square(slopes), dx=dx, axis=1) / (eps * eps)


def test_e1d_rows_match_gather_reference_on_random_rows():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(6, 301))
    a, h = -0.37, 1.3e-3
    widths = h * np.array([8.0, 11.3, 23.0, 40.7])
    got = rate._e1d_rows(rows, a, h, widths)
    for e, row in zip(widths, got):
        ref = _gather_e1d_rows(rows, a, h, e)
        assert np.allclose(row, ref, rtol=1e-10, atol=0.0)


def test_e1d_rows_match_gather_reference_on_bump_slices():
    t = np.linspace(-1.3, 1.3, 641)
    y = np.linspace(-1.1, 1.1, 9)[:, None]
    rows = np.clip(1.0 - t * t - y * y, 0.0, None) ** 2
    h = t[1] - t[0]
    widths = 0.1 * np.array([0.25, 0.5, 1.0])
    got = rate._e1d_rows(rows, t[0], h, widths)
    for e, row in zip(widths, got):
        ref = _gather_e1d_rows(rows, t[0], h, e)
        assert np.allclose(row, ref, rtol=1e-10, atol=1e-12 * np.max(np.abs(ref)))


# Values of the per-point (map_coordinates and gather) evaluation on the 64²
# bump; the lattice path reorders sums and takes the probe phase in index
# units, so it agrees within 1e-9 relative, not bit for bit.
BUMP_E_EPS = {0.2: 3.0031328387605245, 0.1: 3.1430655798650338,
              0.05: 3.2162962180947825}
BUMP_LIMIT = 3.2024210137015925
BUMP_SLICE = (3.1092199443922977, 3.1263614848214485)


def test_bump_rates_match_per_point_values(bump_sweep):
    eps, vals, limit = bump_sweep
    for e, v in zip(eps, vals):
        assert v.e_eps == pytest.approx(BUMP_E_EPS[e], rel=1e-9)
    assert limit == pytest.approx(BUMP_LIMIT, rel=1e-9)


def test_bump_slicing_matches_per_point_values(bump_slice):
    rep = bump_slice
    assert rep.direct == pytest.approx(BUMP_SLICE[0], rel=1e-9)
    assert rep.assembled == pytest.approx(BUMP_SLICE[1], rel=1e-12)


def test_e1d_rows_do_not_depend_on_the_rows_beside_them():
    # slicing_check feeds its lines in blocks of rate._ROW_BLOCK rows
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(37, 301))
    widths = 1.3e-3 * np.array([8.0, 23.0])
    whole = rate._e1d_rows(rows, -0.37, 1.3e-3, widths)
    parts = [rate._e1d_rows(rows[i:i + rate._ROW_BLOCK], -0.37, 1.3e-3, widths)
             for i in range(0, len(rows), rate._ROW_BLOCK)]
    assert np.array_equal(np.concatenate(parts, axis=1), whole)


# ---------------------------------------------------------------------------
# numpy ports against the scipy calls they replace, bit for bit


@pytest.mark.parametrize("d", [2])  # the filter is planar
@pytest.mark.parametrize("pad", ["constant", "odd-reflect", "wide-constant"])
def test_spline_filter_matches_scipy_bitwise(d, pad):
    rng = np.random.default_rng(5 * d + (pad == "constant"))
    # a short axis: the init's last term, z^(n-1) (c[n-1] + z^n c[0]), then
    # reaches the last bits
    values = rng.random((29, 3))
    if pad == "constant":  # _SplineSampler.constant's narrowest pad
        padded = np.pad(values, 4, constant_values=0.25)
    elif pad == "wide-constant":  # wider than slicing_check's 98 cells: 308 x 282
        padded = np.pad(values, 140, constant_values=0.25)
    else:  # rate_limit_ddim's extension
        padded = np.pad(values, 12, mode="reflect", reflect_type="odd")
    ref = ndimage.spline_filter(padded, order=3, mode="nearest")
    assert np.array_equal(rate._spline_filter(padded), ref)


def test_spline_sampler_matches_map_coordinates_bitwise():
    rng = np.random.default_rng(9)
    box = Box.cube(1.0, 24)
    u = GridField(box, np.pad(rng.random((20, 20)), 2), "phase")
    spl = rate._SplineSampler.constant(u, 0.5)
    n = np.array(spl._coeffs.shape)
    coords = rng.uniform(1.0, n - 3.0, (20000, 2))
    coords[:500] = np.floor(coords[:500])
    coords[500:510] = [1.0, 1.0]
    pts = (coords + 0.5) * spl._h + spl._origin
    ref = ndimage.map_coordinates(spl._coeffs, ((pts - spl._origin) / spl._h - 0.5).T,
                                  order=3, prefilter=False, mode="nearest")
    # one point, one block of slicing_check's lines (8 x 1045), one full
    # block, a block and one point, two blocks of lines, and the whole
    # batch; also into a caller's buffer
    for count in (1, 8360, 16384, 16385, 16720, 20000):
        assert np.array_equal(spl(pts[-count:]), ref[-count:])
        out = np.full(count, np.nan)
        assert spl(pts[-count:], out=out) is out
        assert np.array_equal(out, ref[-count:])
    assert spl(pts.reshape(100, 200, 2)).shape == (100, 200)


def test_spline_sampler_rejects_queries_past_the_pad():
    box = Box.cube(1.0, 8)
    spl = rate._SplineSampler.constant(GridField(box, np.zeros((8, 8)), "phase"), 0.0)
    h, origin = spl._h, spl._origin
    inside = (np.array([[1.0, 1.0], [8.0 + 2 * 4 - 3.0, 1.0]]) + 0.5) * h + origin
    assert np.array_equal(spl(inside), np.zeros(2))
    for coords in ([0.999, 3.0], [3.0, 8.0 + 2 * 4 - 2.0]):
        with pytest.raises(RateDomainError):
            spl((np.array([coords]) + 0.5) * h + origin)


@pytest.mark.parametrize("n", [5, 6, 7, 40, 401, 2200])
def test_simpson_and_cumulative_trapezoid_match_scipy_bitwise(n):
    y = np.random.default_rng(n).normal(size=(64, n))
    dx = 1.3e-3 / 3.0
    assert np.array_equal(rate._simpson(y, dx, np.empty((64, n // 2))),
                          simpson(y, dx=dx, axis=1))
    assert np.array_equal(rate._cumulative_trapezoid(y, dx, np.empty_like(y)),
                          cumulative_trapezoid(y, dx=dx, axis=1, initial=0.0))
