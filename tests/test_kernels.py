import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgeom import anisotropy, curvature, energy, flow, kernels, rate
from nlgeom.fields import Ball, Box, GridField


UNTRUNCATED = "the kernel is untruncated; give it a finite radius"


def test_ball_indicator_closed_form_moments():
    k = kernels.ball_indicator(2)
    mass = kernels.absolute_moment(k, 0.0)
    assert mass.finite
    assert mass.value == pytest.approx(math.pi, rel=1e-12)
    # the first absolute moment: 2*pi * int_0^1 r^2 dr
    assert kernels.absolute_moment(k, 1.0).value == pytest.approx(2 * math.pi / 3, rel=1e-12)
    # the radial normalization int_0^1 r^d dr
    assert kernels._radial_moment(k, 2).value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert kernels.absolute_moment(k, 2.0).value == pytest.approx(math.pi / 2, rel=1e-12)
    assert kernels.hyperplane_second_moment(k) == 2.0 / 3.0


@pytest.mark.parametrize("d, radius, eps", [(2, 1.0, 1.0), (2, 0.25, 0.1), (3, 1.0, 0.05)])
def test_ball_is_the_annulus_at_r0_zero(d, radius, eps):
    # the same kernel, with the ball's closed-form moments r1^(q+1) / (q+1)
    # bit for bit and the value 1 down to r = 0
    k = kernels.rescale(kernels.ball_indicator(d, radius), eps)
    assert k == kernels.rescale(kernels.annulus_indicator(d, 0.0, radius), eps)
    for q in (d - 1, d, d + 1):
        val = k.scale ** (q + 1 - d) * (radius ** (q + 1) / (q + 1))
        assert kernels._radial_moment(k, q) == kernels.Moment(val, True, abs(val) * 1e-15)
    r = eps * radius * np.array([0.0, 0.5, 0.999, 1.001])
    assert np.array_equal(k.profile_at(r), eps ** -d * np.array([1.0, 1.0, 1.0, 0.0]))


def test_ball_moments_diverge_at_the_origin():
    # r^q is not integrable at 0 for q <= -1, and the ball's profile is 1 there
    k = kernels.ball_indicator(2)
    for power in (-2.5, -2.0):
        m = kernels.absolute_moment(k, power)
        assert not m.finite and math.isinf(m.value)
    assert kernels.absolute_moment(k, -1.5).value == 12.566370614359172
    assert kernels.absolute_moment(kernels.annulus_indicator(2, 0.5, 1.0), -2.5).finite


@pytest.mark.parametrize("kernel", [kernels.ball_indicator(2, 1e300),
                                    kernels.annulus_indicator(2, 0.2, 1e300)],
                         ids=["ball", "annulus"])
def test_overflowing_moment_is_a_domain_error(kernel):
    # 1e300 ** 3 overflows: Python's float power raises OverflowError
    with pytest.raises(kernels.KernelDomainError, match="overflows"):
        kernels.hyperplane_second_moment(kernel)


def test_ball_indicator_3d_moments():
    k = kernels.ball_indicator(3)
    assert kernels.absolute_moment(k, 0.0).value == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert kernels.absolute_moment(k, 2.0).value == pytest.approx(4 * math.pi / 5, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
def test_fractional_hyperplane_moment_matches_power_law(sigma):
    # kernel r^{-2-sigma} truncated at 1, d=2: the moment over a line
    # through the origin is 2/(1-sigma)
    k = kernels.fractional(2, sigma, 1.0)
    val = kernels.hyperplane_second_moment(k)
    assert val == pytest.approx(2.0 / (1.0 - sigma), rel=1e-10)


def test_fractional_pointwise_values():
    k = kernels.fractional(2, 0.5, 1.0)
    assert kernels.evaluate(k, np.array([0.25, 0.0])) == pytest.approx(32.0)
    assert kernels.evaluate(k, np.array([2.0, 0.0])) == 0.0
    with pytest.raises(kernels.KernelDomainError):
        kernels.evaluate(k, np.zeros(2))


def test_untruncated_fractional_divergence_flags():
    k = kernels.fractional(2, 0.5, math.inf)
    mass = kernels.absolute_moment(k, 0.0)
    assert not mass.finite and math.isinf(mass.value)
    assert not kernels.absolute_moment(k, 1.0).finite
    assert not kernels.absolute_moment(k, 2.0).finite
    with pytest.raises(kernels.KernelDomainError, match=UNTRUNCATED):
        kernels.hyperplane_second_moment(k)


def test_custom_r0_is_a_kink_not_a_cutoff():
    # the profile is 1 down to r = 0, so r^-2.5 diverges there, r0 or not
    flat = kernels.custom_radial(lambda u: np.ones_like(u), 2, 1.0, r0=0.5)
    assert kernels.absolute_moment(flat, -2.5) == kernels.Moment(math.inf, False)
    # a declared singular profile stays singular with a kink at r0
    k = kernels.custom_radial(lambda u: u ** -2.5, 2, 1.0, sigma=0.5, r0=0.5)
    assert k.singular and k.origin_exponent() == 2.5


def test_rescale_composes_exactly():
    k = kernels.fractional(2, 0.5, 1.0)
    a = kernels.rescale(kernels.rescale(k, 0.5), 0.25)
    b = kernels.rescale(k, 0.125)
    assert a.scale == b.scale
    z = np.array([0.03, -0.01])
    assert kernels.evaluate(a, z) == kernels.evaluate(b, z)


def test_rescale_pointwise_scaling():
    k = kernels.ball_indicator(2)
    ke = kernels.rescale(k, 0.5)
    # eps^-d * K(z/eps) with eps an exact binary float
    assert kernels.evaluate(ke, np.array([0.25, 0.0])) == 4.0
    assert ke.effective_radius() == 0.5
    with pytest.raises(kernels.KernelDomainError):
        kernels.rescale(k, 0.0)


# the smallest rule, and an odd count, which rounds up to 4 directions
@pytest.mark.parametrize("n_angular", [2, 3])
def test_zgrid_antipodal_pairing_is_exact(n_angular):
    # per radius, the second half of the directions negates the first
    nodes, weights = kernels.zgrid(kernels.ball_indicator(2), n_angular=n_angular)
    na = len(kernels.angular_rule(n_angular)[1])
    nodes, weights = nodes.reshape(-1, na, 2), weights.reshape(-1, na)
    assert np.array_equal(nodes[:, na // 2:], -nodes[:, :na // 2])
    assert np.array_equal(weights[:, na // 2:], weights[:, :na // 2])


def test_zgrid_quadrature_recovers_mass():
    k = kernels.ball_indicator(2)
    nodes, weights = kernels.zgrid(k)
    got = float(np.sum(weights * kernels.evaluate(k, nodes)))
    assert got == pytest.approx(math.pi, rel=1e-9)


def test_zgrid_needs_truncation():
    with pytest.raises(kernels.KernelDomainError):
        kernels.zgrid(kernels.fractional(2, 0.5, math.inf))


@pytest.mark.parametrize("kernel,h,n_angular", [
    (kernels.ball_indicator(2, 0.25), 2.0 / 96, None),
    (kernels.rescale(kernels.ball_indicator(2), 0.4), 2.2 / 288, None),
    (kernels.rescale(kernels.ball_indicator(2), 0.05), 2.2 / 288, None),
    (kernels.rescale(kernels.fractional(2, 0.5, 1.0), 0.2), 2.0 / 768, 256),
    (kernels.ball_indicator(2, 0.3), 0.1, None),  # a few cells across
])
def test_lattice_stencil_matches_row_binning(kernel, h, n_angular):
    # reference: the same snapping binned by rows with np.unique(axis=0)
    zg = kernels.zgrid(kernel, n_angular=n_angular)
    nodes, quad_w = zg
    spacing = np.full(2, h)
    masses = quad_w * kernels.evaluate(kernel, nodes)
    off = np.rint(nodes / spacing).astype(np.int64)
    uniq, inv = np.unique(off, axis=0, return_inverse=True)
    acc = np.zeros(len(uniq))
    np.add.at(acc, inv.ravel(), masses)
    keep = np.any(uniq != 0, axis=1) & (acc != 0.0)
    offsets, weights = kernels.lattice_stencil(kernel, spacing, zg)
    assert np.array_equal(offsets, uniq[keep])
    assert np.array_equal(weights, acc[keep])


def _even(offsets, weights):
    """Number of bins; fails unless each -o carries the very mass of o."""
    mass = dict(zip(map(tuple, offsets.tolist()), weights.tolist()))
    assert all(mass.get((-a, -b)) == w for (a, b), w in mass.items())
    return len(mass)


# the energy stencils of the shipped perimeter-limit and submodularity runs
ENERGY_STENCILS = {
    **{f"perimeter-limit-{eps}": (kernels.rescale(kernels.ball_indicator(2), eps),
                                  Box.cube(1.1, 288)) for eps in (0.4, 0.2, 0.1, 0.05)},
    "submodularity": (kernels.ball_indicator(2, 0.25), Box.cube(1.0, 96)),
}


@pytest.mark.parametrize("case", sorted(ENERGY_STENCILS))
def test_energy_stencil_is_even_bitwise(case):
    kernel, grid = ENERGY_STENCILS[case]
    assert _even(*kernels.lattice_stencil(kernel, grid.spacing)) > 0


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_flow_stamp_is_even_bitwise(eps):
    # the flow-monitors stamp, its offsets rebuilt from the
    # whole-cell part (row, col past the pad) and the sub-cell phase
    stamp = flow._build_stamp(kernels.ball_indicator(2), eps, Box.cube(1.0, 64))
    f0 = np.concatenate([np.full(b[-1] - b[0], f) for f, b in stamp.slabs])
    f1 = stamp.f1
    q0 = stamp.row + 1 - stamp.pad[0][0]
    q1 = stamp.col + 1 - stamp.pad[1][0]
    offsets = np.stack([q0 * stamp.refine + f0, q1 * stamp.refine + f1], axis=1)
    assert _even(offsets, stamp.weights) > 0


def test_disk_reference_domain():
    with pytest.raises(kernels.KernelDomainError, match="truncated"):
        kernels.disk_reference(kernels.fractional(2, 0.5, math.inf), 0.5)
    with pytest.raises(kernels.KernelDomainError, match="diameter"):
        kernels.disk_reference(kernels.ball_indicator(2), 0.49)
    # a reach of exactly 2a is still inside
    assert kernels.disk_reference(kernels.ball_indicator(2), 0.5)[1] > 0.0


@pytest.mark.parametrize("kernel", [kernels.ball_indicator(2), kernels.fractional(2, 0.5)],
                         ids=["ball", "frac-0.5"])
def test_disk_reference_gaps_converge_at_order_two(kernel):
    # Per/eps - 2 pi a kappa and H/eps - kappa/a on the disk of radius 0.5;
    # measured slopes 2.008 / 2.006 (Per) and 2.024 / 2.019 (H), ball / sigma 0.5
    a = 0.5
    eps = np.array([0.4, 0.2, 0.1, 0.05])
    kappa = kernels.hyperplane_second_moment(kernel)
    ref = np.array([kernels.disk_reference(kernels.rescale(kernel, e), a) for e in eps])
    gaps = np.abs(ref / eps[:, None] - [2.0 * math.pi * a * kappa, kappa / a])
    slopes = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
    assert np.all(np.abs(slopes - 2.0) <= 0.05), slopes


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.05])
@pytest.mark.parametrize("kernel", [
    kernels.ball_indicator(2),
    kernels.ball_indicator(2, 0.25),
    kernels.annulus_indicator(2, 0.2, 1.0),
    kernels.fractional(2, 0.5),
    kernels.fractional(2, 0.9),
], ids=["ball-1", "ball-0.25", "annulus", "frac-0.5", "frac-0.9"])
def test_hyperplane_moment_is_sigma_coefficient(kernel, eps):
    # one second moment kappa: sigma(p) = kappa |p| reads the same bits
    k = kernels.rescale(kernel, eps)
    assert kernels.hyperplane_second_moment(k) == anisotropy.Anisotropy(k).coef


def test_constructor_argument_checks():
    with pytest.raises(kernels.KernelDomainError):
        kernels.fractional(2, 1.0, 1.0)  # sigma must stay below 1
    for r0, r1 in ((0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)):
        with pytest.raises(kernels.KernelDomainError, match="need 0 <= r0 < r1"):
            kernels.annulus_indicator(2, r0, r1)
    for sigma in (0.0, -0.5):  # sigma 0 is r^-2, not integrable at 0
        with pytest.raises(kernels.KernelDomainError, match="sigma"):
            kernels.fractional(2, sigma, 1.0)
    with pytest.raises(kernels.KernelDomainError):
        kernels.ball_indicator(2, radius=-1.0)
    with pytest.raises(kernels.KernelDomainError):
        kernels.ball_indicator(4)
    with pytest.raises(kernels.KernelDomainError):
        kernels.ball_indicator(1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
)
def test_evaluate_is_even(r, theta):
    z = r * np.array([math.cos(theta), math.sin(theta)])
    k = kernels.fractional(2, 0.5, 1.5)
    assert kernels.evaluate(k, z) == kernels.evaluate(k, -z)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
def test_rescale_keeps_first_moment_linear(eps):
    # the first absolute moment of the rescaled kernel is eps times the original
    k = kernels.ball_indicator(2)
    base = kernels.absolute_moment(k, 1)
    scaled = kernels.absolute_moment(kernels.rescale(k, eps), 1)
    assert scaled.value == pytest.approx(eps * base.value, rel=1e-12)


def test_gauss_log_panels_reuse_one_read_only_rule_per_order():
    from numpy.polynomial.legendre import leggauss

    x, w = kernels._leggauss(8)
    assert kernels._leggauss(8)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    want_x, want_w = leggauss(8)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    # the panels are built from the shared rule, node for node as before
    r, wr = kernels.gauss_log_panels(1e-3, 2.0, 3, 8)
    edges = np.linspace(math.log(1e-3), math.log(2.0), 11)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    u = (mid[:, None] + half[:, None] * want_x[None, :]).ravel()
    assert np.array_equal(r, np.exp(u))
    assert np.array_equal(wr, (half[:, None] * want_w[None, :]).ravel() * np.exp(u))


# ---------------------------------------------------------------------------
# the planar check: a 3-D kernel never reaches planar data


K3 = kernels.ball_indicator(3)
DISK = Ball((0.0, 0.0), 0.5)
GRID = Box.cube(1.0, 32)


def _bump():
    box = Box.cube(1.1, 32)
    r2 = np.sum(box.centers() ** 2, axis=-1)
    return GridField(box, np.clip(1.0 - r2, 0.0, None) ** 2, "phase")


# every public entry that pairs a kernel with planar data, as a call on a kernel
PLANAR_ENTRIES = {
    "perimeter_k": lambda k: energy.perimeter_k(DISK, None, k, GRID),
    "coarea_check": lambda k: energy.coarea_check(_bump(), None, k),
    "submodularity_check": lambda k: energy.submodularity_check(
        DISK, Ball((0.2, 0.0), 0.4), k, GRID),
    "limit_tv": lambda k: energy.limit_tv(DISK, None, k),
    "evolve": lambda k: flow.evolve(flow.shrinking_circle_datum(GRID, 0.5), k, 0.01),
    "rate_ddim": lambda k: rate.rate_ddim(_bump(), k, 0.1),
    "rate_limit_ddim": lambda k: rate.rate_limit_ddim(_bump(), k),
    "slicing_check": lambda k: rate.slicing_check(_bump(), k, 0.1),
    "hk_pv": lambda k: curvature.hk_pv(DISK, (0.5, 0.0), k),
    "disk_reference": lambda k: kernels.disk_reference(k, 0.5),
    "h0": lambda k: curvature.h0(DISK, (0.5, 0.0), k),
    "hyperplane_second_moment": lambda k: kernels.hyperplane_second_moment(k),
    "curvature_bound": lambda k: rate.curvature_bound(_bump(), k),
}


@pytest.mark.parametrize("entry", sorted(PLANAR_ENTRIES))
def test_3d_kernel_on_planar_data_is_a_domain_error(entry):
    with pytest.raises(kernels.KernelDomainError, match="planar"):
        PLANAR_ENTRIES[entry](K3)


@pytest.mark.parametrize("entry", sorted(PLANAR_ENTRIES))
def test_untruncated_kernel_is_a_domain_error(entry):
    # its first moment, so sigma, kappa and every quadrature window, is
    # infinite; curvature_bound reports the diverged moment as it is
    k = kernels.fractional(2, 0.5, math.inf)
    if entry == "curvature_bound":
        assert math.isinf(PLANAR_ENTRIES[entry](k))
        return
    with pytest.raises(kernels.KernelDomainError, match=UNTRUNCATED):
        PLANAR_ENTRIES[entry](k)
