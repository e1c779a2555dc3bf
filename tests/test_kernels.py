import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgeom import anisotropy, curvature, energy, flow, kernels, rate
from nlgeom.fields import Ball, Box, GridField


E1 = np.array([1.0, 0.0])


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
    assert kernels.hyperplane_second_moment(k) == pytest.approx(2.0 / 3.0, rel=1e-9)


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
    assert not mass.finite and math.isinf(float(mass))
    assert not kernels.absolute_moment(k, 1.0).finite
    assert not kernels.absolute_moment(k, 2.0).finite
    assert math.isinf(kernels.hyperplane_second_moment(k))


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
    g = kernels.zgrid(kernels.ball_indicator(2), n_angular=n_angular)
    assert np.array_equal(g.nodes[g.antipode], -g.nodes)
    assert np.array_equal(g.antipode[g.antipode], np.arange(len(g)))


def test_zgrid_quadrature_recovers_mass():
    k = kernels.ball_indicator(2)
    g = kernels.zgrid(k)
    got = float(np.sum(g.weights * kernels.evaluate(k, g.nodes)))
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
    spacing = np.full(2, h)
    masses = zg.weights * kernels.evaluate(kernel, zg.nodes)
    off = np.rint(zg.nodes / spacing).astype(np.int64)
    uniq, inv = np.unique(off, axis=0, return_inverse=True)
    acc = np.zeros(len(uniq))
    np.add.at(acc, inv.ravel(), masses)
    keep = np.any(uniq != 0, axis=1) & (acc != 0.0)
    offsets, weights = kernels.lattice_stencil(kernel, spacing, zg)
    assert np.array_equal(offsets, uniq[keep])
    assert np.array_equal(weights, acc[keep])


def test_hyperplane_moment_matrix_structure():
    k2 = kernels.ball_indicator(2)
    M = kernels.hyperplane_moment_matrix(k2, E1)
    expect = np.array([[0.0, 0.0], [0.0, 2.0 / 3.0]])
    assert np.allclose(M, expect, atol=1e-10)


def test_constructor_argument_checks():
    with pytest.raises(kernels.KernelDomainError):
        kernels.fractional(2, 1.0, 1.0)  # sigma must stay below 1
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
QUAD = rate.Potential.quadratic()


def _bump():
    box = Box.cube(1.1, 32)
    r2 = np.sum(box.centers() ** 2, axis=-1)
    return GridField(box, np.clip(1.0 - r2, 0.0, None) ** 2, "phase")


PLANAR_ENTRIES = {
    "perimeter_k": lambda: energy.perimeter_k(DISK, None, K3, GRID),
    "coarea_check": lambda: energy.coarea_check(_bump(), None, K3),
    "submodularity_check": lambda: energy.submodularity_check(
        DISK, Ball((0.2, 0.0), 0.4), None, K3, GRID),
    "limit_tv": lambda: energy.limit_tv(DISK, None, K3),
    "evolve": lambda: flow.evolve(flow.shrinking_circle_datum(GRID, 0.5), "local", K3, 0.01),
    "rate_ddim": lambda: rate.rate_ddim(_bump(), K3, QUAD, 0.1),
    "rate_limit_ddim": lambda: rate.rate_limit_ddim(_bump(), K3, QUAD),
    "slicing_check": lambda: rate.slicing_check(_bump(), K3, QUAD, 0.1),
    "hk_pv": lambda: curvature.hk_pv(DISK, (0.5, 0.0), K3),
    "hk_graph": lambda: curvature.hk_graph(DISK, (0.5, 0.0), K3),
    "h0": lambda: curvature.h0(DISK, (0.5, 0.0), K3),
    "hyperplane_second_moment": lambda: kernels.hyperplane_second_moment(K3),
    "halfspace_cell_experiment": lambda: anisotropy.halfspace_cell_experiment(
        anisotropy.Anisotropy(K3), (1.0, 0.0), (0.2,)),
}


@pytest.mark.parametrize("entry", sorted(PLANAR_ENTRIES))
def test_3d_kernel_on_planar_data_is_a_domain_error(entry):
    with pytest.raises(kernels.KernelDomainError, match="planar"):
        PLANAR_ENTRIES[entry]()
