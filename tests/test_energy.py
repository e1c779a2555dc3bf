import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from nlgeom import energy, kernels
from nlgeom.energy import EnergyDomainError
from nlgeom.fields import AxisBox, Ball, Box, GridField, Halfspace, rasterize


K_QUARTER = kernels.ball_indicator(2, 0.25)
K_UNIT = kernels.ball_indicator(2)


@pytest.fixture(scope="module")
def grid192():
    return Box.cube(1.5, 192)


# ---------------------------------------------------------------------------
# perimeter


def test_perimeter_empty(grid192):
    # a ball outside the grid rasterizes to the empty set
    empty = Ball((5.0, 5.0), 0.5)
    assert energy.perimeter_k(empty, None, K_QUARTER, grid192).total == 0.0


def test_perimeter_window_irrelevant_for_interior_set():
    grid = Box.cube(1.0, 192)
    disk = Ball((0.0, 0.0), 0.5)
    whole = energy.perimeter_k(disk, None, K_QUARTER, grid)
    window = energy.perimeter_k(disk, Ball((0.0, 0.0), 0.85), K_QUARTER, grid)
    assert window.j2 == 0.0
    assert whole.total == pytest.approx(window.total, rel=1e-12)


def test_perimeter_translation_invariance():
    grid = Box.cube(1.0, 192)
    h = 2.0 / 192
    a = energy.perimeter_k(Ball((0.0, 0.0), 0.5), None, K_QUARTER, grid)
    b = energy.perimeter_k(Ball((12 * h, -8 * h), 0.5), None, K_QUARTER, grid)
    # whole-cell translation: identical lattice configuration
    assert a.total == pytest.approx(b.total, rel=1e-12)


def test_perimeter_disk_against_lune_quadrature():
    # independent oracle: Per = integral K(z) |B_R \ (B_R - z)| dz with the
    # exact two-disk lune area, reduced to a 1D radial integral
    R = 0.5

    def lune(t):
        if t >= 2 * R:
            return math.pi * R * R
        inter = 2 * R * R * math.acos(t / (2 * R)) - 0.5 * t * math.sqrt(
            4 * R * R - t * t
        )
        return math.pi * R * R - inter

    oracle, _ = integrate.quad(lambda t: 2 * math.pi * t * lune(t), 0.0, 0.25)
    per, _ = kernels.disk_reference(K_QUARTER, R)
    assert per == pytest.approx(oracle, rel=1e-12, abs=0.0)
    grid = Box.cube(1.0, 256)
    got = energy.perimeter_k(Ball((0.0, 0.0), R), None, K_QUARTER, grid).total
    assert got == pytest.approx(per, rel=2e-2)


def test_perimeter_matches_brute_force_double_sum():
    # the spec-style raw double Riemann sum, kept at modest resolution
    n = 96
    h = 2.0 / n
    grid = Box.cube(1.0, n)
    disk = Ball((0.0, 0.0), 0.5)
    chi = rasterize(disk, grid).values.ravel()
    pts = grid.centers().reshape(-1, 2)
    acc = 0.0
    for i in range(0, len(pts), 512):
        blk = pts[i : i + 512]
        d2 = ((blk[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        mask = d2 <= 0.25**2
        acc += (np.abs(chi[i : i + 512, None] - chi[None, :]) * mask).sum()
    brute = 0.5 * acc * h**4
    got = energy.perimeter_k(disk, None, K_QUARTER, grid).total
    # the sharp-cutoff double sum carries its own O(h) edge error
    assert got == pytest.approx(brute, rel=5e-2)


# ---------------------------------------------------------------------------
# nonlocal total variation of phase fields: the left-hand side of
# coarea_check, and its (J1, J2) split from energy._tv_terms


def _tv_terms(u, omega, kernel):
    om = energy._omega_mask(omega, u.box)
    offsets, weights = kernels.lattice_stencil(kernel, u.spacing)
    return energy._tv_terms(u.values, u.outside, om, offsets, weights, u.box)


def _tv_total(u, omega, kernel):
    return energy.coarea_check(u, omega, kernel, 1)[0]


def test_tv_constant_is_zero():
    grid = Box.cube(1.0, 64)
    u = GridField(grid, np.full(grid.resolution, 0.5), tag="phase", outside=0.5)
    assert _tv_total(u, None, K_QUARTER) == 0.0


def test_tv_of_indicator_equals_perimeter():
    grid = Box.cube(1.0, 128)
    disk = Ball((0.0, 0.0), 0.5)
    per = energy.perimeter_k(disk, None, K_QUARTER, grid)
    j1, j2 = _tv_terms(rasterize(disk, grid), None, K_QUARTER)
    assert j1 == pytest.approx(per.j1, abs=1e-15)
    assert j2 == pytest.approx(per.j2, abs=1e-15)
    assert _tv_total(rasterize(disk, grid), None, K_QUARTER) == per.total


def test_tv_ramp_closed_form():
    # u = clamp(x1 + 1/2, 0, 1) with the window [-0.75, 0.75]^2: the inner
    # term is (1/2) int K(z) |z1| (1.5 - |z2|) dz and the cross term is
    # int K(z) |z1| |z2| dz, both reducible to radial moments
    n = 192
    grid = Box.cube(1.0, n)
    cc = grid.centers()
    u = GridField(grid, np.clip(cc[..., 0] + 0.5, 0.0, 1.0), tag="phase")
    omega = AxisBox((-0.75, -0.75), (0.75, 0.75))
    j1, j2 = _tv_terms(u, omega, K_QUARTER)
    # int K |z1| dz = A2 * int r^2 K dr with A2 = 4
    m1 = 4.0 * (0.25**3 / 3.0)
    # int K |z1 z2| dz = int |cos sin| dtheta * int r^3 K dr = 2 * r^4/4
    m11 = 2.0 * (0.25**4 / 4.0)
    j1_exact = 0.5 * (1.5 * m1 - m11)
    j2_exact = m11
    assert j1 == pytest.approx(j1_exact, rel=1e-2)
    assert j2 == pytest.approx(j2_exact, rel=2e-2)


def test_tv_requires_phase():
    grid = Box.cube(1.0, 64)
    u = GridField(grid, grid.centers()[..., 0], tag="level-set")
    with pytest.raises(EnergyDomainError):
        energy.coarea_check(u, None, K_QUARTER)


def test_tv_refinement_stability():
    prev = None
    for n in (32, 64, 128):
        grid = Box.cube(1.0, n)
        cc = grid.centers()
        u = GridField(
            grid,
            0.5 + 0.5 * np.sin(math.pi * cc[..., 0]) * np.cos(0.5 * math.pi * cc[..., 1]),
            tag="phase",
            outside=0.5,
        )
        v = _tv_total(u, Ball((0, 0), 0.9), K_QUARTER)
        if prev is not None:
            assert abs(v - prev) / prev < 0.05
        prev = v


# ---------------------------------------------------------------------------
# rescaled and limit functionals


def test_rescaled_tv_constant_zero():
    grid = Box.cube(1.0, 64)
    u = GridField(grid, np.full(grid.resolution, 0.2), tag="phase", outside=0.2)
    for eps in (0.4, 0.1):
        assert _tv_total(u, None, kernels.rescale(K_UNIT, eps)) / eps == 0.0


def test_rescaled_tv_disk_sequence_approaches_limit():
    disk = Ball((0.0, 0.0), 0.5)
    omega = Ball((0.0, 0.0), 1.0)
    grid = Box.cube(1.1, 320)
    J0 = (2.0 / 3.0) * 2 * math.pi * 0.5
    gaps = []
    for eps in (0.4, 0.2, 0.1):
        v = energy.perimeter_k(disk, omega, kernels.rescale(K_UNIT, eps), grid).total / eps
        gaps.append(abs(v - J0) / J0)
    assert gaps[-1] < 0.01
    assert gaps[0] < 0.05


def test_limit_tv_clips_the_arc_to_the_window():
    # the circle of radius 0.5 about (1, 0) runs inside the unit disk along
    # an arc of length acos(1/4)
    omega = Ball((0.0, 0.0), 1.0)
    v = energy.limit_tv(Ball((1.0, 0.0), 0.5), omega, K_UNIT)
    assert v == pytest.approx((2.0 / 3.0) * math.acos(0.25), rel=1e-3)


def test_limit_tv_direction_independent():
    # the same clipped arc about centers turned by whole steps of the
    # 4096-point boundary rule: the arcs hold the same number of samples,
    # with normals pointing in different directions
    omega = Ball((0.0, 0.0), 1.0)
    vals = []
    for step in (0, 456, 1369, 2608):
        a = 2.0 * math.pi * step / 4096
        vals.append(energy.limit_tv(Ball((math.cos(a), math.sin(a)), 0.5), omega, K_UNIT))
    assert np.ptp(vals) < 1e-8


def test_limit_tv_disk():
    omega = Ball((0.0, 0.0), 1.0)
    v = energy.limit_tv(Ball((0.0, 0.0), 0.5), omega, K_UNIT)
    assert v == pytest.approx((2.0 / 3.0) * math.pi, rel=1e-6)


def test_limit_tv_takes_a_shape_only():
    grid = Box.cube(1.0, 64)
    smooth = GridField(grid, np.clip(grid.centers()[..., 0] + 0.5, 0.0, 1.0), tag="phase")
    for u in (smooth, rasterize(Ball((0, 0), 0.5), grid)):
        with pytest.raises(EnergyDomainError, match="takes a shape"):
            energy.limit_tv(u, None, K_UNIT)


# ---------------------------------------------------------------------------
# coarea and submodularity


def test_coarea_indicator_exact():
    grid = Box.cube(1.0, 64)
    ind = rasterize(Ball((0, 0), 0.5), grid)
    lhs, rhs, gap = energy.coarea_check(ind, None, K_QUARTER, 32)
    assert abs(gap) < 1e-12 * max(lhs, 1.0)


def test_coarea_ramp_small_gap():
    grid = Box.cube(1.0, 64)
    cc = grid.centers()
    u = GridField(grid, np.clip(cc[..., 0] + 0.5, 0.0, 1.0), tag="phase")
    lhs, rhs, gap = energy.coarea_check(u, None, K_QUARTER, 32)
    assert abs(gap) / lhs < 0.02


def test_coarea_constant_zero():
    grid = Box.cube(1.0, 64)
    u = GridField(grid, np.full(grid.resolution, 0.4), tag="phase", outside=0.4)
    lhs, rhs, gap = energy.coarea_check(u, None, K_QUARTER, 8)
    assert lhs == 0.0 and rhs == 0.0 and gap == 0.0


def test_submodularity_identical_and_disjoint():
    grid = Box.cube(1.0, 128)
    ball = Ball((0, 0), 0.5)
    assert energy.submodularity_check(ball, ball, None, K_QUARTER, grid).slack == 0.0
    a = AxisBox((-0.8, -0.8), (-0.3, -0.3))
    b = AxisBox((0.3, 0.3), (0.8, 0.8))
    slack, scale = energy.submodularity_check(a, b, None, K_QUARTER, grid)
    assert abs(slack) < 1e-12
    assert scale > 0.0


def test_submodularity_random_rectangles():
    grid = Box.cube(1.0, 96)
    rng = np.random.default_rng(42)
    for _ in range(25):
        lo1 = rng.uniform(-0.9, 0.4, 2)
        lo2 = rng.uniform(-0.9, 0.4, 2)
        r1 = AxisBox(tuple(lo1), tuple(lo1 + rng.uniform(0.2, 0.5, 2)))
        r2 = AxisBox(tuple(lo2), tuple(lo2 + rng.uniform(0.2, 0.5, 2)))
        slack, scale = energy.submodularity_check(r1, r2, None, K_QUARTER, grid)
        # the returned scale is the two perimeters, bit for bit
        assert scale == (
            energy.perimeter_k(r1, None, K_QUARTER, grid).total
            + energy.perimeter_k(r2, None, K_QUARTER, grid).total
        )
        assert slack >= -1e-9 * max(scale, 1e-30)


def test_bv_upper_bound_for_rectangles():
    # Per_K(E; Omega) <= (|E| + Per(E)/2) * int K (1 and |z|) for compactly
    # contained rectangles -- checked as an inequality
    grid = Box.cube(1.0, 128)
    rect = AxisBox((-0.3, -0.2), (0.3, 0.2))
    area = 0.6 * 0.4
    per = 2 * (0.6 + 0.4)
    # int K |z| >= int K (1 and |z|) on support < 1
    bound_kernel = kernels.absolute_moment(K_QUARTER, 1.0).value
    got = energy.perimeter_k(rect, None, K_QUARTER, grid).total
    assert got <= (area + 0.5 * per) * bound_kernel + 1e-12


# ---------------------------------------------------------------------------
# FFT pair counts against the per-offset sweep and a brute-force double sum


def _brute_tv(u, outside, omega, offsets, weights, cell):
    """O(N^2) double sum over cell pairs, plus the beyond-box pairs."""
    w = {tuple(o): wt for o, wt in zip(offsets.tolist(), weights)}
    shape = u.shape
    cells = list(np.ndindex(*shape))
    j1 = j2 = 0.0
    for x in cells:
        if not omega[x]:
            continue
        for y in cells:
            wt = w.get(tuple(np.subtract(y, x)), 0.0)
            du = abs(u[y] - u[x])
            if omega[y]:
                j1 += 0.5 * wt * du
            else:
                j2 += wt * du
        beyond = sum(
            wt for o, wt in w.items()
            if not all(0 <= xi + oi < n for xi, oi, n in zip(x, o, shape))
        )
        j2 += beyond * abs(outside - u[x])
    return cell * j1, cell * j2


@pytest.mark.parametrize("outside", [0.0, 1.0])
def test_fft_counts_match_sweep_and_brute_force(outside):
    n = 12
    grid = Box.cube(1.0, n)
    # support radius 2.2 reaches 13 cells: offsets with |o| >= n are included
    kernel = kernels.ball_indicator(2, 2.2)
    offsets, weights = kernels.lattice_stencil(kernel, grid.spacing)
    assert np.abs(offsets).max() >= n
    cell = float(np.prod(grid.spacing))
    rng = np.random.default_rng(7)
    for _ in range(3):
        u = rng.integers(0, 2, (n, n)).astype(float)
        omega = rng.random((n, n)) < 0.6
        fft = energy._binary_pair_counts(u, outside, omega, offsets)
        sweep = energy._sweep_pair_counts(u, outside, omega, offsets)
        for f, s in zip(fft, sweep):
            assert np.array_equal(f, s)
            assert not np.signbit(f).any()  # no -0.0 from rounding
        j1, j2 = energy._tv_terms(u, outside, omega, offsets, weights, grid)
        assert j1 == 0.5 * cell * float(np.sum(weights * sweep[0]))
        assert j2 == cell * float(np.sum(weights * sweep[1]))
        b1, b2 = _brute_tv(u, outside, omega, offsets, weights, cell)
        assert j1 == pytest.approx(b1, rel=1e-12)
        assert j2 == pytest.approx(b2, rel=1e-12)


def test_sweep_matches_brute_force_on_an_anisotropic_grid():
    # cells twice as wide in x as in y: the stencil reaches 2 cells along x
    # and 4 (the whole y axis) along y, and each axis is padded by its own
    grid = Box((0.0, 0.0), (1.0, 0.25), (8, 4))
    offsets, weights = kernels.lattice_stencil(kernels.ball_indicator(2, 0.25),
                                               grid.spacing)
    assert tuple(np.abs(offsets).max(axis=0)) == (2, 4)
    cell = float(np.prod(grid.spacing))
    rng = np.random.default_rng(3)
    u = rng.random((8, 4))
    omega = rng.random((8, 4)) < 0.6
    j1, j2 = energy._tv_terms(u, 0.3, omega, offsets, weights, grid)
    b1, b2 = _brute_tv(u, 0.3, omega, offsets, weights, cell)
    assert j1 == pytest.approx(b1, rel=1e-12)
    assert j2 == pytest.approx(b2, rel=1e-12)


def test_fft_pair_counts_hold_at_most_four_and_a_half_spectra():
    # halfspace-cell's 256^2 grid and window at eps 0.2: with every spectrum
    # a fresh array, one call peaked at 6.6 spectra of the padded size
    grid = Box.cube(1.25, 256)
    u = rasterize(Halfspace((1.0, 0.0), 0.0), grid).values
    omega = energy._omega_mask(Ball((0.0, 0.0), 1.0), grid)
    offsets, _ = energy._stencil(kernels.rescale(K_UNIT, 0.2), grid)
    size = energy._fft_size(u.shape, offsets)
    spectrum = size[0] * (size[1] // 2 + 1) * np.dtype(complex).itemsize
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        energy._binary_pair_counts(u, 0.0, omega, offsets)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 4.5 * spectrum


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    ns = range(1, 4097)
    assert [energy._fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]


def test_counts_at_rejects_off_integer_correlation():
    size, axes = (8, 8), (0, 1)
    offsets = np.array([[0, 0], [1, 0]])
    one = np.zeros((4, 4))
    one[1, 2] = 1.0
    spectrum = np.fft.rfftn(one, size, axes).conj() * np.fft.rfftn(one, size, axes)
    assert np.array_equal(energy._counts_at(spectrum, size, offsets), [1.0, 0.0])
    # a 0.5-valued cell puts the offset-0 count half-way between integers
    spectrum = np.fft.rfftn(0.5 * one, size, axes).conj() * np.fft.rfftn(one, size, axes)
    with pytest.raises(FloatingPointError, match="integrality"):
        energy._counts_at(spectrum, size, offsets)


def test_empty_stencil_gives_zero():
    grid = Box.cube(1.0, 32)
    tiny = kernels.ball_indicator(2, 0.2 * float(grid.spacing[0]))
    offsets, weights = kernels.lattice_stencil(tiny, grid.spacing)
    assert offsets.shape == (0, 2) and len(weights) == 0
    disk = Ball((0.0, 0.0), 0.5)
    assert energy.perimeter_k(disk, None, tiny, grid).total == 0.0
    assert _tv_total(rasterize(disk, grid), None, tiny) == 0.0


def test_stencil_wider_than_the_grid_is_a_domain_error():
    # the kernel's reach may equal the grid's shorter side, not exceed it
    grid = Box((-1.0, -0.5), (2.0, 1.0), (32, 16))
    disk = Ball((0.0, 0.0), 0.25)
    assert energy.perimeter_k(disk, None, kernels.ball_indicator(2, 1.0), grid).total > 0.0
    with pytest.raises(EnergyDomainError, match="exceeds the grid's shorter side"):
        energy.perimeter_k(disk, None, kernels.ball_indicator(2, 1.0 + 1e-12), grid)


def test_phase_field_takes_sweep_path(monkeypatch):
    grid = Box.cube(1.0, 64)
    cc = grid.centers()
    u = GridField(grid, np.clip(cc[..., 0] + 0.5, 0.0, 1.0), tag="phase")
    assert len(np.unique(u.values)) > 2

    def no_fft(*args):
        raise AssertionError("phase field reached the binary FFT path")

    monkeypatch.setattr(energy, "_binary_pair_counts", no_fft)
    j1, j2 = _tv_terms(u, Ball((0.0, 0.0), 0.8), K_QUARTER)
    # pinned values of the per-offset sweep
    assert j1 == pytest.approx(0.014170174011971246, rel=1e-12)
    assert j2 == pytest.approx(0.002382886980603751, rel=1e-12)


# ---------------------------------------------------------------------------
# run invariants: each stencil and window mask built once


def _clear_caches():
    energy._stencil.cache_clear()
    energy._omega_mask.cache_clear()


def test_cached_arrays_reject_writes():
    grid = Box.cube(1.0, 32)
    offsets, weights = energy._stencil(K_QUARTER, grid)
    masks = (energy._omega_mask(Ball((0.0, 0.0), 0.5), grid), energy._omega_mask(None, grid))
    for arr in (*masks, offsets, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_halfspace_cell_builds_one_stencil_per_eps(tmp_path):
    from nlgeom import cli

    cfg = tmp_path / "halfspace-cell.cfg"
    cfg.write_text("experiment halfspace-cell\neps 0.2 0.1 0.05\ncompetitors 4\n"
                   "kernel {\n  family ball\n}\ngeometry {\n  resolution 96\n}\n",
                   encoding="utf-8")
    _clear_caches()
    _, out = cli.run(cfg, tmp_path / "out")
    # one perimeter_k call per row: the halfspace and each accepted competitor
    calls = len((out / "halfspace_cell.csv").read_text(encoding="utf-8").splitlines()) - 1
    assert calls >= 3
    stencils = energy._stencil.cache_info()
    assert (stencils.misses, stencils.hits) == (3, calls - 3)
    masks = energy._omega_mask.cache_info()
    assert (masks.misses, masks.hits) == (1, calls - 1)


def test_submodularity_run_builds_one_stencil(tmp_path):
    from nlgeom import cli

    cfg = tmp_path / "submodularity.cfg"
    cfg.write_text("experiment submodularity\npairs 5\nkernel {\n  family ball\n"
                   "  radius 0.25\n}\ngeometry {\n  resolution 48\n}\n", encoding="utf-8")
    _clear_caches()
    report, _ = cli.run(cfg, tmp_path / "out")
    assert report.passed
    stencils = energy._stencil.cache_info()
    assert (stencils.misses, stencils.hits) == (1, 4)


def test_repeated_perimeter_calls_match_a_fresh_build():
    grid = Box.cube(1.0, 64)
    disk, window = Ball((0.1, 0.0), 0.5), Ball((0.0, 0.0), 0.55)
    _clear_caches()
    first = energy.perimeter_k(disk, window, K_QUARTER, grid)
    again = energy.perimeter_k(disk, window, K_QUARTER, grid)
    assert energy._stencil.cache_info().hits == 1
    _clear_caches()
    fresh = energy.perimeter_k(disk, window, K_QUARTER, grid)
    assert first.j2 > 0.0
    assert first == again == fresh


def test_custom_kernels_with_different_profiles_do_not_share_a_stencil():
    one = kernels.custom_radial(lambda r: np.ones_like(r), d=2, r_max=0.25)
    two = kernels.custom_radial(lambda r: 2.0 * np.ones_like(r), d=2, r_max=0.25)
    assert one != two
    grid, disk = Box.cube(1.0, 64), Ball((0.0, 0.0), 0.5)
    p1 = energy.perimeter_k(disk, None, one, grid).total
    p2 = energy.perimeter_k(disk, None, two, grid).total
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)


def test_kernel_grid_dimension_mismatch_is_a_domain_error():
    with pytest.raises(kernels.KernelDomainError, match="planar"):
        energy.perimeter_k(Ball((0.0, 0.0), 0.5), None, kernels.ball_indicator(3),
                           Box.cube(1.0, 32))
