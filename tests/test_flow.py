import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from nlgeom import flow, kernels
from nlgeom.fields import Box, GridField
from nlgeom.flow import (
    FlowBlowUpError,
    FlowDomainError,
    SCHEMES,
    _build_stamp,
    _step_local_values,
    _step_nonlocal_values,
    curvature_coefficient,
    dt_bound,
    evolve,
    max_lipschitz,
    monitors,
    shrinking_circle_datum,
    zero_level_area,
    zero_level_radius,
)

BALL = kernels.ball_indicator(d=2, radius=1.0)


def linear_field(box, p, offset=0.0):
    cc = box.centers()
    vals = p[0] * cc[..., 0] + p[1] * cc[..., 1] + offset
    return GridField(box, vals, "level-set", 0.0)


def one_step(f, kernel, dt, eps=0.1):
    """Values after exactly one nonlocal step of length dt."""
    return evolve(f, "nonlocal", kernel, dt, dt=dt, eps=eps, n_snapshots=1).final.values


@pytest.fixture(scope="module")
def box64():
    return Box.cube(1.0, 64)


@pytest.fixture(scope="module")
def circle64(box64):
    return shrinking_circle_datum(box64, 0.5, band=0.28)


@pytest.fixture(scope="module")
def dtb64(box64):
    return dt_bound(curvature_coefficient(BALL), box64)


# ---------------------------------------------------------------------------
# state and parameter validation


def test_scheme_registry():
    assert SCHEMES == ("local", "nonlocal")


def test_state_validation(circle64):
    # the clock and stepping parameters evolve checks before its first step
    with pytest.raises(FlowDomainError):
        evolve(circle64, "local", BALL, math.inf)
    with pytest.raises(FlowDomainError):
        evolve(circle64, "local", BALL, 1e-3, dt=0.0)
    with pytest.raises(FlowDomainError):
        evolve(circle64, "nonlocal", BALL, 1e-3, eps=0.0)


@pytest.mark.parametrize("dt", [0.0, -1e-4, math.inf, math.nan])
def test_evolve_dt_guard(dt, circle64):
    with pytest.raises(FlowDomainError, match="finite and positive"):
        evolve(circle64, "local", BALL, 1e-3, dt=dt)


def test_curvature_coefficient_ball_closed_form():
    # mean of the squared coordinate over the unit disk against e1
    assert curvature_coefficient(BALL) == 2.0 / 3.0


def test_dt_bound_formula(box64):
    h = float(np.min(box64.spacing))
    assert dt_bound(1.0, box64) == pytest.approx(0.25 * h * h)
    with pytest.raises(FlowDomainError):
        dt_bound(0.0, box64)


def test_dt_above_bound_rejected(circle64, dtb64):
    with pytest.raises(FlowDomainError, match="stability bound"):
        one_step(circle64, BALL, 3.0 * dtb64)
    with pytest.raises(FlowDomainError):
        evolve(circle64, "local", BALL, 0.01, dt=3.0 * dtb64)


def test_evolve_input_guards(circle64):
    with pytest.raises(FlowDomainError):
        evolve(circle64, "upwind", BALL, 0.01)
    with pytest.raises(FlowDomainError):
        evolve(circle64, "local", BALL, -0.01)
    with pytest.raises(FlowDomainError):
        evolve(circle64, "nonlocal", BALL, 0.01)  # eps missing
    ramp = linear_field(Box.cube(1.0, 32), (1.0, 0.0))
    with pytest.raises(FlowDomainError):
        evolve(ramp, "local", BALL, 0.01)  # not constant near the boundary


def test_stamp_guards(circle64, box64):
    frac = kernels.fractional(d=2, radius=1.0)
    dt = dt_bound(curvature_coefficient(frac), box64)
    with pytest.raises(FlowDomainError, match="4 grid cells"):
        one_step(circle64, frac, dt, eps=0.05)  # singular and under 4 cells
    tiny = kernels.ball_indicator(d=2, radius=0.25)
    dt = dt_bound(curvature_coefficient(tiny), box64)
    with pytest.raises(FlowDomainError, match="half a grid cell"):
        one_step(circle64, tiny, dt, eps=0.05)  # support below half a cell
    # cells 16 times longer than wide: the stamp would refine 300 times
    with pytest.raises(FlowDomainError, match="at most 256"):
        _build_stamp(BALL, 0.02, Box((-1.0, -1.0), (2.0, 2.0), (4, 64)))


@pytest.mark.parametrize("n", [-1, 0])
def test_snapshot_count_guard(n, circle64, dtb64):
    # without it, 0 makes .final the initial field and -1 leaves no snapshot
    with pytest.raises(FlowDomainError, match="n_snapshots"):
        evolve(circle64, "local", BALL, 2.0 * dtb64, n_snapshots=n)


# ---------------------------------------------------------------------------
# the active-cell step against a whole-grid sweep, offset group by group


def _reference_stamp(kernel, eps, box, refine):
    """Per-phase groups ((f0, f1), q0, q1, masses) of the refined stamp."""
    h_fine = box.spacing / refine
    k_eps = kernels.rescale(kernel, eps)
    zg = kernels.zgrid(k_eps, r_lo=0.5 * float(np.min(h_fine)), n_angular=256,
                       panels_per_decade=6.0)
    offsets, weights = kernels.lattice_stencil(k_eps, h_fine, zg)
    q0 = offsets[:, 0] // refine
    q1 = offsets[:, 1] // refine
    f0 = offsets[:, 0] - refine * q0
    f1 = offsets[:, 1] - refine * q1
    by_shift = {}
    for k in range(len(weights)):
        by_shift.setdefault((int(f0[k]), int(f1[k])), []).append(k)
    groups = tuple(
        (key, q0[np.array(idx)].astype(int), q1[np.array(idx)].astype(int),
         weights[np.array(idx)])
        for key, idx in sorted(by_shift.items())
    )
    # (before, after) per axis: an offset's stencils span nodes q - 1 .. q + 2
    pad = tuple((1 - int(q.min()), int(q.max()) + 2) for q in (q0, q1))
    return refine, groups, pad


def _reference_sub_shift(padded, refine, f0, f1, order):
    def axis_weights(f):
        if order == 3:
            return flow._cubic_weights(f / refine)
        w = np.zeros(4)
        w[1] = 1.0 - f / refine
        w[2] = f / refine
        return w

    if f0 == 0:
        rows = padded[1:-2, :]
    else:
        w = axis_weights(f0)
        rows = sum(w[i] * padded[i:padded.shape[0] - 3 + i, :] for i in range(4) if w[i])
    if f1 == 0:
        return rows[:, 1:-2]
    w = axis_weights(f1)
    return sum(w[j] * rows[:, j:rows.shape[1] - 3 + j] for j in range(4) if w[j])


def _reference_step(values, outside, h, ref, eps, dt, floor):
    """One nonlocal step swept offset group by group over the whole grid."""
    refine, groups, pad = ref
    (b0, _), (b1, _) = pad
    n0, n1 = values.shape
    P = np.pad(values, pad, constant_values=outside)
    cgx, cgy = flow._gradient(values, outside, h)
    wf = 0.5 * (np.abs(cgx) * h[0] + np.abs(cgy) * h[1]) / refine
    W = np.pad(wf, pad, constant_values=0.0)
    hk = np.zeros_like(values)
    for (a, b), q0, q1, wts in groups:
        C = np.ascontiguousarray(_reference_sub_shift(P, refine, a, b, order=3))
        B = np.ascontiguousarray(_reference_sub_shift(P, refine, a, b, order=1)) if (a or b) else C
        Wc = np.ascontiguousarray(_reference_sub_shift(W, refine, a, b, order=1))
        vw = sliding_window_view(C, (n0, n1))[b0 - 1 + q0, b1 - 1 + q1]
        bw = sliding_window_view(B, (n0, n1))[b0 - 1 + q0, b1 - 1 + q1]
        ww = sliding_window_view(Wc, (n0, n1))[b0 - 1 + q0, b1 - 1 + q1]
        spread = ww > 0.0
        soft = np.clip((values[None] - vw) / np.where(spread, ww, 1.0), -1.0, 1.0)
        chi = np.where(spread, soft, np.sign(values[None] - bw))
        hk += np.tensordot(wts, chi, axes=(0, 0))
    gmag = np.sqrt(cgx * cgx + cgy * cgy)
    active = (gmag >= floor) & (gmag > 0.0)
    return values - dt * np.where(active, gmag * hk / eps, 0.0)


def _assert_steps_match(field, eps, n_steps, floor=None):
    box = field.box
    stamp = _build_stamp(BALL, eps, box)
    ref = _reference_stamp(BALL, eps, box, stamp.refine)
    assert ref[2] == stamp.pad
    assert sum(len(g[3]) for g in ref[1]) == len(stamp.weights)
    dt = dt_bound(curvature_coefficient(BALL), box)
    floor = 1e-6 * float(np.ptp(field.values)) if floor is None else floor
    a = b = field.values
    for step in range(n_steps):
        a = _reference_step(a, field.outside, box.spacing, ref, eps, dt, floor)
        b = _step_nonlocal_values(b, field.outside, box.spacing, stamp, eps, dt, floor)
        assert np.array_equal(a, b), f"step {step + 1} differs"
        # the sign of a zero counts too
        assert a.tobytes() == b.tobytes(), f"step {step + 1} differs in a zero's sign"


@pytest.mark.parametrize("eps, refine", [(0.2, 2), (0.1, 4), (0.05, 8)])
def test_active_step_bitwise_circle(eps, refine, circle64):
    assert _build_stamp(BALL, eps, circle64.box).refine == refine
    _assert_steps_match(circle64, eps, 20)


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_active_step_bitwise_nonsquare_box(eps):
    # 64 x 40 cells of 0.03125 x 0.0375: flat-index row/column mix-ups show
    box = Box((-1.0, -0.75), (2.0, 1.5), (64, 40))
    _assert_steps_match(shrinking_circle_datum(box, 0.4, band=0.28), eps, 10)


def test_active_step_bitwise_linear():
    box = Box.cube(1.0, 48)
    f = linear_field(box, (0.7, 0.31))
    gx, gy = flow._gradient(f.values, f.outside, box.spacing)
    floor = 1e-6 * float(np.ptp(f.values))
    assert np.all(np.sqrt(gx * gx + gy * gy) >= floor)  # every cell active
    _assert_steps_match(f, 0.1, 2, floor)


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_active_step_bitwise_rough_field(eps):
    # generic in-cell fractions, and an active count that is not a multiple
    # of 4, so the matrix-vector product's last rows are exercised
    box = Box.cube(1.0, 40)
    vals = np.random.default_rng(7).uniform(-1.0, 1.0, box.resolution)
    vals[:9, :] = 0.0
    vals[9, :21] = 0.0
    f = GridField(box, vals, "level-set", 0.0)
    gx, gy = flow._gradient(vals, 0.0, box.spacing)
    gmag = np.sqrt(gx * gx + gy * gy)
    assert np.count_nonzero((gmag >= 1e-6 * float(np.ptp(vals))) & (gmag > 0.0)) % 4 != 0
    _assert_steps_match(f, eps, 2)


def _plateau_pairs(field, eps):
    """Zero-spread (offset, active cell) pairs at t = 0 whose cubic and
    bilinear signs differ, zero-spread ties with the bilinear value, and
    those ties of a -0 cell value with a +0 bilinear one, whose difference
    is -0."""
    box = field.box
    vals, h = field.values, box.spacing
    refine = _build_stamp(BALL, eps, box).refine
    _, groups, pad = _reference_stamp(BALL, eps, box, refine)
    (b0, _), (b1, _) = pad
    cgx, cgy = flow._gradient(vals, field.outside, h)
    gmag = np.sqrt(cgx * cgx + cgy * cgy)
    active = (gmag >= 1e-6 * float(np.ptp(vals))) & (gmag > 0.0)
    wf = 0.5 * (np.abs(cgx) * h[0] + np.abs(cgy) * h[1]) / refine
    P = np.pad(vals, pad, constant_values=field.outside)
    W = np.pad(wf, pad, constant_values=0.0)
    flips = ties = negative = 0
    for (a, b), q0, q1, _ in groups:
        views = [
            sliding_window_view(_reference_sub_shift(arr, refine, a, b, order),
                                vals.shape)[b0 - 1 + q0, b1 - 1 + q1]
            for arr, order in ((P, 3), (P, 1), (W, 1))
        ]
        cubic, linear, spread = (x[:, active] for x in views)
        flat = spread == 0.0
        v = vals[active][None]
        flips += np.count_nonzero(flat & (np.sign(v - cubic) != np.sign(v - linear)))
        ties += np.count_nonzero(flat & (v == linear))
        negative += np.count_nonzero(flat & (v == linear) & np.signbit(v - linear))
    return flips, ties, negative


def test_active_step_bitwise_striped_plateau():
    # a ramp in the columns meets stripes alternating across columns: the
    # stripes' central gradient is 0, so the ramp's stamps read zero-spread
    # sites where the cubic and bilinear values differ, and the ramp's
    # multiples of 1/32 tie with the stripes' +-1/4.  Written with -0, the
    # ramp's zero column and the outside tie with +0 bilinear values in the
    # pad, a difference of -0: the tie must still count +0
    box = Box.cube(1.0, 40)
    cols = np.arange(40)
    row = np.where(cols < 20, (cols - 10) / 32.0, np.where(cols % 2, 0.25, -0.25))
    for zero in (0.0, -0.0):
        row[row == 0.0] = zero
        f = GridField(box, np.tile(row, (40, 1)), "level-set", zero)
        flips, ties, negative = _plateau_pairs(f, 0.2)
        assert flips > 0 and ties > 0
        assert (negative > 0) == np.signbit(zero)
        for eps in (0.2, 0.1):
            _assert_steps_match(f, eps, 2)


def _ramp_onto_plateau(plateau):
    """Rows of a ramp through 0 at column 18 that meets a plateau at 20."""
    cols = np.arange(40)
    row = np.where(cols < 20, (cols - 18) / 32.0, plateau)
    return GridField(Box.cube(1.0, 40), np.tile(row, (40, 1)), "level-set", 0.0)


def test_plateau_sign_holds_at_the_value_floor():
    # the smallest nonzero |value| a step accepts
    _assert_steps_match(_ramp_onto_plateau(2.0 ** -900), 0.2, 1)


@pytest.mark.filterwarnings("error")
def test_plateau_quotient_overflows_silently():
    # the ramp's cells reach the plateau and the outside at differences
    # far above 4, whose quotients by the 2^-1022 plateau spread overflow
    # to +-inf: the clip turns them into the sign, and the step warns of
    # nothing
    f = _ramp_onto_plateau(0.25)
    _assert_steps_match(f.with_values(64.0 * f.values), 0.2, 1)


@pytest.mark.parametrize("plateau, outside", [
    (5e-324, 0.0), (2.0 ** -901, 0.0), (0.25, -(2.0 ** -901))],
    ids=["subnormal-plateau", "plateau-below-floor", "outside-below-floor"])
def test_nonlocal_step_rejects_values_below_the_floor(plateau, outside):
    # the plateau quotient (v - c) / 2^-1022 is the sign only for nonzero
    # differences of at least 2^-1022: with a subnormal plateau, the zero
    # of the ramp and the plateau differ by 5e-324, and an unguarded step
    # differs from the reference in 80 cells
    f = _ramp_onto_plateau(plateau)
    box = f.box
    with pytest.raises(FlowDomainError, match="2\\^-900"):
        _step_nonlocal_values(f.values, outside, box.spacing, _build_stamp(BALL, 0.2, box),
                              0.2, 1e-4, 1e-6 * float(np.ptp(f.values)))


def test_active_step_bitwise_offcentre_circle():
    # the active band runs off the last rows and stays clear of the first
    # rows and columns, so the cropped tables sit asymmetrically and meet
    # the pad on one side.  The crop holds no spare row or column: the
    # largest offsets read the tables' last valid row and column, so a crop
    # one row short reads a zeroed table row in place of the -0.28 outside
    box = Box.cube(1.0, 40)
    cc = box.centers()
    vals = np.clip(0.35 - np.hypot(cc[..., 0] - 0.6, cc[..., 1] - 0.15), -0.28, 0.28)
    f = GridField(box, vals, "level-set", -0.28)
    gx, gy = flow._gradient(vals, f.outside, box.spacing)
    active = np.hypot(gx, gy) >= 1e-6 * float(np.ptp(vals))
    rows = np.flatnonzero(active.any(axis=1))
    cols = np.flatnonzero(active.any(axis=0))
    assert (rows[0], rows[-1], cols[0], cols[-1]) == (18, 39, 9, 36)
    for eps in (0.2, 0.1):
        stamp = _build_stamp(BALL, eps, box)
        assert stamp.row.max() == sum(stamp.pad[0]) - 3
        assert stamp.col.max() == sum(stamp.pad[1]) - 3
        _assert_steps_match(f, eps, 3)


def _entry_f0(stamp):
    """The row phase f0 of every stamp entry, from the stamp's slabs."""
    return np.concatenate([np.full(bounds[-1] - bounds[0], f0) for f0, bounds in stamp.slabs])


def _reference_reads(values, outside, wf, cells, stamp):
    """Per phase of the stamp: its entries k, its (f0, f1), and the cubic,
    bilinear and spread values that each pair (k, cell) reads, from the
    whole-grid shifts of that phase at cell + q."""
    refine = stamp.refine
    P = np.pad(values, stamp.pad, constant_values=outside)
    W = np.pad(wf, stamp.pad, constant_values=0.0)
    ci, cj = np.divmod(cells, values.shape[1])
    phase = _entry_f0(stamp) * refine + stamp.f1
    for p in np.unique(phase):
        k = np.flatnonzero(phase == p)
        at_q = np.s_[stamp.row[k, None] + ci, stamp.col[k, None] + cj]
        f0, f1 = divmod(int(p), refine)
        yield k, f0, f1, *(_reference_sub_shift(arr, refine, f0, f1, order)[at_q]
                           for arr, order in ((P, 3), (P, 1), (W, 1)))


def _active_cells(vals, outside, h):
    """Active cells of ``vals`` and its central gradient, as a step finds them."""
    gx, gy = flow._gradient(vals, outside, h)
    gmag = np.sqrt(gx * gx + gy * gy)
    return np.flatnonzero((gmag >= 1e-6 * float(np.ptp(vals))) & (gmag > 0.0)), gx, gy


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_phase_tables_read_the_reference_shifts(eps):
    # every slab table entry a pair reads, in both tables, against the
    # whole-grid shift of its phase at cell + q.  The disk's band runs off
    # the first rows, so pairs read the pad's plateau; beyond it the field
    # tilts along the columns with a gradient below the activity floor.  On
    # this grid the stamp's last column carries phases f1 > 0, whose cubic
    # taps read the box's last column; those pairs keep a cubic value, and
    # the box's left and right edges differ, so a crop one column short,
    # whose rows borrow the next row's first value, shows in the cubic table
    box = Box.cube(1.0, 48)
    cc = box.centers()
    vals = np.clip(0.35 - np.hypot(cc[..., 0] + 0.45, cc[..., 1]), -0.28, 0.28)
    vals = vals + 1e-9 * cc[..., 1]
    outside, h = -0.28, box.spacing
    cells, gx, gy = _active_cells(vals, outside, h)
    ci, cj = np.divmod(cells, box.resolution[1])
    stamp = _build_stamp(BALL, eps, box)
    wf = 0.5 * (np.abs(gx) * h[0] + np.abs(gy) * h[1]) / stamp.refine
    slabs, entries, at = flow._phase_tables(vals, outside, wf, cells, stamp)
    # a slab's tables hold its refine phases
    tables = {f0: tabs for (f0, _), tabs in zip(stamp.slabs, slabs)}
    assert sorted(tables) == list(range(stamp.refine))
    assert all(t.shape[0] == stamp.refine for tabs in tables.values() for t in tabs)
    plateau = edge = 0
    for k, f0, f1, C, B, S in _reference_reads(vals, outside, wf, cells, stamp):
        cubic, spread = tables[f0]
        flat = S == 0.0
        ix = entries[k, None] + at
        assert np.array_equal(cubic.ravel()[ix], np.where(flat, B, C))
        assert np.array_equal(spread.ravel()[ix], np.where(flat, flow._PLATEAU_SPREAD, S))
        plateau += np.count_nonzero(flat)
        # pairs whose cubic taps reach the box's last column
        reads = (stamp.col[k, None] + cj == cj.max() + sum(stamp.pad[1]) - 3) & (f1 > 0)
        assert np.all(S[reads] > 0.0)
        edge += np.count_nonzero(reads)
    assert plateau > 0 and edge > 0
    # the box's edge columns, in the padded grid
    P = np.pad(vals, stamp.pad, constant_values=outside)
    rows = np.s_[ci.min():ci.max() + sum(stamp.pad[0]) + 1]
    assert np.any(P[rows, cj.min()] != P[rows, cj.max() + sum(stamp.pad[1])])


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_every_pair_indicator_matches_the_reference(eps):
    # with 21 active cells one phase run holds a whole slab, so after a
    # step with a stamp cut down to one slab, the stamp's chi buffer holds
    # every indicator of that slab's pairs: compare them, slab by slab,
    # with the reference's, the sign of a zero included.  The field's zeros
    # and the outside are -0, and its active zeros tie with +0 plateau
    # values; a tie counts +0, as the reference's np.sign gives
    box = Box.cube(1.0, 40)
    vals = np.full(box.resolution, -0.0)
    vals[18:21, 18:21] = np.arange(1.0, 10.0).reshape(3, 3) / 32.0
    h = box.spacing
    cells, gx, gy = _active_cells(vals, -0.0, h)
    floor = 1e-6 * float(np.ptp(vals))
    stamp = _build_stamp(BALL, eps, box)
    cols = -(-len(cells) // flow._COLUMN_QUANTUM) * flow._COLUMN_QUANTUM
    chi = np.empty((len(stamp.weights), len(cells)))
    for slab in stamp.slabs:
        bounds = slab[1]
        assert len(flow._phase_runs(bounds, flow._BLOCK_PAIRS // cols)) == 1
        one = dataclasses.replace(stamp, slabs=(slab,))
        _step_nonlocal_values(vals, -0.0, h, one, eps, 1e-4, floor)
        run = one.scratch[0][:(bounds[-1] - bounds[0]) * cols].reshape(-1, cols)
        chi[bounds[0]:bounds[-1]] = run[:, :len(cells)]
    assert len(stamp.slabs) == stamp.refine > 1

    wf = 0.5 * (np.abs(gx) * h[0] + np.abs(gy) * h[1]) / stamp.refine
    v = vals.ravel()[cells]
    want = np.empty_like(chi)
    negative = 0
    for k, _, _, C, B, S in _reference_reads(vals, -0.0, wf, cells, stamp):
        spread = S > 0.0
        soft = np.clip((v - C) / np.where(spread, S, 1.0), -1.0, 1.0)
        want[k] = np.where(spread, soft + 0.0, np.sign(v - B))
        negative += np.count_nonzero(~spread & (v == B) & np.signbit(v - B))
    assert negative > 0
    assert chi.tobytes() == want.tobytes()


def test_active_step_bitwise_plateau_in_one_slab():
    # one cell inside the active band has an exactly zero central gradient
    # and every other cell of the tables' box a nonzero one (a tilt below
    # the activity floor outside the band).  So only row phase 0 reads a
    # zero spread, at that cell's whole-cell position: slab 0 swaps in the
    # bilinear value there, and the other slabs swap nothing
    box = Box.cube(1.0, 40)
    cc = box.centers()
    vals = 1e-9 * (cc[..., 0] + 2.0 * cc[..., 1])
    vals[12:29, 12:29] = np.random.default_rng(3).uniform(-0.25, 0.25, (17, 17))
    vals[21, 20], vals[20, 21] = vals[19, 20], vals[20, 19]
    f = GridField(box, vals, "level-set", 0.0)
    h = box.spacing
    cells, gx, gy = _active_cells(vals, 0.0, h)
    assert 20 * 40 + 20 not in cells
    for eps in (0.2, 0.1):
        stamp = _build_stamp(BALL, eps, box)
        wf = 0.5 * (np.abs(gx) * h[0] + np.abs(gy) * h[1]) / stamp.refine
        slabs, _, _ = flow._phase_tables(vals, 0.0, wf, cells, stamp)
        # the last 3 elements of a block, which shift_taps zeroes, are not read
        sites = {f0: np.count_nonzero(spread.reshape(stamp.refine, -1)[:, :-3]
                                      == flow._PLATEAU_SPREAD)
                 for (f0, _), (_, spread) in zip(stamp.slabs, slabs)}
        assert sites[0] > 0
        assert not any(sites[f0] for f0 in range(1, stamp.refine))
        _assert_steps_match(f, eps, 2)


@pytest.mark.parametrize("eps, steps, bound_mb", [(0.05, 10, 3.5), (0.025, 3, 6.0)])
def test_step_memory_peak(eps, steps, bound_mb, circle64):
    # a step holds the tables of one row phase at a time, so its traced
    # peak grows as refine, not refine^2: with all refine^2 phases built
    # at once it was 7.5 MB at eps 0.05 and 24.9 MB at eps 0.025
    box = circle64.box
    stamp = _build_stamp(BALL, eps, box)
    dt = dt_bound(curvature_coefficient(BALL), box)
    floor = 1e-6 * float(np.ptp(circle64.values))

    def step(v):
        return _step_nonlocal_values(v, circle64.outside, box.spacing, stamp, eps, dt, floor)

    vals = circle64.values
    for _ in range(steps):
        vals = step(vals)
    tracemalloc.start()
    try:
        step(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_constant_field_nonlocal_bitwise(box64, dtb64):
    # no active cell: nothing to gather, the values come back unchanged
    const = GridField(box64, np.full(box64.resolution, -0.3), "level-set", -0.3)
    tr = evolve(const, "nonlocal", BALL, 5.0 * dtb64, eps=0.1, n_snapshots=5)
    for snap in tr.snapshots:
        assert np.array_equal(snap.values, const.values)


def test_inactive_cells_unchanged(circle64, dtb64):
    vals = circle64.values
    gx, gy = flow._gradient(vals, circle64.outside, circle64.box.spacing)
    gmag = np.sqrt(gx * gx + gy * gy)
    inactive = ~((gmag >= 1e-6 * float(np.ptp(vals))) & (gmag > 0.0))
    assert 0 < np.count_nonzero(inactive) < vals.size
    stepped = one_step(circle64, BALL, dtb64)
    assert np.array_equal(stepped[inactive], vals[inactive])
    assert np.any(stepped[~inactive] != vals[~inactive])


def test_stamp_grid_guard(circle64):
    stamp = _build_stamp(BALL, 0.1, Box.cube(1.0, 32))
    with pytest.raises(FlowDomainError, match="different grid"):
        _step_nonlocal_values(circle64.values, circle64.outside,
                              circle64.box.spacing, stamp, 0.1, 1e-4, 0.0)


# ---------------------------------------------------------------------------
# exactness and symmetries of one step


# Linear data is not constant near the window boundary, so evolve rejects
# it; these tests call the update functions directly.


@pytest.mark.parametrize("p", [(1.0, 0.0), (0.0, 1.0), (0.7, 0.31), (0.36, -1.13)])
def test_nonlocal_halfspace_interior_stationary(p):
    box = Box.cube(1.0, 48)
    f = linear_field(box, p)
    dt = dt_bound(curvature_coefficient(BALL), box)
    scale = float(np.ptp(f.values))
    stepped = _step_nonlocal_values(f.values, f.outside, box.spacing,
                                    _build_stamp(BALL, 0.1, box), 0.1, dt, 1e-6 * scale)
    margin = int(math.ceil(0.1 / float(np.min(box.spacing)))) + 3
    inner = np.abs(stepped - f.values)[margin:-margin, margin:-margin]
    assert inner.max() <= 1e-12 * scale


def test_local_halfspace_interior_stationary():
    box = Box.cube(1.0, 48)
    f = linear_field(box, (0.6, -0.45))
    kappa = curvature_coefficient(BALL)
    scale = float(np.ptp(f.values))
    stepped = _step_local_values(f.values, f.outside, box.spacing, kappa,
                                 dt_bound(kappa, box), 1e-6 * scale)
    inner = np.abs(stepped - f.values)[2:-2, 2:-2]
    assert inner.max() <= 1e-12 * scale


def test_nonlocal_doubling_labels_exact(circle64, dtb64):
    doubled = GridField(circle64.box, 2.0 * circle64.values, circle64.tag,
                        2.0 * circle64.outside)
    a = one_step(circle64, BALL, dtb64)
    b = one_step(doubled, BALL, dtb64)
    assert np.array_equal(b, 2.0 * a)


def test_nonlocal_rot90_equivariant(circle64, dtb64):
    rot = circle64.with_values(np.rot90(circle64.values).copy())
    a = one_step(circle64, BALL, dtb64)
    b = one_step(rot, BALL, dtb64)
    assert np.abs(np.rot90(a) - b).max() <= 1e-12 * float(np.ptp(a))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_comparison_order_preserved(scheme, box64, circle64, dtb64):
    lower = shrinking_circle_datum(box64, 0.42, band=0.28)
    low = GridField(box64, lower.values - 1e-3, "level-set", lower.outside - 1e-3)
    assert np.all(low.values <= circle64.values)
    T = 5.0 * dtb64
    ta = evolve(low, scheme, BALL, T, eps=0.1, n_snapshots=2)
    tb = evolve(circle64, scheme, BALL, T, eps=0.1, n_snapshots=2)
    for a, b in zip(ta.snapshots, tb.snapshots):
        assert float(np.max(a.values - b.values)) <= 1e-9


# ---------------------------------------------------------------------------
# zero-level measurements


def test_zero_level_area_disk_subcell(circle64):
    exact = math.pi * 0.5**2
    assert zero_level_area(circle64) == pytest.approx(exact, rel=5e-3)
    assert zero_level_radius(circle64) == pytest.approx(0.5, rel=3e-3)


def test_zero_level_area_sign_of_constants(box64):
    up = GridField(box64, np.full(box64.resolution, 0.3), "level-set", 0.3)
    down = GridField(box64, np.full(box64.resolution, -0.3), "level-set", -0.3)
    assert zero_level_area(up) == pytest.approx(4.0)
    assert zero_level_area(down) == 0.0


def test_max_lipschitz_linear(box64):
    f = linear_field(box64, (0.7, 0.0))
    assert max_lipschitz(f) == pytest.approx(0.7, rel=1e-12)


# ---------------------------------------------------------------------------
# trajectories


def test_local_circle_tracks_ode():
    box = Box.cube(1.0, 64)
    u0 = shrinking_circle_datum(box, 0.4, band=0.28)
    kappa = curvature_coefficient(BALL)
    T = (0.4**2 - 0.3**2) / (2.0 * kappa)
    tr = evolve(u0, "local", BALL, T, n_snapshots=8)
    ts = np.array(tr.times)
    want = np.sqrt(0.4**2 - 2.0 * kappa * ts)
    got = np.array([zero_level_radius(f) for f in tr.snapshots])
    assert np.max(np.abs(got - want) / want) < 0.02


def test_nonlocal_circle_close_to_local(circle64):
    kappa = curvature_coefficient(BALL)
    T = 0.25 * (0.5**2 - 0.15**2) / (2.0 * kappa)
    loc = evolve(circle64, "local", BALL, T, n_snapshots=4)
    non = evolve(circle64, "nonlocal", BALL, T, eps=0.1, n_snapshots=4)
    r_loc = np.array([zero_level_radius(f) for f in loc.snapshots])
    r_non = np.array([zero_level_radius(f) for f in non.snapshots])
    assert np.abs(r_non - r_loc).max() < 0.01


@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_level_area_nonincreasing(scheme, circle64, dtb64):
    tr = evolve(circle64, scheme, BALL, 20.0 * dtb64, eps=0.1, n_snapshots=2)
    areas = [row.zero_level_area for row in tr.monitor]
    assert all(b <= a + 1e-12 for a, b in zip(areas, areas[1:]))


def test_evolve_zero_horizon(circle64):
    tr = evolve(circle64, "nonlocal", BALL, 0.0, eps=0.1)
    assert len(tr.snapshots) == 1 and tr.times == (0.0,)
    assert np.array_equal(tr.final.values, circle64.values)


def test_constant_field_stays_put(box64, dtb64):
    const = GridField(box64, np.full(box64.resolution, 0.7), "level-set", 0.7)
    tr = evolve(const, "local", BALL, 10.0 * dtb64, n_snapshots=2)
    rep = monitors(tr)
    assert rep.spatial_lipschitz == (0.0, 0.0, 0.0)
    assert rep.holder_constant == 0.0
    assert np.array_equal(tr.final.values, const.values)


def test_snapshot_times_snap_to_steps(circle64, dtb64):
    # 10 steps; the requested times 0, T/3, 2T/3, T land on steps 0, 3, 7, 10
    T = 10.0 * dtb64
    tr = evolve(circle64, "local", BALL, T, n_snapshots=3)
    assert len(tr.times) == 4
    assert tr.times[:3] == (0.0, 3 * tr.dt, 7 * tr.dt)
    assert tr.times[-1] == pytest.approx(T)


def test_blowup_guard_fires(circle64, monkeypatch):
    monkeypatch.setattr(flow, "BLOWUP_FACTOR", 1e-6)
    with pytest.raises(FlowBlowUpError):
        evolve(circle64, "nonlocal", BALL, 0.01, eps=0.1)


def test_monitor_report_and_rows(circle64, dtb64):
    tr = evolve(circle64, "nonlocal", BALL, 20.0 * dtb64, eps=0.1, n_snapshots=4)
    rep = monitors(tr)
    assert rep.lipschitz_within(1.05)
    assert rep.holder_constant > 0.0
    rows = rep.rows
    assert len(rows) == len(tr.times)
    assert rows[0][0] == 0.0 and rows[0][3] == 0.0
    ts = [r[0] for r in rows]
    assert ts == sorted(ts)
    assert tuple(ts) == tr.times
    assert [r[1] for r in rows] == [zero_level_area(f) for f in tr.snapshots]
    # the largest quotient over all snapshot pairs, whichever pass finds it
    pairs = max(
        float(np.max(np.abs(tr.snapshots[j].values - tr.snapshots[i].values)))
        / math.sqrt(tr.times[j] - tr.times[i])
        for j in range(len(tr.times)) for i in range(j)
    )
    assert rep.holder_constant == pairs


# ---------------------------------------------------------------------------
# initial datum


def test_circle_datum_shape(box64, circle64):
    w = 2.0 * float(np.max(box64.spacing))
    flat = 0.28 - w
    vals = circle64.values
    assert vals.max() == pytest.approx(flat)
    assert circle64.outside == pytest.approx(-flat)
    assert max_lipschitz(circle64) <= 1.0 + 1e-12
    # boundary ring sits exactly at the outside value
    assert np.all(vals[0, :] == circle64.outside)


def test_circle_datum_validation(box64):
    with pytest.raises(FlowDomainError):
        shrinking_circle_datum(box64, -0.5)
    with pytest.raises(FlowDomainError):
        # the two-cell rounding (2/32) needs a band wider than 4 cells
        shrinking_circle_datum(box64, 0.5, band=0.125)
    with pytest.raises(FlowDomainError):
        # plateau does not close inside the box
        shrinking_circle_datum(box64, 0.9, band=0.28)
