"""Explicit level-set schemes for kernel curvature flow and its local limit.

``evolve`` is the one runner: it applies an explicit update to a level-set
field phi on a grid, step after step, and records snapshots and monitors.
Its ``eps`` picks one of two updates: ``eps=None`` the local one, a given
``eps`` the nonlocal one at that scale.

* ``local``: phi gains ``dt * tr(M(g_hat) D2phi)`` per step, the anisotropic
  mean-curvature speed written with the hyperplane second-moment matrix of
  the kernel contracted against a finite-difference Hessian.  (The gradient
  magnitude of the transport form cancels against the normalization of the
  curvature, so no division by |grad phi| is needed.)
* ``nonlocal``: each cell x moves with the kernel average of the signed
  superlevel indicator ``sign(phi(x) - phi(y))`` over the rescaled stamp,
  divided by eps.  The stamp lives on a lattice refined below the grid
  spacing: off-grid values come from cubic interpolation, and within each
  stamp cell the crossing of the level phi(x) is resolved by a linear
  in-cell model, i.e. the sign is replaced by clip(difference / half
  in-cell range, -1, 1).  Where the local range vanishes (plateaus) the
  scheme falls back to the plain sign of the bilinear value with ties
  counting zero, which extends the antipodal cancellation at the center
  cell to every tied pair and keeps halfspace data exactly stationary.
  A step evaluates the stamp sum at active cells only, over the box of
  padded cells the active cells' stamps can reach.  It takes the stamp's
  sub-cell phases one row phase (a slab) at a time: it builds one table
  per interpolant holding the padded field shifted by the slab's phases,
  each stamp offset of the slab gathers its row of values from the tables
  at the active cells' flat positions, counted from the offset's own
  entry, and the sum adds one phase's weighted indicators at a time, in
  the phases' sort order, before the next slab is built.  So the tables
  take memory in proportion to the refinement, not its square.
  The plateau fallback lives in the tables: where the spread is 0
  the cubic table holds the bilinear value and the spread table the
  smallest normal double, so the clipped quotient is exactly the sign of
  the bilinear difference, and +0 for a tie.

Both updates freeze cells whose gradient falls below a floor, so fields
that are constant near the window boundary stay constant there and the
beyond-box extension never interferes.  ``monitors`` reduces a trajectory
to per-snapshot rows of the flow's a-priori estimates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import DomainError, kernels
from .fields import GridField, check_constant_ring, shift_taps
from .kernels import Kernel

#: a step that grows max|phi| past this multiple of its initial value aborts
BLOWUP_FACTOR = 10.0


class FlowDomainError(DomainError):
    pass


class FlowBlowUpError(RuntimeError):
    """The evolved field outgrew ``BLOWUP_FACTOR`` times its range; run aborted."""


# --------------------------------------------------------------------------
# finite differences


def _central(p: np.ndarray, h) -> tuple:
    """Central first differences at the cells of ``p`` padded by one cell."""
    gx = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h[0])
    gy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h[1])
    return gx, gy


def _derivatives(values: np.ndarray, outside: float, h) -> tuple:
    """Central first and second differences with the constant extension."""
    p = np.pad(values, 1, constant_values=outside)
    gx, gy = _central(p, h)
    pxx = (p[2:, 1:-1] - 2.0 * values + p[:-2, 1:-1]) / (h[0] * h[0])
    pyy = (p[1:-1, 2:] - 2.0 * values + p[1:-1, :-2]) / (h[1] * h[1])
    pxy = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * h[0] * h[1])
    return gx, gy, pxx, pyy, pxy


def _gradient(values: np.ndarray, outside: float, h) -> tuple:
    """Central first differences with the constant extension."""
    return _central(np.pad(values, 1, constant_values=outside), h)


# --------------------------------------------------------------------------
# stability


def dt_bound(kappa: float, box) -> float:
    """Parabolic stability bound 0.25 h^2 / kappa for the explicit updates."""
    if not kappa > 0.0:
        raise FlowDomainError("kappa must be positive")
    h = float(np.min(box.spacing))
    return 0.25 * h * h / kappa


def _check_dt(dt: float, bound: float) -> float:
    if not (math.isfinite(dt) and dt > 0.0):
        raise FlowDomainError("dt must be finite and positive")
    if dt > bound * (1.0 + 1e-9):
        raise FlowDomainError(
            f"dt = {dt:.3g} violates the parabolic stability bound {bound:.3g}"
        )
    return float(dt)


# --------------------------------------------------------------------------
# updates


def _step_local_values(values, outside, h, kappa, dt, floor):
    gx, gy, pxx, pyy, pxy = _derivatives(values, outside, h)
    gmag = np.sqrt(gx * gx + gy * gy)
    active = (gmag >= floor) & (gmag > 0.0)
    safe = np.where(active, gmag, 1.0)
    # unit tangent of the level line; M(g_hat) = kappa t t^T for the radial
    # kernel class, so the trace term is the pure tangential second derivative
    tx = np.where(active, -gy / safe, 0.0)
    ty = np.where(active, gx / safe, 0.0)
    speed = kappa * (tx * tx * pxx + 2.0 * tx * ty * pxy + ty * ty * pyy)
    return values + dt * np.where(active, speed, 0.0)


@dataclass(frozen=True)
class _Stamp:
    """Kernel masses binned on a refined lattice, as phase-table coordinates.

    A stamp offset o = refine * q + f (0 <= f < refine per axis) reads the
    field at whole-cell offset q, shifted by the sub-cell phase f / refine.
    Entries are sorted by phase (f0, f1), keeping the lattice order within
    a phase, so each row phase f0 is one stretch of entries: a slab.
    ``slabs`` holds, per slab in f0 order, ``(f0, bounds)``, where
    ``bounds`` delimits the slab's phases (each one group of the stamp
    sum) in entry numbers.  Each step builds, one slab at a time, the
    padded field shifted by the slab's refine phases as one table per
    interpolant (``_phase_tables``), over the box of the padded grid that
    active cells can reach.  For active rows from i0 and columns from j0,
    offset k reads cell (i, j) at block ``f1[k]`` of its slab's tables,
    row ``row[k] + i - i0`` and column ``col[k] + j - j0``, so a step
    re-bases the entries from the box's shape alone, with no division.
    ``pad`` is the constant-extension margin per axis, ``(before, after)``
    in whole cells: the stencils of an offset with whole-cell part q span
    nodes q - 1 .. q + 2, so it is (1 - min q, max q + 2).  ``grid`` is the
    (n0, n1) grid the stamp was laid out for.  ``scratch`` holds the flat
    (chi, spread) buffers of the stamp sum, large enough for every cell of
    the grid to be active: chi for the longest phase, spread for one block
    of ``_BLOCK_PAIRS`` pairs.  Every step reuses them: allocated
    afresh, their new heap pages cost about 7 of the 20 ms of a step at
    eps 0.05 in the flow-monitors run.  So one stamp serves one run of
    steps at a time.
    """

    refine: int
    pad: tuple
    grid: tuple
    f1: np.ndarray
    row: np.ndarray
    col: np.ndarray
    weights: np.ndarray
    slabs: tuple
    scratch: tuple


# On lattices refined by an odd factor the binned masses pick up a small
# directional imbalance (measured ~0.2% on the disk benchmark versus <0.1%
# for even factors), so the refinement is rounded up to an even number.
_STAMP_SUBCELLS = 12
# The plateau sign's precondition (see ``_phase_tables``): the spread that
# marks a plateau site, the smallest nonzero |value| a step accepts, and the
# largest refinement, which keeps every bilinear tap at least 2^-8.
_PLATEAU_SPREAD = float(np.finfo(float).tiny)
_VALUE_FLOOR = 2.0 ** -900
_MAX_REFINE = 256


def _build_stamp(kernel: Kernel, eps: float, box) -> _Stamp:
    if not eps > 0.0:
        raise FlowDomainError("eps must be positive")
    h = box.spacing
    if kernel.singular and eps < 4.0 * float(np.max(h)):
        raise FlowDomainError(
            "singular kernels need eps >= 4 grid cells for a grid-summed flow"
        )
    k_eps = kernels.rescale(kernel, eps)
    r_hi = kernels.require_resolved(kernel, eps, h, FlowDomainError)
    raw = _STAMP_SUBCELLS * float(np.max(h)) / r_hi
    refine = 1 if raw <= 1.0 else 2 * math.ceil(0.5 * raw)
    if refine > _MAX_REFINE:
        raise FlowDomainError(
            f"the stamp would split cells {refine} times per axis (at most "
            f"{_MAX_REFINE}); use cells closer to square or a larger eps"
        )
    h_fine = h / refine
    zg = kernels.zgrid(
        k_eps, r_lo=0.5 * float(np.min(h_fine)), n_angular=256, panels_per_decade=6.0
    )
    offsets, weights = kernels.lattice_stencil(k_eps, h_fine, zg)
    if len(offsets) == 0:
        raise FlowDomainError("the rescaled kernel hits no off-center cells")
    q0, f0 = np.divmod(offsets[:, 0], refine)
    q1, f1 = np.divmod(offsets[:, 1], refine)
    n0, n1 = box.resolution
    # the sum takes the phases in (f0, f1) order, one row phase f0 (a
    # slab) at a time
    order = np.argsort(f0 * refine + f1, kind="stable")
    key = (f0 * refine + f1)[order]
    row, col = (q0 - q0.min())[order], (q1 - q1.min())[order]
    starts = np.flatnonzero(np.diff(key)) + 1
    bounds = (0, *(int(b) for b in starts), len(order))
    slabs, g = [], 0
    for f, phases in itertools.groupby(int(key[b]) // refine for b in bounds[:-1]):
        stop = g + len(list(phases))
        slabs.append((f, bounds[g:stop + 1]))
        g = stop
    # the stamp sum's buffers, large enough for any active set and phase
    cols = -(-n0 * n1 // _COLUMN_QUANTUM) * _COLUMN_QUANTUM
    block = max(_BLOCK_PAIRS, cols)
    scratch = (np.empty(max(block, int(np.max(np.diff(bounds))) * cols)), np.empty(block))
    pad = tuple((1 - int(q.min()), int(q.max()) + 2) for q in (q0, q1))
    return _Stamp(refine, pad, (n0, n1), f1[order], row, col, weights[order],
                  tuple(slabs), scratch)


def _cubic_weights(a: float) -> np.ndarray:
    """Interpolation weights on 4 consecutive nodes, fraction a past node 1.

    The stencil reproduces quadratics, so level lines of smooth fields keep
    their curvature instead of flattening to chords between cell centers.
    """
    return np.array([
        0.5 * (-a**3 + 2.0 * a**2 - a),
        0.5 * (3.0 * a**3 - 5.0 * a**2 + 2.0),
        0.5 * (-3.0 * a**3 + 4.0 * a**2 + a),
        0.5 * (a**3 - a**2),
    ])


def _tap_weights(refine: int, order: int) -> np.ndarray:
    """Row f: the 4 node weights for a shift by f / refine cells.

    ``order`` 3 gives the cubic stencil, 1 the two-node linear one.
    """
    w = np.zeros((refine, 4))
    for f in range(refine):
        if order == 3:
            w[f] = _cubic_weights(f / refine)
        else:
            w[f, 1] = 1.0 - f / refine
            w[f, 2] = f / refine
    return w


def _phase_tables(values, outside, wf, cells, stamp) -> tuple:
    """Phase tables of the field (cubic) and of ``wf`` (bilinear), slab by slab.

    For ``cells`` (ascending flat indices) in rows i0 .. i1 and columns
    j0 .. j1 and stamp pad ((before0, after0), (before1, after1)), the box
    is the grid's rows i0 - before0 .. i1 + after0 and columns
    j0 - before1 .. j1 + after1: the nodes that the 4-node stencils of the
    active cells span.  On the circle datum at t = 0 it is 68², 62², 58²
    and 56² at eps 0.2, 0.1, 0.05 and 0.025, against the padded grid's
    80², 74², 70² and 68².  The tables are built separably.  The row pass
    runs once per step: for each interpolant it gives refine row phases of
    the box.  The column pass runs per slab (one row phase f0, see
    ``_Stamp``) and gives the slab's table: refine blocks, block f1 holding
    phase (f0, f1), each with the box's width and all but its last 3 rows,
    which no stencil completes.  Element (r, c) of a block is the value at
    box position (r + 1, c + 1) plus the phase; the last 3 columns are
    not read.  So a step holds the 3 row-pass tables and one or two slabs'
    tables at a time, O(refine * box) doubles, not the refine^2 blocks of
    all phases: on the circle datum after 10 steps at eps 0.05 the step's
    traced peak is 2.5 MB against 7.5 MB with all phases built at once.

    Where a slab's spread table is 0 (a plateau site), the cubic table
    takes the bilinear value and the spread table ``_PLATEAU_SPREAD``, the
    smallest normal double 2^-1022.  Each pair reads both tables at one
    index, so only plateau pairs see the swap, and for them the clipped
    quotient (v - c) / 2^-1022 is exactly the sign of the bilinear
    difference, +0 for a tie (v is +0 for a zero cell value, see
    ``_stamp_sum``): the plateau fallback, without a pass of its own.
    (The bilinear value, not the cubic one: the cubic stencil can
    manufacture tiny extrema at kinks, which a hard sign would amplify.)
    A normal divisor, because dividing by a subnormal one is about 18
    times slower.

    The sign is exact only if every nonzero difference v - c of a cell
    value v and a plateau bilinear value c is at least 2^-1022 in
    magnitude, and ``_step_nonlocal_values`` enforces a condition that
    implies it: every nonzero |value| and |outside| is at least
    ``_VALUE_FLOOR`` = 2^-900.  The margin: the bilinear taps f / refine
    and 1 - f / refine are at least 2^-8 (``_build_stamp`` caps refine at
    256), and each pass rounds one product per tap and adds two.  A
    product of a nonzero input of magnitude at least 2^-900 is at least
    2^-908, so it and the sum of two such products are multiples of
    2^-960, and a nonzero sum is at least 2^-960; the column pass repeats
    this from 2^-960 down to multiples of 2^-1020.  So a nonzero c is a
    multiple of 2^-1020, as is v, and a nonzero v - c is at least 2^-1020,
    four times 2^-1022.

    Returns ``(slabs, entries, at)``.  ``slabs`` is an iterator that builds
    each slab's ``(cubic, spread)`` tables when asked for it, in the order
    of ``stamp.slabs``; the pair of stamp offset k and cell ``cells[m]``
    reads flat index ``entries[k] + at[m]`` of both tables of k's slab.
    """
    n1 = values.shape[1]
    ci, cj = cells // n1, cells % n1
    i0, j0 = int(ci[0]), int(cj.min())
    (b0, a0), (b1, a1) = stamp.pad
    rows, width = int(ci[-1]) - i0 + b0 + a0 + 1, int(cj.max()) - j0 + b1 + a1 + 1
    # the box's first row and column in grid indices; the box reads the
    # grid where it overlaps it and the constant extension elsewhere
    r0, c0 = i0 - b0, j0 - b1
    inner = np.s_[max(-r0, 0):, max(-c0, 0):]
    refine = stamp.refine
    cubic_taps, linear_taps = _tap_weights(refine, 3), _tap_weights(refine, 1)

    def row_pass(arr, fill, taps):
        box = np.full((rows, width), fill)
        part = arr[max(r0, 0):r0 + rows, max(c0, 0):c0 + width]
        box[inner][:part.shape[0], :part.shape[1]] = part
        return shift_taps(box.ravel(), taps, width)

    by_rows = (row_pass(values, outside, cubic_taps), row_pass(wf, 0.0, linear_taps),
               row_pass(values, outside, linear_taps))

    def slab(f0):
        def column_pass(table, taps):
            # the last 3 rows of a row pass lack a full stencil and are not read
            flat = by_rows[table][f0, :(rows - 3) * width]
            return shift_taps(flat, taps, 1).reshape(refine, rows - 3, width)

        cubic, spread = column_pass(0, cubic_taps), column_pass(1, linear_taps)
        plateau = spread == 0.0
        np.copyto(cubic, column_pass(2, linear_taps), where=plateau)
        np.copyto(spread, _PLATEAU_SPREAD, where=plateau)
        return cubic, spread

    entries = (stamp.f1 * (rows - 3) + stamp.row) * width + stamp.col
    return (slab(f0) for f0, _ in stamp.slabs), entries, (ci - i0) * width + cj - j0


# The flow step's working set: pairs (offset, cell) per elementwise pass,
# whole offsets of one phase, sized so a pass's value and spread blocks
# (1 MB together) stay in a 2 MB L2.  Each offset's gathers read the
# cells' positions, about 20 KB on the 64² circle, which stay in L1.
_BLOCK_PAIRS = 1 << 16
# The BLAS matrix-vector kernel sums the last (count mod 4) outputs of a
# product on a path that rounds differently from its main loop.  Padding
# the active-cell columns to a multiple of 16 keeps every active cell on
# the main loop, so each sum equals, bit for bit, the one a product over
# the whole grid gives when the grid's cell count is a multiple of 16.
_COLUMN_QUANTUM = 16


# Variants of the step measured on the 64² circle datum and rejected, all
# bit for bit the same as the step below:
# * gathering cubic and spread values as one interleaved (N, 2) table:
#   18.2 against 12.4 ms per step at eps 0.2;
# * gathering them as the real and imaginary parts of one complex128
#   table: the strided subtract that splits them costs what the saved
#   take saves;
# * skipping the plateau work in blocks without a plateau pair: every
#   block of the datum's steps at eps 0.2, 0.1 and 0.05 holds one;
# * splitting the phases between two threads: numpy's ``divide`` runs
#   only 1.25 times faster on two threads of a 2-core host, so the step
#   is no faster;
# * building every phase's tables before the sum, in place of one row
#   phase at a time: tables of 0.40-0.74, 0.62-1.06, 1.9-2.3 and 9.0-9.9
#   ms against 0.23, 0.65-0.66, 2.2-2.3 and 8.4-9.5 ms per step at eps
#   0.2, 0.1, 0.05 and 0.025 (10, 10, 10 and 3 steps into the run, three
#   alternating processes each), the rest of the step the same, but a
#   traced peak of 7.5 against 2.5 MB at eps 0.05 and 24.9 against 4.2 MB
#   at eps 0.025;
# * a slab's column passes with all tap rows at once in ``shift_taps``
#   (one broadcast multiply-add per node): tables of 0.39-0.47, 0.64-0.66,
#   2.0-2.3 and 6.4-6.5 ms at the same eps, so no faster at the eps of the
#   flow configs, and a buffer as large as the slab raises the traced
#   peak to 2.7 and 4.6 MB;
# * summing over the whole active box with sliding-window copies of the
#   tables, in place of the gathers: 14-40 ms against 10-15 ms per step
#   at t = 10 steps;
# * splitting the cell columns between two threads: no faster, because on
#   two threads of a 2-core host ``divide`` runs 2.0 times faster but
#   ``take``, the index add and ``clip`` only 1.23-1.35 times;
# * one (offset, cell) int64 index block per block of pairs, the broadcast
#   sum of the offsets' entries and the cells' positions, with small
#   phases grouped into runs of up to a block: the index add alone took
#   1.5 ms of a 7.9 ms step at eps 0.2, and the sum 7.7-8.2, 8.1-8.7 and
#   11.0-12.1 ms against 6.6-7.4, 6.9-7.9 and 10.0-10.2 ms for the sum
#   below at eps 0.2, 0.1 and 0.05 (10 steps in, best of 5 x 20 calls,
#   interleaved in one process).  Only at eps 0.025, which no config runs,
#   do the runs pay: its 255 phases hold 1-4 offsets each, each phase
#   makes its own three elementwise passes, and the step 10 steps in took
#   16.9 against 16.1 ms (``bench/flow_step.py``, 5 alternating runs);
# * the whole active box read through one strided view of the tables per
#   offset, in place of the gathers: 6.7-11.4 against 6.0-10.2 ms per sum
#   for the index-block gathers above;
# * one block per phase, with no split inside a phase: 8.8 against 7.3 ms
#   at eps 0.2 when first measured, since a phase's chi block (2.2 MB at
#   eps 0.2) outgrows the L2, and within 10% of the split blocks in later
#   interleaved runs; it also needs a spread buffer as large as a phase.
def _stamp_sum(values, outside, wf, cells, stamp) -> np.ndarray:
    """sum_k weight_k * chi_k at the flat ``cells``, one phase at a time."""
    slabs, entries, at = _phase_tables(values, outside, wf, cells, stamp)
    n = len(cells)
    cols = -(-n // _COLUMN_QUANTUM) * _COLUMN_QUANTUM
    # padding columns repeat cell 0; their sums are dropped
    fill = np.zeros(cols - n, dtype=np.intp)
    at = np.concatenate([at, at[fill]])
    # + 0.0 turns a -0 cell value into +0, so a tie's quotient is +0
    v = values.ravel()[np.concatenate([cells, cells[fill]])] + 0.0
    rows = max(1, _BLOCK_PAIRS // cols)
    chi, ww = (buf[:len(buf) // cols * cols].reshape(-1, cols) for buf in stamp.scratch)
    hk = np.zeros(cols)
    # a plateau quotient overflows to +-inf once |v - c| >= 4; the clip
    # turns it into the sign all the same
    with np.errstate(over="ignore"):
        for (_, bounds), (cubic, spread) in zip(stamp.slabs, slabs):
            cubic, spread = cubic.ravel(), spread.ravel()
            for first, stop in itertools.pairwise(bounds):
                for lo in range(first, stop, rows):
                    hi = min(lo + rows, stop)
                    c, w = chi[lo - first:hi - first], ww[:hi - lo]
                    for e, c_row, w_row in zip(entries[lo:hi].tolist(), c, w):
                        # the offset's row: the tables from its entry on,
                        # read at the cells' positions, which stay inside
                        # the table, so "wrap" only skips a buffered check;
                        # the ndarray methods skip numpy's Python wrappers
                        cubic[e:].take(at, out=c_row, mode="wrap")
                        spread[e:].take(at, out=w_row, mode="wrap")
                    np.subtract(v, c, out=c)
                    np.divide(c, w, out=c)
                    c.clip(-1.0, 1.0, out=c)
                # np.tensordot(weights, chi, axes=(0, 0)) makes this same call
                hk += np.dot(stamp.weights[None, first:stop], chi[:stop - first])[0]
    return hk[:n]


def _step_nonlocal_values(values, outside, h, stamp, eps, dt, floor):
    if values.shape != stamp.grid:
        raise FlowDomainError("the stamp was laid out for a different grid")
    if 0.0 < abs(outside) < _VALUE_FLOOR or np.any(
            (np.abs(values) < _VALUE_FLOOR) & (values != 0.0)):
        raise FlowDomainError(
            "the nonlocal step needs every nonzero |value| and |outside| at "
            "least 2^-900; rescale the field"
        )
    cgx, cgy = _gradient(values, outside, h)
    gmag = np.sqrt(cgx * cgx + cgy * cgy)
    active = (gmag >= floor) & (gmag > 0.0)
    cells = np.flatnonzero(active)
    hk = np.zeros(values.shape)
    if len(cells):
        # half the value range a linear field spans across one stamp cell
        wf = 0.5 * (np.abs(cgx) * h[0] + np.abs(cgy) * h[1]) / stamp.refine
        hk.ravel()[cells] = _stamp_sum(values, outside, wf, cells, stamp)
    return values - dt * np.where(active, gmag * hk / eps, 0.0)


# --------------------------------------------------------------------------
# diagnostics on a single field


def max_lipschitz(field: GridField) -> float:
    """Largest |difference| / spacing over adjacent cell pairs along x and y."""
    vals = field.values
    hx, hy = field.box.spacing
    return max(float((np.abs(np.diff(vals, axis=0)) / hx).max()),
               float((np.abs(np.diff(vals, axis=1)) / hy).max()))


def zero_level_area(field: GridField) -> float:
    """Area of the zero superlevel set with a linear sub-cell correction.

    Within each cell the field is treated as linear, so the covered
    fraction is clip(1/2 + phi / (|gx| h1 + |gy| h2), 0, 1); flat cells
    count fully when phi >= 0.
    """
    vals = field.values
    h = field.box.spacing
    gx, gy = _gradient(vals, field.outside, h)
    half_range = 0.5 * (np.abs(gx) * h[0] + np.abs(gy) * h[1])
    flat = half_range == 0.0
    safe = np.where(flat, 1.0, half_range)
    frac = np.clip(0.5 + 0.5 * vals / safe, 0.0, 1.0)
    frac = np.where(flat, (vals >= 0.0).astype(float), frac)
    return float(np.sum(frac)) * float(np.prod(h))


def zero_level_radius(field: GridField) -> float:
    """Radius of the disk with the same zero superlevel area."""
    return math.sqrt(max(zero_level_area(field), 0.0) / math.pi)


# --------------------------------------------------------------------------
# trajectories


class MonitorRow(NamedTuple):
    t: float
    zero_level_area: float
    max_lipschitz: float


@dataclass(frozen=True)
class Trajectory:
    dt: float
    times: tuple
    snapshots: tuple
    monitor: tuple

    @property
    def final(self) -> GridField:
        return self.snapshots[-1]


def evolve(
    u0: GridField,
    kernel: Kernel,
    T: float,
    *,
    eps: float | None = None,
    dt: float | None = None,
    n_snapshots: int = 8,
) -> Trajectory:
    """Run an explicit level-set evolution and collect snapshots + monitors.

    ``eps=None`` runs the local update, with the kernel's hyperplane second
    moment as diffusivity; a given ``eps`` runs the nonlocal update with
    the kernel rescaled by it.  Either way the stability bound on ``dt``
    reads that second moment.  ``dt`` defaults to the bound and is then
    shrunk so an integer number of steps lands exactly on ``T``.  The
    ``n_snapshots`` + 1 evenly spaced snapshot times snap to the nearest
    step; the recorded times are the actual ones.  Cells whose gradient
    falls below 1e-6 times the initial value range are frozen.  A step that
    grows max|phi| past 10 times its initial value (``BLOWUP_FACTOR``)
    aborts the run.
    """
    kernels.require_planar(kernel)
    check_constant_ring(u0, FlowDomainError)
    if not (math.isfinite(T) and T >= 0.0):
        raise FlowDomainError("T must be finite and nonnegative")

    kappa = kernels.hyperplane_second_moment(kernel)
    bound = dt_bound(kappa, u0.box)
    dt_req = bound if dt is None else float(dt)
    _check_dt(dt_req, bound)
    stamp = None if eps is None else _build_stamp(kernel, eps, u0.box)

    h = u0.box.spacing
    outside = u0.outside
    floor = 1e-6 * float(np.ptp(u0.values))
    n_steps = 0 if T == 0.0 else int(math.ceil(T / dt_req - 1e-12))
    dt_run = T / n_steps if n_steps else dt_req

    if not n_snapshots >= 1:
        raise FlowDomainError("n_snapshots must be at least 1")
    requested = np.linspace(0.0, T, n_snapshots + 1)
    snap_steps = sorted(set(
        int(np.clip(np.rint(t / dt_run), 0, n_steps)) if n_steps else 0
        for t in requested
    ))

    vals = u0.values
    limit = BLOWUP_FACTOR * max(float(np.max(np.abs(vals))), 1e-30)
    times: list[float] = []
    snaps: list[GridField] = []
    rows: list[MonitorRow] = []

    def record(step: int, v: np.ndarray) -> None:
        t = step * dt_run
        f = u0.with_values(v)
        rows.append(MonitorRow(t, zero_level_area(f), max_lipschitz(f)))
        if step in snap_steps:
            times.append(t)
            snaps.append(f)

    record(0, vals)
    for step in range(1, n_steps + 1):
        if stamp is None:
            vals = _step_local_values(vals, outside, h, kappa, dt_run, floor)
        else:
            vals = _step_nonlocal_values(vals, outside, h, stamp, eps, dt_run, floor)
        top = float(np.max(np.abs(vals)))
        if top > limit:
            raise FlowBlowUpError(
                f"max|phi| = {top:.3g} exceeded {BLOWUP_FACTOR:g} x initial "
                f"at t = {step * dt_run:.6g}"
            )
        record(step, vals)

    return Trajectory(
        dt=dt_run,
        times=tuple(times),
        snapshots=tuple(snaps),
        monitor=tuple(rows),
    )


# --------------------------------------------------------------------------
# a-priori estimate monitors


@dataclass(frozen=True)
class FlowMonitorReport:
    """Per-snapshot ``(t, zero_level_area, max_lipschitz, holder_stat)`` rows.

    ``holder_stat`` is the running Hölder quotient: the largest
    |u(t)-u(s)| / sqrt(t-s) against any earlier snapshot s.
    """

    rows: tuple

    @property
    def spatial_lipschitz(self) -> tuple:
        return tuple(r[2] for r in self.rows)

    @property
    def holder_constant(self) -> float:
        """Largest Hölder quotient over all snapshot pairs."""
        return max(r[3] for r in self.rows)

    def lipschitz_within(self, slack: float) -> bool:
        """Every snapshot constant stays below slack * the initial one."""
        lips = self.spatial_lipschitz
        return max(lips) <= slack * lips[0] + 1e-15


def monitors(trajectory: Trajectory) -> FlowMonitorReport:
    """Discrete forms of the flow's a-priori estimates over the snapshots."""
    ts = trajectory.times
    fields = trajectory.snapshots
    rows = []
    for j, (t, f) in enumerate(zip(ts, fields)):
        stat = 0.0
        for i in range(j):
            diff = float(np.max(np.abs(f.values - fields[i].values)))
            stat = max(stat, diff / math.sqrt(t - ts[i]))
        rows.append((t, zero_level_area(f), max_lipschitz(f), stat))
    return FlowMonitorReport(tuple(rows))


# --------------------------------------------------------------------------
# initial data


def shrinking_circle_datum(box, radius: float, band: float = 0.28) -> GridField:
    """Clamped signed-distance datum for a circle, with rounded clamp corners.

    The radial profile equals ``radius - |x|`` where |values| <= band - 2w
    and flattens quadratically to the plateaus +-(band - w) over a width
    2w (w = two cells), so the datum is C^1 with |gradient| <= 1 and is
    constant outside |x| = radius + band.
    """
    if not 0.0 < radius:
        raise FlowDomainError("radius must be positive")
    w = 2.0 * float(np.max(box.spacing))
    if not 2.0 * w < band:
        raise FlowDomainError("the band must be wider than four cells")
    pts = box.centers()
    s = radius - np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2)
    a = np.abs(s)
    flat = band - w
    inner = np.where(a <= band - 2.0 * w, a, flat - (band - a) ** 2 / (4.0 * w))
    vals = np.sign(s) * np.where(a >= band, flat, inner)
    field = GridField(box, vals, "level-set", -flat)
    # the lower plateau must close inside the box
    check_constant_ring(field, FlowDomainError)
    return field
