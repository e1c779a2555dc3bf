"""Median wall time of one nonlocal flow step, per eps, on the 64² circle.

    PYTHONPATH=src python3 bench/flow_step.py [--repeats N]

Times ``flow._step_nonlocal_values`` on the flow configs' initial datum
(ball kernel, radius 0.5, band 0.28, 64² cells on [-1, 1]²) at the
parabolic dt bound, after one untimed warm-up step.  The stamp is built
once per eps, outside the timing, as ``evolve`` does.  A flow run does not
stay at t = 0: within a few steps the band of active cells widens, so each
eps is timed on a second datum too, the field after 10 untimed steps at
the same dt.  A step builds its phase tables one row phase (a slab) at a
time and, per stamp offset, gathers the offset's row from the slab's
tables at the active cells' flat positions, starting at the offset's
entry; the rest of it is the elementwise passes and one dot product per
phase.  Prints one line per eps: refine factor, stamp offsets, phase
groups and row-phase slabs, then for each datum its active cells, the
shape of one slab's phase tables (blocks x rows x columns; a step holds
one slab at a time), the median and quartiles of the step in ms, the
median of ``flow._phase_tables`` alone in ms (every slab's tables built,
as a step builds them; the rest of the step is the pair sum) and the peak
of the step's traced allocations in MB (``tracemalloc``, one untimed
step).  A second table gives each datum's work counters: the (offset,
active cell) pairs, how many of them read a plateau site (a zero in-cell
spread, which the spread table marks with ``flow._PLATEAU_SPREAD``; the
pair's indicator is a sign) and how many of those tie with the cell's
value (indicator 0), and the step's median time per pair in ns.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from nlgeom import flow, kernels
from nlgeom.fields import Box


LATER_STEPS = 10


def plateau_counts(values, outside, wf, cells, stamp) -> tuple:
    """Slab table shape, pairs, plateau pairs and ties of one step's sum."""
    slabs, entries, at = flow._phase_tables(values, outside, wf, cells, stamp)
    v = values.ravel()[cells]
    pairs = flat = ties = 0
    for (_, bounds), (cubic, spread) in zip(stamp.slabs, slabs):
        ix = entries[bounds[0]:bounds[-1], None] + at
        plateau = np.take(spread, ix) == flow._PLATEAU_SPREAD
        pairs += ix.size
        flat += int(np.count_nonzero(plateau))
        # at a plateau site the cubic table holds the bilinear value
        ties += int(np.count_nonzero(plateau & (np.take(cubic, ix) == v)))
    return cubic.shape, pairs, flat, ties


def active_cells(values, outside, box, floor, stamp) -> tuple:
    """A step's active cells from ``values`` and its in-cell spread field."""
    gx, gy = flow._gradient(values, outside, box.spacing)
    gmag = np.sqrt(gx * gx + gy * gy)
    cells = np.flatnonzero((gmag >= floor) & (gmag > 0.0))
    wf = 0.5 * (np.abs(gx) * box.spacing[0] + np.abs(gy) * box.spacing[1]) / stamp.refine
    return cells, wf


def step_ms(values, outside, box, stamp, eps, dt, floor, wf, cells, repeats) -> tuple:
    """Quartiles of the step from ``values`` in ms, after one untimed warm-up,
    the median of its phase tables alone in ms, and the peak of one step's
    traced allocations in MB.  ``cells`` and ``wf`` are
    :func:`active_cells` of ``values``.  Each repeat times one step, then
    one build of every slab's tables."""

    def step():
        return flow._step_nonlocal_values(values, outside, box.spacing, stamp, eps, dt, floor)

    def tables():
        slabs, _, _ = flow._phase_tables(values, outside, wf, cells, stamp)
        for _ in slabs:
            pass

    step()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    ms = np.empty((repeats, 2))
    for row in ms:
        for j, call in enumerate((step, tables)):
            t0 = time.perf_counter()
            call()
            row[j] = 1e3 * (time.perf_counter() - t0)
    return (*np.percentile(ms[:, 0], [25, 50, 75]), float(np.median(ms[:, 1])), peak)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    kernel = kernels.ball_indicator(d=2, radius=1.0)
    box = Box.cube(1.0, 64)
    u0 = flow.shrinking_circle_datum(box, 0.5, band=0.28)
    dt = flow.dt_bound(kernels.hyperplane_second_moment(kernel), box)
    floor = 1e-6 * float(np.ptp(u0.values))
    counters = []
    print(f"{'':38}{'t = 0':<63}after {LATER_STEPS} steps")
    print("eps   refine  offsets  groups  slabs"
          + "  active  table       median_ms  q1_ms  q3_ms  tables_ms  peak_mb" * 2)
    for eps in (0.2, 0.1, 0.05, 0.025):
        stamp = flow._build_stamp(kernel, eps, box)
        later = u0.values
        for _ in range(LATER_STEPS):
            later = flow._step_nonlocal_values(later, u0.outside, box.spacing, stamp, eps,
                                               dt, floor)
        groups = sum(len(bounds) - 1 for _, bounds in stamp.slabs)
        row = (f"{eps:<5g} {stamp.refine:>6d} {len(stamp.weights):>8d} {groups:>7d} "
               f"{len(stamp.slabs):>6d}")
        for step, values in ((0, u0.values), (LATER_STEPS, later)):
            cells, wf = active_cells(values, u0.outside, box, floor, stamp)
            work = (len(cells), *plateau_counts(values, u0.outside, wf, cells, stamp))
            q1, med, q3, tables, peak = step_ms(values, u0.outside, box, stamp, eps, dt,
                                                floor, wf, cells, args.repeats)
            counters.append((eps, step, *work, 1e6 * med / work[2]))
            row += (f" {work[0]:>7d}  {'x'.join(map(str, work[1])):<11} {med:>9.2f} "
                    f"{q1:>6.2f} {q3:>6.2f} {tables:>10.2f} {peak:>8.2f}")
        print(row)
    print("eps   step  active  table        pairs    plateau   ties  ns_per_pair")
    for eps, step, active, shape, pairs, flat, ties, ns in counters:
        print(f"{eps:<5g} {step:>4d} {active:>7d}  {'x'.join(map(str, shape)):<12} "
              f"{pairs:>8d} {flat:>8d} {ties:>6d} {ns:>12.2f}")


if __name__ == "__main__":
    main()
