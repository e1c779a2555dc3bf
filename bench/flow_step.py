"""Median wall time of one nonlocal flow step, per eps, on the 64² circle.

    PYTHONPATH=src python3 bench/flow_step.py [--repeats N]

Times ``flow._step_nonlocal_values`` on the flow configs' initial datum
(ball kernel, radius 0.5, band 0.28, 64² cells on [-1, 1]²) at the
parabolic dt bound, after one untimed warm-up step.  The stamp is built
once per eps, outside the timing, as ``evolve`` does.  A flow run does not
stay at t = 0: within a few steps the band of active cells widens, so each
eps is timed on a second datum too, the field after 10 untimed steps at
the same dt.  Prints one line per eps: refine factor, stamp offsets and
phase groups, then for each datum its active cells, the shape of its
cropped phase tables (blocks x rows x columns) and the median and
quartiles of the step in ms.  A second table gives each datum's work
counters: the (offset, active cell) pairs, and how many of them read a
zero spread (plateau pairs, whose indicator is a sign) and how many of
those tie with the cell's value (indicator 0).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from nlgeom import flow, kernels
from nlgeom.fields import Box


LATER_STEPS = 10


def plateau_counts(values, outside, wf, cells, stamp) -> tuple:
    """Table shape, pairs, zero-spread pairs and ties of one step's sum."""
    cubic, spread, entries, at = flow._phase_tables(values, outside, wf, cells, stamp)
    ix = entries[:, None] + at
    flat = np.take(spread, ix) == 0.0
    # at a zero-spread index the cubic table holds the bilinear value
    ties = flat & (np.take(cubic, ix) == values.ravel()[cells])
    return cubic.shape, ix.size, int(np.count_nonzero(flat)), int(np.count_nonzero(ties))


def datum_counters(values, outside, box, floor, stamp) -> tuple:
    """Active cells, then :func:`plateau_counts`, of one step from ``values``."""
    gx, gy = flow._gradient(values, outside, box.spacing)
    gmag = np.sqrt(gx * gx + gy * gy)
    cells = np.flatnonzero((gmag >= floor) & (gmag > 0.0))
    wf = 0.5 * (np.abs(gx) * box.spacing[0] + np.abs(gy) * box.spacing[1]) / stamp.refine
    return (len(cells), *plateau_counts(values, outside, wf, cells, stamp))


def step_ms(values, outside, box, stamp, eps, dt, floor, repeats) -> np.ndarray:
    """Quartiles of the step from ``values`` in ms, after one untimed warm-up."""

    def step():
        return flow._step_nonlocal_values(values, outside, box.spacing, stamp, eps, dt, floor)

    step()
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        step()
        ms.append(1e3 * (time.perf_counter() - t0))
    return np.percentile(ms, [25, 50, 75])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    kernel = kernels.ball_indicator(d=2, radius=1.0)
    box = Box.cube(1.0, 64)
    u0 = flow.shrinking_circle_datum(box, 0.5, band=0.28)
    dt = flow.dt_bound(flow.curvature_coefficient(kernel), box)
    floor = 1e-6 * float(np.ptp(u0.values))
    counters = []
    print(f"{'':31}{'t = 0':<44}after {LATER_STEPS} steps")
    print("eps   refine  offsets  groups" + "  active  table      median_ms  q1_ms  q3_ms" * 2)
    for eps in (0.2, 0.1, 0.05):
        stamp = flow._build_stamp(kernel, eps, box)
        later = u0.values
        for _ in range(LATER_STEPS):
            later = flow._step_nonlocal_values(later, u0.outside, box.spacing, stamp, eps,
                                               dt, floor)
        row = f"{eps:<5g} {stamp.refine:>6d} {len(stamp.weights):>8d} {len(stamp.bounds) - 1:>7d}"
        for step, values in ((0, u0.values), (LATER_STEPS, later)):
            work = datum_counters(values, u0.outside, box, floor, stamp)
            counters.append((eps, step, *work))
            q1, med, q3 = step_ms(values, u0.outside, box, stamp, eps, dt, floor, args.repeats)
            row += (f" {work[0]:>7d}  {'x'.join(map(str, work[1])):<10} {med:>9.2f} "
                    f"{q1:>6.2f} {q3:>6.2f}")
        print(row)
    print("eps   step  active  table        pairs    zero_spread  ties")
    for eps, step, active, shape, pairs, flat, ties in counters:
        print(f"{eps:<5g} {step:>4d} {active:>7d}  {'x'.join(map(str, shape)):<12} "
              f"{pairs:>8d} {flat:>12d} {ties:>5d}")


if __name__ == "__main__":
    main()
