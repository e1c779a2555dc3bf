"""Median wall time of one nonlocal flow step, per eps, on the 64² circle.

    PYTHONPATH=src python3 bench/flow_step.py [--repeats N]

Times ``flow._step_nonlocal_values`` on the flow configs' initial datum
(ball kernel, radius 0.5, band 0.28, 64² cells on [-1, 1]²) at the
parabolic dt bound, after one untimed warm-up step.  The stamp is built
once per eps, outside the timing, as ``evolve`` does.  Prints one line
per eps: refine factor, stamp offsets, phase groups, active cells and
the median and quartiles of the step in ms.  A second table gives the
step's work counters at t = 0: the shape of the cropped phase tables
(blocks x rows x columns), the (offset, active cell) pairs, and how many
of them read a zero spread (plateau pairs, whose indicator is a sign)
and how many of those tie with the cell's value (indicator 0).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from nlgeom import flow, kernels
from nlgeom.fields import Box


def plateau_counts(values, outside, wf, cells, stamp) -> tuple:
    """Table shape, pairs, zero-spread pairs and ties of one step's sum."""
    cubic, spread, entries, at = flow._phase_tables(values, outside, wf, cells, stamp)
    ix = entries[:, None] + at
    flat = np.take(spread, ix) == 0.0
    # at a zero-spread index the cubic table holds the bilinear value
    ties = flat & (np.take(cubic, ix) == values.ravel()[cells])
    return cubic.shape, ix.size, int(np.count_nonzero(flat)), int(np.count_nonzero(ties))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    kernel = kernels.ball_indicator(d=2, radius=1.0)
    box = Box.cube(1.0, 64)
    u0 = flow.shrinking_circle_datum(box, 0.5, band=0.28)
    dt = flow.dt_bound(flow.curvature_coefficient(kernel), box)
    floor = 1e-6 * float(np.ptp(u0.values))
    gx, gy = flow._gradient(u0.values, u0.outside, box.spacing)
    gmag = np.sqrt(gx * gx + gy * gy)
    cells = np.flatnonzero((gmag >= floor) & (gmag > 0.0))
    active = len(cells)
    counters = []
    print("eps   refine  offsets  groups  active   median_ms  q1_ms  q3_ms")
    for eps in (0.2, 0.1, 0.05):
        stamp = flow._build_stamp(kernel, eps, box)
        wf = 0.5 * (np.abs(gx) * box.spacing[0] + np.abs(gy) * box.spacing[1]) / stamp.refine
        counters.append((eps, *plateau_counts(u0.values, u0.outside, wf, cells, stamp)))

        def step():
            return flow._step_nonlocal_values(
                u0.values, u0.outside, box.spacing, stamp, eps, dt, floor)

        step()
        ms = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            step()
            ms.append(1e3 * (time.perf_counter() - t0))
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        print(f"{eps:<5g} {stamp.refine:>6d} {len(stamp.weights):>8d} "
              f"{len(stamp.bounds) - 1:>7d} {active:>7d} {med:>10.2f} "
              f"{q1:>6.2f} {q3:>6.2f}")
    print("eps   table        pairs    zero_spread  ties")
    for eps, shape, pairs, flat, ties in counters:
        print(f"{eps:<5g} {'x'.join(map(str, shape)):<12} {pairs:>8d} {flat:>12d} {ties:>5d}")


if __name__ == "__main__":
    main()
