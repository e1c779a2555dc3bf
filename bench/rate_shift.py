"""Median wall time, traced peak memory and page faults of grid rate energies.

    PYTHONPATH=src python3 bench/rate_shift.py [--repeats N]

Times ``rate.rate_ddim`` on the regularity config's field (the radial bump
(1 - |x|²)²₊ on 64² cells of [-1.1, 1.1]², ball kernel, f = t²) at eps 0.1
and 0.05 with 16 and 32 directions, and ``rate.slicing_check`` at eps 0.1
on the same bump at 64² (the bbm-slice config), 96² and 128² cells, after
one untimed warm-up call each.  Prints one line per call: the call, the
cells per side, eps, directions, the value it returns, the median and
quartiles of its wall time in ms, the minor page faults of one further
call (the ``getrusage`` delta; the process is warm, so these are pages
the allocator gave back and took again) and the peak of the memory
``tracemalloc`` traces during one more call, in MB (numpy reports its
array buffers to ``tracemalloc``; neither of those calls is timed).
"""

from __future__ import annotations

import argparse
import resource
import time
import tracemalloc

import numpy as np

from nlgeom import kernels, rate
from nlgeom.fields import Box, GridField


def _bump(cells: int) -> GridField:
    box = Box.cube(1.1, cells)
    r2 = np.sum(box.centers() ** 2, axis=-1)
    vals = np.clip(1.0 - r2, 0.0, None) ** 2
    return GridField(box, vals.reshape(box.resolution), "phase")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _time(call, repeats: int) -> tuple:
    value = call()
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t0))
    before = _minor_faults()
    call()
    faults = _minor_faults() - before
    tracemalloc.start()
    call()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return (value, *np.percentile(ms, [50, 25, 75]), faults, peak_mb)


def _print(name, cells, eps, n_angular, value, med, q1, q3, faults, peak) -> None:
    print(f"{name:<14} {cells:>5d}  {eps:<6g} {n_angular:>4d}  {value:<18.12g} "
          f"{med:>9.1f}  {q1:>8.1f}  {q3:>8.1f}  {faults:>7d}  {peak:>8.2f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    kernel = kernels.ball_indicator(d=2)
    pot = rate.Potential.quadratic()
    print("call           cells  eps    dirs  value               median_ms  q1_ms     q3_ms"
          "     minflt   peak_mb")
    u = _bump(64)
    for n_angular in (16, 32):
        for eps in (0.1, 0.05):
            _print("rate_ddim", 64, eps, n_angular, *_time(
                lambda: rate.rate_ddim(u, kernel, pot, eps, n_angular).e_eps, args.repeats))
    for cells in (64, 96, 128):
        u = _bump(cells)
        _print("slicing_check", cells, 0.1, 16, *_time(
            lambda: rate.slicing_check(u, kernel, pot, 0.1).direct, args.repeats))


if __name__ == "__main__":
    main()
