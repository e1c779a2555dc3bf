"""Median wall time and traced peak memory of grid rate energies, 64² bump.

    PYTHONPATH=src python3 bench/rate_shift.py [--repeats N]

Times ``rate.rate_ddim`` on the regularity config's field (the radial bump
(1 - |x|²)²₊ on 64² cells of [-1.1, 1.1]², ball kernel, f = t²) at eps 0.1
and 0.05 with 16 and 32 directions, and ``rate.slicing_check`` at eps 0.1
(the bbm-slice config), after one untimed warm-up call each.  Prints one
line per call: the call, eps, directions, the value it returns, the
median and quartiles of its wall time in ms, and the peak of the memory
``tracemalloc`` traces during one further call, in MB (numpy reports its
array buffers to ``tracemalloc``; that call is not timed).
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from nlgeom import kernels, rate
from nlgeom.fields import Box, GridField


def _bump() -> GridField:
    box = Box.cube(1.1, 64)
    r2 = np.sum(box.centers() ** 2, axis=-1)
    vals = np.clip(1.0 - r2, 0.0, None) ** 2
    return GridField(box, vals.reshape(box.resolution), "phase")


def _time(call, repeats: int) -> tuple:
    value = call()
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t0))
    tracemalloc.start()
    call()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return (value, *np.percentile(ms, [50, 25, 75]), peak_mb)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    u = _bump()
    kernel = kernels.ball_indicator(d=2)
    pot = rate.Potential.quadratic()
    print("call           eps    dirs  value               median_ms  q1_ms     q3_ms"
          "     peak_mb")
    for n_angular in (16, 32):
        for eps in (0.1, 0.05):
            value, med, q1, q3, peak = _time(
                lambda: rate.rate_ddim(u, kernel, pot, eps, n_angular).e_eps,
                args.repeats)
            print(f"rate_ddim      {eps:<6g} {n_angular:>4d}  {value:<18.12g} "
                  f"{med:>9.1f}  {q1:>8.1f}  {q3:>8.1f}  {peak:>8.2f}")
    value, med, q1, q3, peak = _time(
        lambda: rate.slicing_check(u, kernel, pot, 0.1).direct, args.repeats)
    print(f"slicing_check  {0.1:<6g} {16:>4d}  {value:<18.12g} "
          f"{med:>9.1f}  {q1:>8.1f}  {q3:>8.1f}  {peak:>8.2f}")


if __name__ == "__main__":
    main()
