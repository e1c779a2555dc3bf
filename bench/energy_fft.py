"""Median wall time and traced peak memory of the energy's FFT pair counts.

    PYTHONPATH=src python3 bench/energy_fft.py [--repeats N]

Times one ``energy._binary_pair_counts`` call, the J1/J2 pair counts of a
0/1 field, on the fields of two configs, at each of their eps with the
ball kernel: halfspace-cell's halfspace in the unit-disk window on its
grid of half-width 1.25 at 256² (the benchmark's size) and 384² (the
shipped size), and perimeter-limit's disk of radius 0.5 in the same window
on its 288² grid of half-width 1.1.  After one untimed warm-up call each,
prints one line per call: the config, grid, eps, the padded transform
size, the median and quartiles of the wall time in ms, and the peak of the
memory ``tracemalloc`` traces during one further call, in MB and in
spectra (one spectrum is size0 x (size1 // 2 + 1) complex128 values; numpy
reports its array buffers to ``tracemalloc``; that call is not timed).
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from nlgeom import energy, kernels
from nlgeom.fields import Ball, Box, Halfspace, rasterize

# (config, shape, grid half-width, resolution, eps values)
CASES = (
    ("halfspace-cell", Halfspace((1.0, 0.0), 0.0), 1.25, 256, (0.2, 0.1, 0.05)),
    ("halfspace-cell", Halfspace((1.0, 0.0), 0.0), 1.25, 384, (0.2, 0.1, 0.05)),
    ("perimeter-limit", Ball((0.0, 0.0), 0.5), 1.1, 288, (0.4, 0.2, 0.1, 0.05)),
)
WINDOW = Ball((0.0, 0.0), 1.0)


def _time(call, repeats: int) -> tuple:
    call()
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t0))
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return (*np.percentile(ms, [50, 25, 75]), peak)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    unit = kernels.ball_indicator(d=2)
    print("config           grid  eps    fft_size   median_ms  q1_ms     q3_ms"
          "     peak_mb  spectra")
    for name, shape, half_w, n, eps_list in CASES:
        grid = Box.cube(half_w, n)
        u = rasterize(shape, grid).values
        omega = energy._omega_mask(WINDOW, grid)
        for eps in eps_list:
            offsets, _ = energy._stencil(kernels.rescale(unit, eps), grid)
            size = energy._fft_size(u.shape, offsets)
            spectrum = size[0] * (size[1] // 2 + 1) * np.dtype(complex).itemsize
            med, q1, q3, peak = _time(
                lambda: energy._binary_pair_counts(u, 0.0, omega, offsets), args.repeats)
            print(f"{name:<16} {n:>4d}  {eps:<6g} {size[0]:>4d}x{size[1]:<4d} "
                  f"{med:>9.2f}  {q1:>8.2f}  {q3:>8.2f}  {peak / 1e6:>8.2f}  "
                  f"{peak / spectrum:>7.2f}")


if __name__ == "__main__":
    main()
