"""Milliseconds per boundary point of ``curvature.hk_pv`` on the curvature-limit disk.

    PYTHONPATH=src python3 bench/hk_pv.py [--repeats N]

Uses the shipped curvature-limit setup (disk of radius 0.5, fractional
kernel sigma 0.5 radius 1, 16 boundary samples) and times every sample's
``hk_pv`` call at each eps, after one untimed warm-up pass.  One more,
untimed pass counts the work per point: Brent lanes (crossing angles
solved), batched Brent passes per solve (the slowest lane's iterations)
and dense-fallback radii.  Prints one line per eps with those counts,
the median and quartiles of the per-point time in ms, and the median over
the points of the actual error |hk_pv - H| beside the median error
estimate ``err`` that hk_pv reports, H the disk's curvature from
``kernels.disk_reference``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from nlgeom import curvature, kernels
from nlgeom.fields import Ball


def _count_work(disk, points, kernel):
    """Lanes, passes per solve and dense radii per point, by wrapping the solver."""
    lanes, passes, dense = [], [], []
    brentq, dense_mean = curvature._brentq_lanes, curvature._dense_sign_mean

    def counting_brentq(f, a, b, xtol):
        calls = [0]

        def counted(theta, k):
            calls[0] += 1
            return f(theta, k)

        roots = brentq(counted, a, b, xtol)
        lanes[-1] += len(a)
        passes.append(calls[0] - 2)  # the first two calls evaluate the bracket ends
        return roots

    def counting_dense(*args):
        dense[-1] += 1
        return dense_mean(*args)

    curvature._brentq_lanes = counting_brentq
    curvature._dense_sign_mean = counting_dense
    try:
        for p in points:
            lanes.append(0)
            dense.append(0)
            curvature.hk_pv(disk, p, kernel)
    finally:
        curvature._brentq_lanes, curvature._dense_sign_mean = brentq, dense_mean
    return np.median(lanes), max(passes, default=0), np.median(dense)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    disk = Ball((0.0, 0.0), 0.5)
    base = kernels.fractional(2, 0.5, 1.0)
    points = disk.boundary_sample(16).points
    print("eps   lanes/pt  passes/solve  dense/pt   median_ms  q1_ms  q3_ms"
          "  actual_err  est_err")
    for eps in (0.4, 0.2, 0.1, 0.05):
        kernel = kernels.rescale(base, eps)
        for p in points:
            curvature.hk_pv(disk, p, kernel)
        ms = []
        for _ in range(args.repeats):
            for p in points:
                t0 = time.perf_counter()
                curvature.hk_pv(disk, p, kernel)
                ms.append(1e3 * (time.perf_counter() - t0))
        lanes, passes, dense = _count_work(disk, points, kernel)
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        _, want = kernels.disk_reference(kernel, 0.5)
        cvs = [curvature.hk_pv(disk, p, kernel) for p in points]
        actual = np.median([abs(cv.value - want) for cv in cvs])
        estimate = np.median([cv.err for cv in cvs])
        print(f"{eps:<5g} {lanes:>8g} {passes:>13d} {dense:>9g} {med:>11.3f} "
              f"{q1:>6.3f} {q3:>6.3f} {actual:>11.2e} {estimate:>8.2e}")


if __name__ == "__main__":
    main()
