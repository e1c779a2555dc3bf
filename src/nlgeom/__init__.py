"""Nonlocal geometric functionals and their local limits.

Numerical library for kernel-weighted perimeters, total variations,
curvatures and rate energies, their concentration rescalings, and
desk-scale experiments confirming the corresponding local asymptotics.
The only scipy left is in ``kernels._radial_moment``: ``special.gamma``
for gaussian kernels and ``integrate.quad`` for custom ones (the
effective-kernel experiment).  It is imported inside that function, so a
run loads scipy only when it reaches one of those kernels; the
import-budget tests in ``tests/test_cli.py`` enforce this.
"""

__version__ = "0.1.0"
