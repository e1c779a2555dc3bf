"""Nonlocal geometric functionals and their local limits.

Numerical library for kernel-weighted perimeters, total variations,
curvatures and rate energies, their concentration rescalings, and
desk-scale experiments confirming the corresponding local asymptotics.
Library modules import scipy only inside the function that calls it, so a
run loads only the scipy it uses; the import-budget tests in
``tests/test_cli.py`` enforce this.
"""

__version__ = "0.1.0"
