"""Nonlocal geometric functionals and their local limits.

Numerical library for kernel-weighted perimeters, total variations,
curvatures and rate energies, their concentration rescalings, and
desk-scale experiments confirming the corresponding local asymptotics.

Imports follow what a run executes.  ``nlgeom.cli`` loads ``kernels`` and
``fields`` at import, because every run needs them; it imports ``energy``,
``anisotropy``, ``flow``, ``rate`` and ``curvature`` inside the experiment
bodies that call them, ``energy`` imports ``anisotropy`` inside
``limit_tv``, and ``concurrent.futures`` is loaded only for a flow run
with more than one worker.  So ``nlgeom --list`` loads no layer beyond those two, and a run
loads the layers its experiment calls.  The seeded bodies (halfspace-cell,
submodularity, effective-kernel) import ``draws``, which reproduces
numpy's ``default_rng`` stream, so no run loads numpy's ``random``
subpackage or the ``hashlib`` it pulls in.  The package imports no scipy:
its only runtime dependency is numpy.  The import-budget probe in
``tests/test_cli.py`` checks the module sets of ``--list`` and of one run
per experiment family.

Every layer's domain error (``FieldDomainError``, ``KernelDomainError``,
``EnergyDomainError`` and so on) subclasses :class:`DomainError`, so the
CLI maps a library error that a config value leads to onto exit status 2
without importing the layers.  ``flow.FlowBlowUpError`` is a
``RuntimeError``, not a domain error: an unstable run is not a config
mistake.
"""

__version__ = "0.1.0"


class DomainError(ValueError):
    """A library call used outside its contract; base of each layer's error."""
