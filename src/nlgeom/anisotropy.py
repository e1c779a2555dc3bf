"""Anisotropic surface tension of an interaction kernel.

For a kernel K with finite first moment the direction-dependent weight

    sigma(p) = (1/2) * integral K(z) |z . p| dz

is a norm, the density of the local limit of the rescaled perimeters.
Every built-in kernel family is radial, so the radial-angular
factorization gives sigma(p) = kappa |p|, with kappa the hyperplane second
moment of K, computed once per kernel.  The directions p are planar, so
the kernel must be too.  The lattice energy sums its stencil's own
surface tension instead, :func:`nlgeom.energy.lattice_sigma`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import Kernel


@dataclass(frozen=True)
class Anisotropy:
    """sigma_K(p) = coef * |p| for a planar radial kernel K."""

    kernel: Kernel
    coef: float = field(init=False)

    def __post_init__(self):
        # radial-angular factorization: (1/2) ∫|omega . e| over the circle
        # is 2, so one radial moment serves every direction and sigma's
        # coefficient is the hyperplane second moment, which rejects an
        # untruncated kernel (its sigma is infinite) and one whose moment
        # underflows to 0
        object.__setattr__(self, "coef", kernels.hyperplane_second_moment(self.kernel))

    def value(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return self.coef * float(np.linalg.norm(p))

    def values_at(self, points) -> np.ndarray:
        """Vectorized sigma over an array of vectors (trailing axis = d)."""
        pts = np.asarray(points, dtype=float)
        norms = np.linalg.norm(pts, axis=-1)
        return norms * self.coef
