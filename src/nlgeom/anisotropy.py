"""Anisotropic surface tension of an interaction kernel and its derivatives.

For a kernel K with finite first moment the direction-dependent weight

    sigma(p) = (1/2) * integral K(z) |z . p| dz

is a norm.  Every built-in kernel family is radial, so the radial-angular
factorization gives sigma(p) = kappa |p|, with kappa the hyperplane second
moment of K, computed once per kernel.  The gradient, the half-space first
moment of K, is kappa p/|p|, and the Hessian is kappa t⊗t/|p| with t the
unit tangent orthogonal to p.  The directions p are planar, so the kernel
must be too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import DomainError, kernels
from .kernels import Kernel


class AnisotropyDomainError(DomainError):
    pass


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

    def gradient(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        norm = float(np.linalg.norm(p))
        if norm == 0.0:
            raise AnisotropyDomainError("sigma is not differentiable at p = 0")
        # half-space first moment: the tangential part cancels for even K,
        # leaving sigma(p_hat) along the direction itself
        return self.coef * (p / norm)

    def hessian(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        norm = float(np.linalg.norm(p))
        if norm == 0.0:
            raise AnisotropyDomainError("sigma is not differentiable at p = 0")
        p_hat = p / norm
        t = np.array([-p_hat[1], p_hat[0]])
        return self.coef * np.outer(t, t) / norm

    def values_at(self, points) -> np.ndarray:
        """Vectorized sigma over an array of vectors (trailing axis = d)."""
        pts = np.asarray(points, dtype=float)
        norms = np.linalg.norm(pts, axis=-1)
        return norms * self.coef
