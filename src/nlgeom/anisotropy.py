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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import DomainError, kernels
from .kernels import Kernel


class AnisotropyDomainError(DomainError):
    pass


#: exponent of the competitors' amplitude decay along the eps schedule in
#: ``halfspace_cell_experiment``; at 0 the amplitude stays fixed, so no
#: competitor converges to the halfspace in L^1
COMPETITOR_SHRINK = 1.0


@dataclass(frozen=True)
class Anisotropy:
    """sigma_K(p) = coef * |p| for a planar radial kernel K."""

    kernel: Kernel
    coef: float = field(init=False)

    def __post_init__(self):
        # radial-angular factorization: (1/2) ∫|omega . e| over the circle
        # is 2, so one radial moment serves every direction and sigma's
        # coefficient is the hyperplane second moment
        coef = kernels.hyperplane_second_moment(self.kernel)
        if math.isinf(coef):
            raise AnisotropyDomainError(
                "kernel has an infinite first moment; sigma is not defined"
            )
        object.__setattr__(self, "coef", coef)

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


# --------------------------------------------------------------------------
# halfspace cell-problem experiment


@dataclass(frozen=True)
class CompetitorCurve:
    competitor_id: str
    accepted: bool
    reason: str
    normalized_j1: tuple      # one value per eps (empty if rejected)
    l1_gap: tuple             # |E_eps symm-diff halfspace| within the window


@dataclass(frozen=True)
class CellReport:
    direction: tuple
    eps: tuple
    halfspace_values: tuple   # (omega_1 * eps)^{-1} J1(H; B) per eps
    sigma_ref: float
    competitors: tuple

    @property
    def halfspace_final(self) -> float:
        return self.halfspace_values[-1]

    @property
    def halfspace_rel_gap(self) -> float:
        return abs(self.halfspace_final - self.sigma_ref) / self.sigma_ref

    def no_competitor_beats(self, tolerance: float = 0.02) -> bool:
        floor = self.halfspace_final * (1.0 - tolerance)
        for c in self.competitors:
            if c.accepted and c.normalized_j1 and min(c.normalized_j1) < floor:
                return False
        return True


def _competitor_shape(p_hat, t_hat, amp, waves, phase):
    """Halfspace boundary bent by a windowed sinusoid (flat for |x| >= 0.85)."""
    from .fields import LevelShape

    def phi(x):
        x = np.asarray(x, dtype=float)
        s = x @ t_hat
        r = np.sqrt(np.sum(x * x, axis=-1))
        cutoff = np.clip((0.85 - r) / 0.1, 0.0, 1.0)
        bump = amp * np.sin(waves * math.pi * s + phase) * cutoff
        return x @ p_hat - bump

    return LevelShape(phi)


def halfspace_cell_experiment(
    aniso: Anisotropy,
    p_hat,
    eps_list: Sequence[float],
    n_competitors: int = 4,
    seed: int = 0,
    resolution: int = 384,
) -> CellReport:
    """Normalized interior energies of the halfspace and sampled competitors.

    The halfspace curve (omega_1 eps)^{-1} J1_eps(H; B) approaches sigma(p);
    competitor families bend the boundary by sinusoids whose amplitude
    follows 0.12 u (eps/eps_max)^COMPETITOR_SHRINK with u uniform in [0.5, 1].
    Families whose symmetric difference to the halfspace does not vanish
    (final |E dif H| above 0.005 pi and above 3/4 of the first) are rejected:
    they do not converge in L^1, so the cell formula says nothing about them.
    """
    from . import energy
    from .fields import Ball, Box, Halfspace

    p_hat = np.asarray(p_hat, dtype=float)
    p_hat = p_hat / np.linalg.norm(p_hat)
    t_hat = np.array([-p_hat[1], p_hat[0]])
    eps_list = tuple(sorted((float(e) for e in eps_list), reverse=True))
    eps_max = eps_list[0]

    window = Ball((0.0, 0.0), 1.0)
    reach = max(e * aniso.kernel.effective_radius() for e in eps_list)
    half_w = 1.0 + reach + 0.05
    grid = Box.cube(half_w, resolution)
    omega1 = 2.0

    halfspace = Halfspace(tuple(p_hat), 0.0)
    hs_vals = []
    for eps in eps_list:
        bd = energy.perimeter_k(halfspace, window, kernels.rescale(aniso.kernel, eps), grid)
        hs_vals.append(bd.j1 / (omega1 * eps))

    rng = np.random.default_rng(seed)
    cell_area = float(np.prod(grid.spacing))
    centers = grid.centers()
    in_window = window.contains(centers)
    hs_members = halfspace.contains(centers)

    competitors = []
    for ci in range(n_competitors):
        waves = int(rng.integers(1, 5))
        phase = float(rng.uniform(0, 2 * math.pi))
        amp0 = 0.12 * float(rng.uniform(0.5, 1.0))
        gaps = []
        shapes = []
        for eps in eps_list:
            amp = amp0 * (eps / eps_max) ** COMPETITOR_SHRINK
            shp = _competitor_shape(p_hat, t_hat, amp, waves, phase)
            shapes.append(shp)
            diff = shp.contains(centers) != hs_members
            gaps.append(float(np.count_nonzero(diff & in_window)) * cell_area)
        cid = f"sin{waves}-a{amp0:.3f}"
        # admissible if the symmetric difference either became negligible or
        # is clearly decaying along the eps schedule
        if gaps[-1] > 5e-3 * math.pi and gaps[-1] > 0.75 * gaps[0]:
            competitors.append(
                CompetitorCurve(
                    cid, False,
                    "symmetric difference to the halfspace does not vanish "
                    f"(final |E dif H| = {gaps[-1]:.4f}); not an admissible family",
                    (), tuple(gaps),
                )
            )
            continue
        vals = []
        for eps, shp in zip(eps_list, shapes):
            bd = energy.perimeter_k(shp, window, kernels.rescale(aniso.kernel, eps), grid)
            vals.append(bd.j1 / (omega1 * eps))
        competitors.append(CompetitorCurve(cid, True, "", tuple(vals), tuple(gaps)))

    return CellReport(
        direction=tuple(p_hat),
        eps=eps_list,
        halfspace_values=tuple(hs_vals),
        sigma_ref=aniso.value(p_hat),
        competitors=tuple(competitors),
    )
