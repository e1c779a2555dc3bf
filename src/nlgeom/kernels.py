"""Radial kernels: evaluation, rescaling, absolute and hyperplane moments.

Every built-in kernel is radial, even, and nonnegative: the indicator of an
annulus r0 <= |z| <= r1 (the ball when r0 = 0), the truncated power law, or
a custom radial profile.  A kernel is an immutable description (family
tag plus parameters); evaluation and quadrature never mutate it, so
instances can be shared freely across worker processes.

Quadrature conventions
----------------------
Radial integrals use composite Gauss-Legendre panels in log-radius between
profile breakpoints, which resolves both power-law singularities at the
origin and sharp cutoff radii.  Full-dimension node sets (:func:`zgrid`)
combine the radial rule with the angular rule, whose second half of
directions is the exact negation of the first.  Two callers still need
that antipodal symmetry: :func:`lattice_stencil`, whose binned stencil is
then even bit for bit (offset -o carries the very mass of o), and the
half-circle sum of :func:`nlgeom.rate.slicing_check`, which walks one
direction of each antipodal pair.  So do not break it.

Two layers
----------
The radial layer -- :class:`Kernel`, :func:`rescale`, the radial rule and
:func:`absolute_moment` -- holds for d = 2 and d = 3; the d = 3 kernels are
those of the effective-kernel averaging in :mod:`nlgeom.rate`.  Everything
else is planar, as are the grids, shapes and fields of the package: the
angular rule, :func:`zgrid`, :func:`lattice_stencil`,
:func:`hyperplane_second_moment` and :func:`disk_reference`.  The second
moment is the kernel's one κ, twice the radial moment ∫_0^∞ r^2 K̄(r) dr
(see below); the anisotropy coefficient, the Hessian of σ, h0 and the
flow's diffusivity all read it.  :func:`disk_reference` gives the
nonlocal perimeter and curvature of a disk as 1-D radial integrals, the
continuum values the grid and boundary routes are checked against.
:func:`require_planar` is the one check that a kernel may meet planar
data: every public entry that pairs a kernel with planar data calls it,
directly or through :func:`zgrid` or :func:`hyperplane_second_moment`.
:meth:`Kernel.effective_radius` is the one truncation check: it raises for
the untruncated power law, whose first moment (and so σ, κ and every
quadrature window) is infinite, and every entry that needs a finite
kernel reaches it, directly or through :func:`zgrid`,
:func:`disk_reference` or :func:`hyperplane_second_moment`.
:func:`require_resolved` is the one check that a grid resolves a rescaled
kernel, whose support must reach past half a cell, and :func:`require_held`
the one check that a grid holds it, its support at most the box's shorter
side; the flow stamp and the grid rate energies call both, and the energy
stencil the second.  The curvature assumptions on a kernel follow
from its family and a bounded window, so no numeric check of them is made
here (see :func:`nlgeom.curvature.h0`).

Moments of the indicator and power-law families are closed forms.  A
custom profile's moment ∫_0^∞ r^q K̄(r) dr uses the same log-Gauss rule
from :meth:`Kernel.quadrature_rmin` to r1, split at the breakpoints, plus
one Gauss-Legendre panel on [0, rmin], at orders 8 and 16.  The order-16
sum is the value; its ``Moment.err`` is the change from order 8 plus the
roundoff bound n u Σ|term| of the n-term sum (u the unit roundoff).

Divergent absolute moments are detected analytically from the family's
origin and tail exponents and reported with an explicit ``finite=False``
flag rather than a sentinel number.  An ``r0 > 0`` cuts the profile off
near the origin only for the indicator family; the power law ignores it,
and a custom profile's ``r0`` marks a kink.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import DomainError

FAMILIES = (
    "indicator",
    "fractional-truncated",
    "custom-radial-profile",
)

#: surface measure of the unit sphere S^{d-1} for d = 2, 3
SPHERE_SURFACE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}

_DEF_GL_ORDER = 8
_DEF_PANELS_PER_DECADE = 3
_DEF_ANGULAR = 64  # directions of the default angular rule
_RMIN_FACTOR = 1e-6
_CUSTOM_ORDERS = (8, 16)  # Gauss orders of a custom moment: (check, value)


class KernelDomainError(DomainError):
    """Raised for evaluations or rescalings outside a kernel's domain."""


# --------------------------------------------------------------------------
# kernel description


@dataclass(frozen=True)
class Kernel:
    """Immutable description of a radial interaction weight.

    The evaluation rule is ``K(z) = scale**(-d) * base(|z|/scale)``
    where ``base`` is the family's unit-scale radial profile.  ``scale`` is the
    concentration parameter touched by :func:`rescale`; composing rescales
    multiplies scales exactly, so rescale(rescale(k, a), b) == rescale(k, a*b).

    Parameters
    ----------
    family:
        One of :data:`FAMILIES`.
    d:
        Ambient dimension, 2 or 3.
    sigma:
        Origin singularity exponent: profile ~ r**(-d-sigma) near 0.
        Zero for bounded families; in (0, 1) for the power law.
    r0, r1:
        Inner/outer cutoff radii of the unit-scale profile.  ``r1`` may be
        ``math.inf`` for the untruncated power law (useful to exercise the
        divergence flags), which :meth:`effective_radius` rejects.  ``r0``
        is a cutoff only for the indicator; a custom profile's ``r0``
        marks a kink.
    scale:
        Concentration scale; see above.
    profile:
        Unit-scale radial profile for the custom family, ignored otherwise.
        Must accept and return numpy arrays.  It takes part in equality and
        hashing by identity, so kernels with different profile objects
        differ.
    """

    family: str
    d: int
    sigma: float = 0.0
    r0: float = 0.0
    r1: float = 1.0
    scale: float = 1.0
    profile: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelDomainError(f"unknown kernel family {self.family!r}")
        if self.d not in (2, 3):
            raise KernelDomainError(f"dimension must be 2 or 3, got {self.d}")
        if self.family == "fractional-truncated" and not 0.0 < self.sigma < 1.0:
            raise KernelDomainError(
                f"fractional kernel needs sigma in (0, 1), got sigma = {self.sigma:g}"
            )
        if not 0.0 <= self.sigma < 1.0:
            raise KernelDomainError(
                f"origin exponent sigma must lie in [0, 1), got sigma = {self.sigma:g}"
            )
        if not 0.0 <= self.r0 < self.r1:  # NaN fails too
            raise KernelDomainError("need 0 <= r0 < r1")
        if self.scale <= 0.0 or not math.isfinite(self.scale):
            raise KernelDomainError("scale must be positive and finite")
        if self.family == "custom-radial-profile" and self.profile is None:
            raise KernelDomainError("custom family requires a profile")
        if math.isinf(self.r1) and self.family != "fractional-truncated":
            raise KernelDomainError("only the power-law family may be untruncated")

    # -- structural metadata ------------------------------------------------

    @property
    def singular(self) -> bool:
        """True when K blows up at the origin (a custom profile's ``r0``
        is a kink, not a cutoff)."""
        return self.sigma > 0.0 and self.family in (
            "fractional-truncated",
            "custom-radial-profile",
        )

    def effective_radius(self) -> float:
        """Radius beyond which K vanishes identically.

        The package's one truncation check: raises KernelDomainError for
        the untruncated power law, whose first moment is infinite.
        """
        if math.isinf(self.r1):
            raise KernelDomainError("the kernel is untruncated; give it a finite radius")
        return self.r1 * self.scale

    def breakpoints(self) -> list[float]:
        """Radii where the radial profile is not smooth (scaled units)."""
        pts = []
        if self.r0 > 0.0:
            pts.append(self.r0 * self.scale)
        if math.isfinite(self.r1):
            pts.append(self.r1 * self.scale)
        return pts

    def quadrature_rmin(self) -> float:
        """Default inner radius for full-dimension quadrature grids."""
        return _RMIN_FACTOR * max(self.effective_radius(), self.scale)

    # -- evaluation ---------------------------------------------------------

    def _base(self, u: np.ndarray) -> np.ndarray:
        """Unit-scale radial profile at radii ``u >= 0``."""
        fam = self.family
        if fam == "indicator":
            return ((u >= self.r0) & (u <= self.r1)).astype(float)
        if fam == "fractional-truncated":
            with np.errstate(divide="ignore"):
                vals = np.where(u > 0.0, u, 1.0) ** (-self.d - self.sigma)
            vals = np.where(u > 0.0, vals, np.inf)
            if math.isfinite(self.r1):
                vals = np.where(u <= self.r1, vals, 0.0)
            return vals
        # custom
        vals = np.asarray(self.profile(np.asarray(u, dtype=float)), dtype=float)
        return np.where(u <= self.r1, vals, 0.0)

    def profile_at(self, r) -> np.ndarray:
        """Radial profile K̄(r) of the (scaled) kernel at radii ``r``."""
        r = np.asarray(r, dtype=float)
        pref = self.scale ** (-self.d)
        return pref * self._base(r / self.scale)

    def origin_exponent(self) -> float:
        """p such that K̄(r) ~ r**(-p) as r -> 0 (0 for bounded kernels)."""
        return (self.d + self.sigma) if self.singular else 0.0


def require_planar(kernel: Kernel) -> None:
    """Raise unless ``kernel`` is planar (d = 2), as planar data needs."""
    if kernel.d != 2:
        raise KernelDomainError(
            f"this operation is planar (d = 2); the kernel has d = {kernel.d}"
        )


def require_resolved(kernel: Kernel, eps: float, spacing, error: type[Exception]) -> float:
    """The effective radius of K_eps; raise ``error`` unless it exceeds half
    the smallest cell of ``spacing``, the least a grid resolves."""
    r_eff = rescale(kernel, eps).effective_radius()
    half = 0.5 * float(np.min(spacing))
    if r_eff <= half:
        raise error(
            f"rescaled kernel support {r_eff:.3g} lies below half a grid cell "
            f"({half:.3g}); refine the grid or increase eps"
        )
    return r_eff


def require_held(kernel: Kernel, eps: float, size, error: type[Exception]) -> None:
    """Raise ``error`` unless the effective radius of K_eps is at most the
    shorter side of a box of this ``size``, so padding each axis of the box
    by the kernel's reach along it at most triples that axis."""
    r_eff = rescale(kernel, eps).effective_radius()
    side = float(np.min(size))
    if not r_eff <= side:
        raise error(
            f"rescaled kernel support {r_eff:.3g} exceeds the grid's shorter side "
            f"({side:.3g}); enlarge the grid or decrease eps"
        )


def evaluate(kernel: Kernel, z) -> np.ndarray:
    """Pointwise kernel weight K(z); exactly even in z for all families."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != kernel.d:
        raise KernelDomainError(
            f"points have dimension {z.shape[-1]}, kernel has d={kernel.d}"
        )
    r = np.sqrt(np.sum(z * z, axis=-1))
    if kernel.singular and np.any(r == 0.0):
        raise KernelDomainError("kernel is singular at the origin; got z = 0")
    return kernel.profile_at(r)


def rescale(kernel: Kernel, eps: float) -> Kernel:
    """Concentrated copy K_eps(z) = eps**(-d) K(z/eps).

    Mass-preserving for integrable kernels; composes exactly:
    ``rescale(rescale(k, a), b)`` evaluates identically to ``rescale(k, a*b)``.
    """
    if not (eps > 0.0) or not math.isfinite(eps):
        raise KernelDomainError(f"rescale needs eps > 0, got {eps}")
    return replace(kernel, scale=kernel.scale * eps)


# --------------------------------------------------------------------------
# constructors for the built-in families


def ball_indicator(d: int = 2, radius: float = 1.0) -> Kernel:
    """The indicator of the ball |z| <= radius: the annulus with r0 = 0."""
    return annulus_indicator(d, 0.0, radius)


def annulus_indicator(d: int = 2, r0: float = 0.2, r1: float = 1.0) -> Kernel:
    """The indicator of the annulus r0 <= |z| <= r1."""
    return Kernel("indicator", d, r0=r0, r1=r1)


def fractional(d: int = 2, sigma: float = 0.5, radius: float = 1.0) -> Kernel:
    """Truncated power law r**(-d-sigma), 0 < sigma < 1; ``radius=math.inf``
    removes the cutoff."""
    return Kernel("fractional-truncated", d, sigma=sigma, r1=radius)


def custom_radial(
    profile: Callable[[np.ndarray], np.ndarray],
    d: int,
    r_max: float,
    sigma: float = 0.0,
    r0: float = 0.0,
) -> Kernel:
    """Custom radial profile truncated at ``r_max``.

    The profile is taken as 0 beyond ``r_max``.  ``sigma`` declares the
    origin exponent when the profile is singular, and ``r0 > 0`` a radius
    where the profile has a kink, which quadrature rules split at.
    """
    return Kernel("custom-radial-profile", d, sigma=sigma, r0=r0, r1=r_max,
                  profile=profile)


# --------------------------------------------------------------------------
# radial quadrature building blocks


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared between callers, so they are read-only.
    """
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_log_panels(
    r_lo: float, r_hi: float, panels_per_decade: float, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for ∫_{r_lo}^{r_hi} g(r) dr, Gauss-Legendre in log r.

    Accurate to near machine precision for power laws and other profiles that
    are smooth in log-radius.
    """
    if not (0.0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    span = math.log(r_hi / r_lo)
    n_panels = max(2, math.ceil(span / math.log(10.0) * panels_per_decade))
    x, w = _leggauss(order)
    edges = np.linspace(math.log(r_lo), math.log(r_hi), n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    u = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wu = (half[:, None] * w[None, :]).ravel()
    r = np.exp(u)
    return r, wu * r  # substitution r = e^u brings a factor r


def radial_rule(
    kernel: Kernel,
    r_lo: float,
    r_hi: float,
    panels_per_decade: float = _DEF_PANELS_PER_DECADE,
    order: int = _DEF_GL_ORDER,
) -> tuple[np.ndarray, np.ndarray]:
    """Log-Gauss radial rule on [r_lo, r_hi] split at profile breakpoints."""
    cuts = sorted({r_lo, r_hi} | {b for b in kernel.breakpoints() if r_lo < b < r_hi})
    rs, ws = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        r, w = gauss_log_panels(lo, hi, panels_per_decade, order)
        rs.append(r)
        ws.append(w)
    return np.concatenate(rs), np.concatenate(ws)


def angular_rule(n_angular: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions of the plane and weights integrating over the circle
    exactly antipodally: the midpoint trapezoid rule in angle with
    ``n_angular`` nodes (default 64), rounded up to an even count.

    The second half of the grid is the exact floating-point negation of the
    first half (node i + n/2 is -node i), so odd integrands cancel to the
    last bit when accumulated in antipodal pairs.
    """
    n = n_angular if n_angular is not None else _DEF_ANGULAR
    n += n % 2
    theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
    half = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    dirs = np.concatenate([half, -half])
    return dirs, np.full(n, 2.0 * math.pi / n)


def zgrid(
    kernel: Kernel,
    r_lo: float | None = None,
    n_angular=None,
    panels_per_decade: float = _DEF_PANELS_PER_DECADE,
) -> tuple[np.ndarray, np.ndarray]:
    """Product radial x angular rule for planar z-integrals, adapted to the
    kernel's support and breakpoints.

    Returns ``(nodes, weights)``, nodes of shape (n, 2) radius-major; the
    weights include the r area factor, so ``sum(weights * f(nodes))``
    approximates ∫ f(z) dz over the annulus r_lo <= |z| <= r_hi, r_hi the
    kernel's effective radius.
    """
    require_planar(kernel)
    r_hi = kernel.effective_radius()
    if r_lo is None:
        r_lo = kernel.quadrature_rmin()
    if not r_lo < r_hi:
        raise KernelDomainError(
            f"empty radial range [{r_lo:.3g}, {r_hi:.3g}]: the kernel radius lies "
            "below the quadrature's inner radius"
        )
    r, wr = radial_rule(kernel, r_lo, r_hi, panels_per_decade)
    dirs, wa = angular_rule(n_angular)
    nodes = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    weights = (wr[:, None] * r[:, None] * wa[None, :]).ravel()
    return nodes, weights


def lattice_stencil(kernel: Kernel, spacing, zg: tuple | None = None):
    """Quadrature masses weight * K binned on the lattice with this spacing.

    Each node of the ``(nodes, weights)`` rule ``zg`` (by default the
    kernel's own :func:`zgrid`) snaps to the nearest integer offset; the
    kernel value is taken at the exact node.
    Returns ``(offsets, weights)``: the distinct nonzero offsets in
    lexicographic order, shape (m, 2), and their accumulated masses.  The
    zero offset and bins whose masses cancel to 0 are dropped.
    """
    nodes, weights = zgrid(kernel) if zg is None else zg
    masses = weights * evaluate(kernel, nodes)
    off = np.rint(nodes / np.asarray(spacing, dtype=float)).astype(np.int64)
    lo = off.min(axis=0)
    dims = tuple(off.max(axis=0) - lo + 1)
    # row-major keys sort like the offset rows themselves
    keys, inv = np.unique(np.ravel_multi_index(tuple((off - lo).T), dims),
                          return_inverse=True)
    acc = np.zeros(len(keys))
    np.add.at(acc, inv, masses)
    uniq = np.stack(np.unravel_index(keys, dims), axis=1) + lo
    keep = np.any(uniq != 0, axis=1) & (acc != 0.0)
    return uniq[keep], acc[keep]


# --------------------------------------------------------------------------
# moments


@dataclass(frozen=True)
class Moment:
    """A kernel integral together with finiteness flag and error estimate."""

    value: float
    finite: bool = True
    err: float = 0.0


def _radial_moment(kernel: Kernel, q: float) -> Moment:
    """∫_0^∞ r^q K̄(r) dr for the scaled profile, with divergence detection."""
    k = kernel
    # origin/tail convergence from the family exponents; a profile is
    # nonzero at the origin, like r**(-origin_exponent), unless an
    # indicator's r0 cuts it off
    cut = k.family == "indicator" and k.r0 > 0.0
    if not cut and q - k.origin_exponent() <= -1.0:
        return Moment(math.inf, False)
    if not math.isfinite(k.r1) and q - (k.d + k.sigma) >= -1.0:
        return Moment(math.inf, False)
    fam = k.family
    if fam in ("indicator", "fractional-truncated"):
        try:  # Python's float power raises where a product turns inf
            pref = k.scale ** (q + 1 - k.d)
            if fam == "indicator":
                val = pref * ((k.r1 ** (q + 1) - k.r0 ** (q + 1)) / (q + 1))
            else:  # both endpoints converge, so r1 is finite
                a = q - k.d - k.sigma
                val = pref * (k.r1 ** (a + 1) / (a + 1))
        except OverflowError:
            val = math.inf
        if not math.isfinite(val):
            raise KernelDomainError(
                f"the kernel's radial moment of order {q:g} overflows; "
                "give it a smaller radius")
        return Moment(val, True, abs(val) * 1e-15)
    # custom: the scaled profile on the radial rule from rmin plus one Gauss
    # panel on [0, rmin], at each order (see the module docstring)
    r_lo = k.quadrature_rmin()
    sums = []
    for order in _CUSTOM_ORDERS:
        rs, ws = radial_rule(k, r_lo, k.effective_radius(), order=order)
        x, w = _leggauss(order)
        rs = np.concatenate([0.5 * r_lo * (x + 1.0), rs])
        terms = np.concatenate([0.5 * r_lo * w, ws]) * rs**q * k.profile_at(rs)
        sums.append(float(np.sum(terms)))
    roundoff = len(terms) * np.finfo(float).eps * float(np.sum(np.abs(terms)))
    return Moment(sums[-1], True, abs(sums[-1] - sums[0]) + roundoff)


def absolute_moment(kernel: Kernel, power: float) -> Moment:
    """∫ K(z) |z|^power dz over all of R^d."""
    m = _radial_moment(kernel, kernel.d - 1 + power)
    if not m.finite:
        return m
    s = SPHERE_SURFACE[kernel.d]
    return Moment(s * m.value, True, s * m.err)


def hyperplane_second_moment(kernel: Kernel) -> float:
    """κ = ∫_{e⊥} K(z) |z|^2 dH^1(z) of a planar, truncated kernel.

    Every kernel is radial, so the value is the same for every unit normal
    e: the line e⊥ holds two rays from the origin, each carrying the radial
    moment ∫_0^∞ r^2 K̄(r) dr.  κ is also the coefficient of the kernel's
    anisotropy σ(p) = κ|p| and the diffusivity of the local curvature flow.
    It is finite for every truncated kernel; an untruncated one raises in
    :meth:`Kernel.effective_radius`.  It must also be positive, which a
    kernel of tiny radius misses when the moment underflows to 0.  Callers
    divide by κ or by values proportional to it (σ, h0, the flow's
    extinction time), so the check is made here, once for all of them.
    """
    require_planar(kernel)
    kernel.effective_radius()  # the truncation check
    kappa = 2.0 * _radial_moment(kernel, 2).value
    if not kappa > 0.0:
        raise KernelDomainError(
            f"the kernel's hyperplane second moment must be positive, got {kappa:g}")
    return kappa


def disk_reference(kernel: Kernel, radius: float) -> tuple[float, float]:
    """Nonlocal perimeter and curvature ``(Per, H)`` of the disk B_a, a = radius.

    For a radial kernel both are 1-D radial integrals over |z| = r.  A
    shift by z moves the area lune(r) = 2a^2 asin(r/2a) + (r/2)√(4a^2 - r^2)
    of B_a out of itself, and the circle of radius r about a boundary point
    has an angle 4 asin(r/2a) more outside B_a than inside.  The leading
    terms 2ar and 2r/a of the two integrate to the local values 2πaκ and
    κ/a (κ the hyperplane second moment), so each value is written as that
    local value plus a correction whose integrand vanishes to higher order
    at r = 0 and so carries no cancellation there:

        Per = 2πaκ + 2π Σ m r (lune(r) - 2ar)
        H   = κ/a  + Σ m (4r asin(r/2a) - 2r^2/a)

    with m = w K̄(r) over one radial rule from ``quadrature_rmin()`` to the
    effective radius, at 6 panels per decade.  The formulas hold while the
    kernel's reach stays within 2a, which also keeps the kink of asin at
    r = 2a out of the quadrature.
    """
    require_planar(kernel)
    a = radius
    r_eff = kernel.effective_radius()
    if r_eff > 2.0 * a:
        raise KernelDomainError(
            f"kernel reach {r_eff:g} exceeds the disk diameter {2.0 * a:g}"
        )
    r, w = radial_rule(kernel, kernel.quadrature_rmin(), r_eff, panels_per_decade=6.0)
    m = w * kernel.profile_at(r)
    arc = np.arcsin(r / (2.0 * a))
    kappa = hyperplane_second_moment(kernel)
    lune_rest = 2.0 * a * a * arc + 0.5 * r * np.sqrt(4.0 * a * a - r * r) - 2.0 * a * r
    per = 2.0 * math.pi * a * kappa + 2.0 * math.pi * float(np.sum(m * r * lune_rest))
    curv = kappa / a + float(np.sum(m * (4.0 * r * arc - 2.0 * r * r / a)))
    return per, curv
