"""Nonlocal curvature of a planar set at a boundary point, and its local limit.

The nonlocal curvature used here is

    H(E, x) = principal value of  integral K(y - x) (chi_Ec - chi_E)(y) dy,

nonnegative on convex sets.  Sets are analytic planar shapes (d = 2) with
an exact level gradient; the local limit also reads their exact level
Hessian.  Of the package's shapes, balls and halfspaces define both; any
other :class:`~nlgeom.fields.Shape` subclass that defines ``grad_phi`` and
``hess_phi`` is accepted too.  One route evaluates H: a principal-value
annulus scheme that integrates the membership sign over each circle about
x from its exact crossing angles, so the odd part cancels identically.  On disks it is
checked against the 1-D radial integral of
:func:`nlgeom.kernels.disk_reference`.  The local limit H_0 is kappa times
the curvature, kappa the hyperplane second moment of the kernel, and
eps^{-1} H(rescaled kernel) approaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DomainError, kernels
from .fields import Shape
from .kernels import Kernel


class CurvatureDomainError(DomainError):
    pass


@dataclass(frozen=True)
class CurvatureValue:
    value: float
    err: float
    diverged: bool = False


def _boundary_point_check(shape: Shape, x: np.ndarray) -> None:
    phi = float(np.asarray(shape.phi(x)))
    g = np.asarray(shape.grad_phi(x), dtype=float)
    gn = float(np.linalg.norm(g))
    if gn == 0.0:
        raise CurvatureDomainError("level gradient vanishes at x")
    if abs(phi) / gn > 1e-9:
        raise CurvatureDomainError(
            f"x is not on the boundary (level distance {abs(phi) / gn:.3e})"
        )


def _signs(shape: Shape, points: np.ndarray) -> np.ndarray:
    """chi_complement - chi_set at the given points; 0 exactly on the level."""
    return -np.sign(np.asarray(shape.phi(points)))


# ---------------------------------------------------------------------------
# principal-value annulus scheme


# brentq's relative tolerance and iteration cap (scipy's defaults)
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brentq_lanes(f, a, b, xtol):
    """Roots of many independent brackets [a_i, b_i] by Brent's method.

    A numpy port of scipy's ``brentq`` (``Zeros/brentq.c``, rtol = 4 DBL_EPSILON,
    100 iterations) in which every bracket is a lane: each lane takes the C
    code's steps in the C code's order, so it returns the same bits as a
    scalar ``brentq`` call, and leaves the batch once it has converged.
    ``f(theta, lanes)`` gets the abscissae of the lanes still running and
    their indices into ``a``.  Raises ValueError on a NaN value or a bracket
    whose ends have the same sign, RuntimeError when a lane does not
    converge.
    """

    def value(theta, lanes):
        fx = np.asarray(f(theta, lanes), dtype=float)
        if np.isnan(fx).any():
            raise ValueError("function value is NaN; the root solve cannot continue")
        return fx

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    root = np.empty(a.shape)
    lanes = np.arange(a.size)
    xpre, xcur = a, b
    fpre, fcur = value(xpre, lanes), value(xcur, lanes)
    root[fcur == 0] = xcur[fcur == 0]
    root[fpre == 0] = xpre[fpre == 0]
    run = (fpre != 0) & (fcur != 0)
    if np.any(run & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    lanes, xpre, xcur, fpre, fcur = (v[run] for v in (lanes, xpre, xcur, fpre, fcur))
    xblk, fblk = np.zeros_like(xpre), np.zeros_like(xpre)
    spre, scur = np.zeros_like(xpre), np.zeros_like(xpre)
    for _ in range(_BRENT_MAXITER):
        new = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(new, xpre, xblk)
        fblk = np.where(new, fpre, fblk)
        spre = np.where(new, xcur - xpre, spre)
        scur = np.where(new, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            root[lanes[done]] = xcur[done]
            keep = ~done
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk,
                                  spre, scur, delta, sbis))
        if not lanes.size:
            return root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # inverse quadratic extrapolation, or secant where xpre == xblk
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = value(xcur, lanes)
    raise RuntimeError(
        f"{lanes.size} of {a.size} root solves failed to converge after "
        f"{_BRENT_MAXITER} iterations"
    )


def _dense_sign_mean(E, x, r):
    """Mean of the membership sign over the circle of radius r, by doubling.

    Fallback path for radii where the two-crossing circle model does not
    apply (reconnections, r beyond the reach).
    Returns (mean, err_estimate).
    """
    prev = None
    n = 256
    while True:
        u, _ = kernels.angular_rule(n)
        s = _signs(E, x[None, :] + r * u)
        cur = float(np.mean(s))
        if prev is not None and (abs(cur - prev) <= 1e-3 * max(abs(cur), 1e-3)):
            return cur, abs(cur - prev)
        if n >= 1 << 15:
            return cur, abs(cur - prev) if prev is not None else 1.0
        prev = cur
        n *= 2


def _sign_surface_integrals(E, x, rs, n_hat, t_hat):
    """Integrals of -sign(phi(x + r u)) over the unit circle directions u.

    One value and error estimate per radius in ``rs``.  The membership
    transition angles are located by root finding, so thin asymmetry wedges
    near the tangent line are resolved exactly no matter how small r is;
    the crossing angles of every radius are solved together, one Brent lane
    each.  A dense doubling average takes over for each radius whose
    two-crossing model fails its bracket or scan validation.
    """
    n = len(rs)
    S = np.empty(n)
    e = np.zeros(n)

    def f(th, r):
        u = np.cos(th)[:, None] * t_hat + np.sin(th)[:, None] * n_hat
        return E.phi(x + r[:, None] * u)

    f_top = f(np.full(n, 0.5 * math.pi), rs)
    f_bot = f(np.full(n, -0.5 * math.pi), rs)
    ok = np.flatnonzero((f_top > 0.0) & (0.0 > f_bot))
    if ok.size:
        r_ok = rs[ok]
        ends = np.full(ok.size, 0.5 * math.pi)
        th_a = _brentq_lanes(lambda th, k: f(th, r_ok[k]), -ends, ends, 1e-14)
        th_b = _brentq_lanes(lambda th, k: f(th, r_ok[k]), ends, 3.0 * ends, 1e-14)
        # check the single-arc model against a coarse sign scan
        th = 2 * math.pi * (np.arange(64) + 0.5) / 64 - 0.5 * math.pi
        u = np.cos(th)[:, None] * t_hat + np.sin(th)[:, None] * n_hat
        sv = E.phi(x + r_ok[:, None, None] * u) > 0.0
        model = (th > th_a[:, None]) & (th < th_b[:, None])
        valid = np.all(sv == model, axis=1)
        S[ok[valid]] = 2.0 * math.pi - 2.0 * (th_b - th_a)[valid]
        ok = ok[valid]
    for i in np.setdiff1d(np.arange(n), ok):
        mean, err = _dense_sign_mean(E, x, rs[i])
        S[i], e[i] = 2.0 * math.pi * mean, 2.0 * math.pi * err
    return S, e


def hk_pv(E: Shape, x, kernel: Kernel) -> CurvatureValue:
    """Nonlocal curvature by annulus accumulation with antipodal cancellation.

    Radii follow the fixed geometric schedule r_k = r_eff * 2^-k over 8
    levels, r_eff being the kernel's effective radius.  On each
    circle the membership sign integral is computed from the exact crossing
    angles, so the odd part cancels identically and only the thin geometric
    asymmetry wedge survives.  The tail below the last level is extrapolated
    geometrically from the last three level increments; a non-decaying
    increment sequence sets the divergence flag instead of pretending
    convergence.  A profile that is not finite on a shell (a power law
    truncated so close to 0 that it overflows there) raises
    ``CurvatureDomainError``.
    """
    kernels.require_planar(kernel)
    x = np.asarray(x, dtype=float)
    _boundary_point_check(E, x)
    r_eff = kernel.effective_radius()
    g = np.asarray(E.grad_phi(x), dtype=float)
    n_hat = g / np.linalg.norm(g)
    t_hat = np.array([-n_hat[1], n_hat[0]])

    shells = []
    r_hi = r_eff
    for _ in range(8):
        r_lo = r_hi * 0.5
        rs, ws = kernels.radial_rule(kernel, r_lo, r_hi)
        with np.errstate(over="ignore"):  # a power law overflows on tiny shells
            kv = kernel.profile_at(rs)
        if not np.all(np.isfinite(kv)):
            raise CurvatureDomainError(
                f"the kernel's profile is not finite on the shell [{r_lo:.3g}, {r_hi:.3g}]")
        live = kv != 0.0
        shells.append((rs[live], ws[live], kv[live]))
        r_hi = r_lo
    S, e = _sign_surface_integrals(E, x, np.concatenate([s[0] for s in shells]),
                                   n_hat, t_hat)

    quad_err = 0.0
    increments = []
    i = 0
    for rs, ws, kv in shells:
        acc = 0.0
        for r, w, k in zip(rs, ws, kv):
            acc += w * r * k * S[i]
            quad_err += w * r * k * e[i]
            i += 1
        increments.append(acc)
    total = 0.0
    total += float(np.sum(increments))

    # geometric tail from the last three increments
    c1, c2, c3 = (abs(v) for v in increments[-3:])
    scale = max(abs(total), max(c1, 1e-300))
    noise = 1e-13 * scale
    diverged = False
    if c3 <= noise:
        tail = 0.0
        err = noise + quad_err
    elif c3 >= c1:
        tail = 0.0
        err = c3 + quad_err
        diverged = True
    else:
        q = math.sqrt(c3 / c1)
        tail = increments[-1] * q / (1.0 - q)
        err = abs(tail) * (1.0 - q) + noise + quad_err
        total += tail
    return CurvatureValue(total, err, diverged)


# ---------------------------------------------------------------------------
# local limit


def h0(phi, x, kernel: Kernel) -> CurvatureValue:
    """Local curvature -kappa (t^T Hessian t) / |grad|, t the unit tangent.

    Needs a Shape with analytic first and second level derivatives.  The
    orientation ({phi > 0} inside, inner normal along grad phi) makes the
    value nonnegative on convex sets; for a radial kernel and a ball of
    radius R in the plane it equals kappa / R, kappa the hyperplane second
    moment.

    The kernel's curvature assumptions need no numeric check: they are
    invariant under K -> K_eps (same mass, more concentrated), and every
    kernel the constructors accept with a bounded window meets them in
    closed form.  Indicator kernels are bounded with compact support.
    For the power law r^(-2-sigma), 0 < sigma < 1, the tail product
    r * ∫_{|z|>r} K ~ r^(1-sigma) -> 0, and the parabolic-slab mass and the
    hyperplane second moment are both ∫ r^(-sigma) dr < inf near the origin
    (Chambolle-Morini-Ponsiglione, "Nonlocal curvature flows", ARMA 2015).
    What stays gated is the window, in
    :func:`nlgeom.kernels.hyperplane_second_moment`: it rejects an
    untruncated kernel, as ``hk_pv`` does through the kernel's effective
    radius, and ``hk_pv`` flags a custom profile that blows up faster than
    its declared sigma.
    """
    x = np.asarray(x, dtype=float)
    if not isinstance(phi, Shape):
        raise CurvatureDomainError("phi must be a Shape with analytic level derivatives")
    grad = np.asarray(phi.grad_phi(x), dtype=float)
    hess = np.asarray(phi.hess_phi(x), dtype=float)
    gn = float(np.linalg.norm(grad))
    if gn <= 1e-12:
        raise CurvatureDomainError("degenerate gradient at x")
    n_hat = grad / gn
    t = np.array([-n_hat[1], n_hat[0]])
    kappa = kernels.hyperplane_second_moment(kernel)
    # t^T hess t, summed as trace(t t^T hess)
    val = -kappa * float(np.trace(np.outer(t, t) @ hess)) / gn
    return CurvatureValue(val, abs(val) * 1e-10 + 1e-14)
