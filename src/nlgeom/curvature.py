"""Nonlocal curvature of a planar set at a boundary point, and its local limit.

The nonlocal curvature used here is

    H(E, x) = principal value of  integral K(y - x) (chi_Ec - chi_E)(y) dy,

nonnegative on convex sets.  Sets are analytic planar shapes (d = 2) with
an exact level gradient; the local limit also reads their exact level
Hessian.  Two routes evaluate H: a principal-value annulus scheme whose
antipodal node pairing cancels the odd part exactly, and a graph-chart
scheme that integrates the boundary column profile near x, kept as an
independent check of the first; they agree within error bars.  The local
limit H_0 is read off the hyperplane moment matrix of the kernel, and
eps^{-1} H(rescaled kernel) approaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import DomainError, kernels
from .fields import LevelShape, Shape
from .kernels import Kernel


class CurvatureDomainError(DomainError):
    pass


@dataclass(frozen=True)
class CurvatureValue:
    value: float
    err: float
    method: str
    diverged: bool = False

    def __float__(self) -> float:
        return self.value


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


def _window(kernel: Kernel) -> float:
    """The kernel's effective radius, which must be finite."""
    r_eff = kernel.effective_radius()
    if not math.isfinite(r_eff):
        raise CurvatureDomainError("kernel needs a bounded quadrature window")
    return r_eff


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
        u = _circle_dirs(n)
        s = _signs(E, x[None, :] + r * u)
        cur = float(np.mean(s))
        if prev is not None and (abs(cur - prev) <= 1e-3 * max(abs(cur), 1e-3)):
            return cur, abs(cur - prev)
        if n >= 1 << 15:
            return cur, abs(cur - prev) if prev is not None else 1.0
        prev = cur
        n *= 2


def _circle_dirs(n):
    th = 2 * math.pi * (np.arange(n) + 0.5) / n
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


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
    convergence.
    """
    kernels.require_planar(kernel)
    x = np.asarray(x, dtype=float)
    _boundary_point_check(E, x)
    r_eff = _window(kernel)
    g = np.asarray(E.grad_phi(x), dtype=float)
    n_hat = g / np.linalg.norm(g)
    t_hat = kernels.hyperplane_basis(n_hat)[0]

    shells = []
    r_hi = r_eff
    for _ in range(8):
        r_lo = r_hi * 0.5
        rs, ws = kernels.radial_rule(kernel, r_lo, r_hi)
        kv = kernel.profile_at(rs)
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
    return CurvatureValue(total, err, "pv-annulus", diverged)


# ---------------------------------------------------------------------------
# graph-chart scheme


def hk_graph(E: Shape, x, kernel: Kernel) -> CurvatureValue:
    """Nonlocal curvature through a local boundary graph over the tangent line.

    Inside the square {|tau| <= delta, |a| <= delta}, delta = 0.4 r_eff,
    aligned with the inner normal, the two indicator contributions collapse
    to a column integral of K between the boundary graph and its
    reflection; outside the square the paired-quadrature far field is
    added.  Points without a graph chart (a vanishing level gradient, or a
    boundary that leaves the square) are rejected.
    """
    kernels.require_planar(kernel)
    x = np.asarray(x, dtype=float)
    _boundary_point_check(E, x)
    r_eff = _window(kernel)
    delta = 0.4 * r_eff

    g = np.asarray(E.grad_phi(x), dtype=float)
    n_hat = g / np.linalg.norm(g)
    t = kernels.hyperplane_basis(n_hat)[0]

    # tangential quadrature nodes on both sides of x
    gl_x, gl_w = np.polynomial.legendre.leggauss(24)
    tau, tw = kernels.gauss_log_panels(delta * 1e-6, delta, 4, 10)
    tau_vecs = np.concatenate([tau[:, None] * t, -tau[:, None] * t])
    tau_w = np.concatenate([tw, tw])
    tau_r = np.concatenate([tau, tau])

    # boundary depth along the normal above each node, one Brent lane each
    bases = x + tau_vecs

    def psi(b, lanes):
        return np.asarray(E.phi(bases[lanes] + b[:, None] * n_hat))

    every = np.arange(len(bases))
    lo, hi = np.full(len(bases), -0.95 * delta), np.full(len(bases), 0.95 * delta)
    if np.any(psi(lo, every) * psi(hi, every) > 0.0):
        raise CurvatureDomainError("no graph chart: the boundary leaves the square")
    depth = _brentq_lanes(psi, lo, hi, 1e-14)

    inner = 0.0
    for b, w, tr in zip(depth, tau_w, tau_r):
        if abs(b) < 1e-300:
            continue
        half = 0.5 * abs(b)
        a_nodes = half * (gl_x + 1.0)
        rads = np.sqrt(tr * tr + a_nodes * a_nodes)
        vals = kernel.profile_at(np.maximum(rads, kernel.quadrature_rmin()))
        col = 2.0 * half * float(np.sum(gl_w * vals))
        inner += w * math.copysign(col, b)

    # far field: paired quadrature outside the square
    zg = kernels.zgrid(kernel, r_lo=0.5 * delta, r_hi=r_eff, n_angular=512)
    kv = kernels.evaluate(kernel, zg.nodes)
    outside = (np.abs(zg.nodes @ t) > delta) | (np.abs(zg.nodes @ n_hat) > delta)
    s = _signs(E, x[None, :] + zg.nodes)
    idx = np.nonzero(np.arange(len(zg)) < zg.antipode)[0]
    mask = outside[idx]
    paired = s[idx] + s[zg.antipode[idx]]
    far = float(np.sum((zg.weights[idx] * kv[idx] * paired)[mask]))

    n_ang = len(zg) // max(len(np.unique(zg.radii)), 1)
    err = abs(inner) * 1e-4 + 8.0 * (abs(far) + 0.1 * abs(inner)) / max(n_ang, 1)
    return CurvatureValue(inner + far, err, "graph")


# ---------------------------------------------------------------------------
# local limit


def h0(phi, x, kernel: Kernel) -> CurvatureValue:
    """Anisotropic local curvature - trace(M_K(grad dir) Hessian) / |grad|.

    Needs a Shape with analytic first and second level derivatives.  The
    orientation ({phi > 0} inside, inner normal along grad phi) makes the value nonnegative on
    convex sets; for a radial kernel and a ball of radius R in the plane it
    equals (hyperplane second moment)/R.
    """
    x = np.asarray(x, dtype=float)
    if not isinstance(phi, Shape):
        raise CurvatureDomainError("phi must be a Shape with analytic level derivatives")
    grad = np.asarray(phi.grad_phi(x), dtype=float)
    hess_fn = getattr(phi, "hess_phi", None)
    if hess_fn is None:
        raise CurvatureDomainError(f"{type(phi).__name__} exposes no level Hessian")
    hess = np.asarray(hess_fn(x), dtype=float)
    gn = float(np.linalg.norm(grad))
    if gn <= 1e-12:
        raise CurvatureDomainError("degenerate gradient at x")
    _window(kernel)
    M = kernels.hyperplane_moment_matrix(kernel, grad / gn)
    val = -float(np.trace(M @ hess)) / gn
    return CurvatureValue(val, abs(val) * 1e-10 + 1e-14, "local-h0")


# ---------------------------------------------------------------------------
# shapes with analytic second derivatives for the experiments


def make_ellipse(a: float, b: float, center=(0.0, 0.0), angle: float = 0.0) -> LevelShape:
    """Axis lengths a, b; the level function 1 - quadratic form is smooth."""
    c = np.asarray(center, dtype=float)
    ca, sa = math.cos(angle), math.sin(angle)
    R = np.array([[ca, -sa], [sa, ca]])
    D = R @ np.diag([1.0 / a**2, 1.0 / b**2]) @ R.T

    def phi(pts):
        pts = np.asarray(pts, dtype=float)
        rel = pts - c
        return 1.0 - np.einsum("...i,ij,...j->...", rel, D, rel)

    def grad(pts):
        pts = np.asarray(pts, dtype=float)
        return -2.0 * (pts - c) @ D

    def hess(pts):
        pts = np.asarray(pts, dtype=float)
        H = -2.0 * D
        if pts.ndim == 1:
            return H
        return np.broadcast_to(H, pts.shape[:-1] + (2, 2)).copy()

    def boundary(t):
        th = 2 * math.pi * np.asarray(t)
        pts = np.stack([a * np.cos(th), b * np.sin(th)], axis=-1)
        return c + pts @ R.T

    return LevelShape(phi, grad_fn=grad, hess_fn=hess, boundary_fn=boundary,
                      name=f"ellipse({a},{b})")


# ---------------------------------------------------------------------------
# convergence experiment


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    sup_err: float
    mean_err: float


@dataclass(frozen=True)
class ConvergenceReport:
    eps: tuple
    rows: tuple                 # ConvergenceRow per eps
    samples: np.ndarray         # boundary points (n, d)
    h0_values: np.ndarray       # local limit per sample
    hk_over_eps: np.ndarray     # (n_eps, n_samples)
    hk_over_eps_err: np.ndarray  # hk_pv error estimate / eps, same shape
    diverged: np.ndarray        # hk_pv divergence flags, same shape

    @property
    def sup_errors(self) -> tuple:
        return tuple(r.sup_err for r in self.rows)


def curvature_convergence(
    E: Shape,
    kernel: Kernel,
    eps_list: Sequence[float],
    boundary_samples: int = 16,
) -> ConvergenceReport:
    """Table of sup/mean gaps between eps^{-1} H(K_eps) and the local limit.

    The kernel's curvature assumptions need no numeric check: they are
    invariant under K -> K_eps (same mass, more concentrated), and every
    kernel the constructors accept with a bounded window meets them in
    closed form.  Ball and annulus kernels are bounded with compact support.
    For the power law r^(-2-sigma), 0 < sigma < 1, the tail product
    r * ∫_{|z|>r} K ~ r^(1-sigma) -> 0, and the parabolic-slab mass and the
    hyperplane second moment are both ∫ r^(-sigma) dr < inf near the origin
    (Chambolle-Morini-Ponsiglione, "Nonlocal curvature flows", ARMA 2015).
    What stays gated is the window: :func:`h0`, called before any
    :func:`hk_pv`, rejects an untruncated kernel, and ``hk_pv`` flags a
    custom profile that blows up faster than its declared sigma.
    """
    eps_list = tuple(sorted((float(e) for e in eps_list), reverse=True))
    bs = E.boundary_sample(boundary_samples)
    pts = bs.points[:boundary_samples]
    h0_vals = np.array([h0(E, p, kernel).value for p in pts])
    table = np.empty((len(eps_list), len(pts)))
    table_err = np.empty_like(table)
    diverged = np.zeros(table.shape, dtype=bool)
    rows = []
    for i, eps in enumerate(eps_list):
        k_eps = kernels.rescale(kernel, eps)
        for j, p in enumerate(pts):
            cv = hk_pv(E, p, k_eps)
            table[i, j] = cv.value / eps
            table_err[i, j] = cv.err / eps
            diverged[i, j] = cv.diverged
        errs = np.abs(table[i] - h0_vals)
        rows.append(ConvergenceRow(eps, float(errs.max()), float(errs.mean())))
    return ConvergenceReport(eps_list, tuple(rows), pts, h0_vals, table, table_err, diverged)
