"""Second-order rate energies for nonlocal-to-local approximation.

For a convex potential f, the defect between a local energy built from
slopes and its nonlocal counterpart built from averaged difference
quotients is nonnegative and of order eps^2.  This module computes the
rescaled defect (the rate energy), its local limit density f''(u)|u'|^2/24,
a triangular-window lower bound, and the planar grid versions coupled to
an even interaction kernel, together with the slice decomposition that
reduces the planar rate to a family of 1D ones.  The effective kernel of
the window average is radial and holds in d = 2 and d = 3.

Every batch of queries the grid energies make is a shifted lattice: the
x-quadrature nodes (cell centers, or one of the four Gauss sub-lattices)
plus one constant displacement eps*r*z_hat or a slope probe.  The cubic
spline is therefore evaluated by one separable 4-tap B-spline filter per
axis on its prefiltered coefficients (``_SplineSampler.lattice``), the
shift primitive the flow step also uses.  Only the rotated line samples of
``slicing_check`` are off-lattice; they take the full 16-tap stencil per
point.  The 1D energies sample their piecewise-linear rows one constant
fraction past the half-cell nodes, so they read node arrays by slices
rather than by per-point gathers.

The prefilter, the per-point stencil, Simpson's rule and the cumulative
trapezoid are numpy ports of scipy's cubic spline filter and order-3
interpolation and of its ``simpson`` and ``cumulative_trapezoid``.  They
keep scipy's arithmetic, so they give its bits, and the module loads no
scipy.

Error budget of the slope probe: the symmetric difference over +-1e-3 h
divides spline roundoff by 2e-3 cells, so the probe's lattice phase is
taken in index units, the Gauss sub-offset plus the displacement over h
apart from the integer pad offset, never from absolute coordinates.  With
the reordered sums of the lattice path this moves bbm-slice's ``direct``
by 2.0e-10 relative to the per-point evaluation (the rate energies on the
64² bump move by at most 5e-10); a phase taken from absolute coordinates
moves ``direct`` by 1.1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import DomainError, kernels
from .fields import GridField, check_constant_ring, shift_taps
from .kernels import Kernel


class RateDomainError(DomainError):
    pass


# ---------------------------------------------------------------------------
# potentials and 1D profiles


@dataclass(frozen=True)
class Potential:
    """Convex integrand together with its curvature data.

    ``alpha`` is a lower bound for f'' (0 when unknown), ``c`` an upper
    bound (None when f'' is unbounded); both are used by the bound
    operations, not by the energies themselves.
    """

    f: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]
    alpha: float = 0.0
    c: float | None = None

    def __post_init__(self):
        if abs(float(self.f(0.0))) > 1e-12:
            raise RateDomainError("potential must vanish at 0")
        if abs(float(self.f(1e-6))) > 1e-11:
            raise RateDomainError("potential must have zero slope at 0")
        t = np.linspace(0.0, 2.0, 9)
        curv = np.asarray(self.d2f(t), dtype=float)
        if self.alpha > 0 and np.any(curv < self.alpha - 1e-9):
            raise RateDomainError("f'' drops below the declared convexity constant")
        if self.c is not None and np.any(curv > self.c + 1e-9):
            raise RateDomainError("f'' exceeds the declared upper bound")

    @staticmethod
    def quadratic() -> "Potential":
        return Potential(
            f=lambda t: np.square(t),
            d2f=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
            alpha=2.0,
            c=2.0,
        )


class Profile1D:
    """Samples of a 1D profile on a uniform grid over [a, b], zero outside."""

    def __init__(self, interval, values):
        a, b = (float(v) for v in interval)
        if not a < b:
            raise RateDomainError("empty interval")
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) < 4:
            raise RateDomainError("need a 1D profile with at least 4 samples")
        self.interval = (a, b)
        self.values = vals
        self.grid = np.linspace(a, b, len(vals))
        self.spacing = (b - a) / (len(vals) - 1)

    @classmethod
    def from_function(cls, fn, interval, n: int) -> "Profile1D":
        a, b = interval
        t = np.linspace(a, b, n)
        return cls(interval, np.asarray(fn(t), dtype=float))

    def at(self, x) -> np.ndarray:
        """Piecewise-linear value, zero outside the interval."""
        # the grid starts at a and ends at b exactly, so the fill values
        # are the zero extension
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    def derivative_values(self) -> np.ndarray:
        return np.gradient(self.values, self.spacing)

    def derivative_energy(self, stride: int = 1) -> float:
        v = self.values[::stride]
        h = self.spacing * stride
        return float(np.sum(np.diff(v) ** 2) / h)


def _cumulative_trapezoid(y: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Running trapezoid integrals along the last axis, starting at 0.

    ``scipy.integrate.cumulative_trapezoid(y, dx=dx, axis=-1, initial=0)``,
    same expressions, into ``out`` (the shape of ``y``).
    """
    out[..., 0] = 0.0
    res = out[..., 1:]
    np.add(y[..., 1:], y[..., :-1], out=res)
    res *= dx
    res /= 2.0
    np.cumsum(res, axis=-1, out=res)
    return out


def _simpson(y: np.ndarray, dx: float, halves: np.ndarray) -> np.ndarray:
    """Composite Simpson's rule along the last axis of uniform samples.

    ``scipy.integrate.simpson(y, dx=dx, axis=-1)``, same expressions: for an
    even count the last interval takes Cartwright's correction.  The
    per-pair sums go to ``halves`` (leading shape of ``y``, at least
    ``y.shape[-1] // 2`` long).
    """
    n = y.shape[-1]

    def basic(stop):
        pair = halves[..., :len(range(0, stop, 2))]
        np.multiply(y[..., 1:stop + 1:2], 4.0, out=pair)
        np.add(y[..., 0:stop:2], pair, out=pair)
        pair += y[..., 2:stop + 2:2]
        total = np.sum(pair, axis=-1)
        total *= dx / 3.0
        return total

    if n % 2:
        return basic(n - 2)
    result = basic(n - 3)
    h0 = h1 = np.float64(dx)
    alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
    eta = (1 * h1**3) / (6 * h0 * (h0 + h1))
    result += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    result += 0.0  # scipy's two-sample term, 0 here; it turns -0.0 into 0.0
    return result


# most doubles in one ``f.f`` result of ``_RowRates``: glibc's default mmap
# threshold, 128 KiB, so the result comes back from the heap on every call;
# a whole 8-line block's (275 KB on bbm-slice) is mapped and faulted afresh
# (fresh bbm-slice runs: 64.9k minor faults against 5.8k)
_F_VALUES = 1 << 14


class _RowRates:
    """Rate energies of blocks of profile rows sharing one grid, one row per width.

    Precondition: h <= eps / 8 for every width eps (``e1d`` checks it, and
    the line spacing of ``slicing_check`` satisfies it by construction).
    The samples x = a - eps + i h/2 then resolve both the eps-scale
    undulation of the window average and the sub-eps kinks of the
    interpolant itself; sampling only at the profile nodes inflates
    int f(u) by (dx^2/6) int |u'|^2, which the eps^{-2} normalization then
    amplifies into a visible bias.

    The samples sit one constant fraction past the half-cell nodes
    a + p h/2, and x + eps sits on them.  So u(x), its running integral
    U(x) and U(x + eps) are slices of half-node arrays: the values, U, and
    half the cell slopes, padded by ceil(max eps / dx) + 4 half-cells of 0
    on the left and of 0, U(b) and 0 on the right.  U is exact for the
    interpolant with zero extension; u is 0 off [a, b].

    One object serves every block of up to ``lines`` rows of ``n`` samples:
    the per-width sample grid (count, start, phase and the range inside
    [a, b]) is set up here, and a call fills buffers the object owns: the
    three half-node arrays, u(x) stacked on the window slopes, a term
    buffer and Simpson's pair sums.  ``f.f`` runs per width on the stacked
    pairs of as many rows as keep its result, the one array a call
    allocates, within ``_F_VALUES`` doubles (3 rows, 103 KB, on bbm-slice's
    lines).  An object serves one thread at a time.
    """

    def __init__(self, lines: int, n: int, a: float, h: float, widths):
        b = a + (n - 1) * h
        self._dx = dx = 0.5 * h
        self._h = h
        self._pad = pad = int(math.ceil(max(widths) / dx)) + 4
        self._nodes = nodes = 2 * n - 1
        self._widths = []
        for eps in widths:
            xs = np.arange(a - eps, b + dx, dx)
            t = -eps / dx
            inside = np.flatnonzero((xs >= a) & (xs <= b))
            self._widths.append((eps, len(xs), pad + math.floor(t), t - math.floor(t),
                                 inside[0], inside[-1] + 1))
        longest = max(k for _, k, *_ in self._widths)
        self._f_lines = max(1, _F_VALUES // (2 * longest))
        self._vals, self._integ, self._half_slope = (
            np.zeros((lines, nodes + 2 * pad)) for _ in range(3))
        self._window = np.empty((2, lines, longest))  # u(x), then the window slopes
        self._term = np.empty((lines, longest))
        self._halves = np.empty((lines, longest // 2))

    def __call__(self, rows: np.ndarray, f: Potential, out: np.ndarray) -> np.ndarray:
        """Fill ``out[j, i]`` with the energy of ``rows[i]`` at width j; return it."""
        m, n = rows.shape
        h, dx, pad, nodes = self._h, self._dx, self._pad, self._nodes
        on = slice(pad, pad + nodes)
        vals, integ = self._vals[:m], self._integ[:m]
        half_slope = self._half_slope[:m]
        # per-cell values go to the term buffer; the pads stay 0 from
        # construction, but for U(b) on integ's right
        cell = self._term[:m, :n - 1]
        vals[:, on][:, 0::2] = rows
        np.add(rows[:, :-1], rows[:, 1:], out=cell)
        np.multiply(cell, 0.5, out=vals[:, on][:, 1::2])
        U = _cumulative_trapezoid(rows, h, integ[:, on][:, 0::2])
        np.subtract(rows[:, 1:], rows[:, :-1], out=cell)
        cell /= h
        cell *= 0.5
        half_slope[:, on][:, 0:-1:2] = cell
        half_slope[:, on][:, 1::2] = cell
        mid = integ[:, on][:, 1::2]
        np.multiply(rows[:, :-1], dx, out=mid)
        mid += U[:, :-1]
        cell *= dx
        cell *= dx
        mid += cell
        integ[:, pad + nodes:] = U[:, -1:]
        for j, (eps, k, start, phase, lo, hi) in enumerate(self._widths):
            s = phase * dx
            at, nxt = slice(start, start + k), slice(start + 1, start + k + 1)
            both = self._window[:, :m, :k]
            u_x, slope, term = both[0], both[1], self._term[:m, :k]
            # window slopes (U(x + eps) - U(x)) / eps
            np.multiply(vals[:, at], s, out=slope)
            if 0 <= pad + nodes - 1 - start < k:  # U(x) takes no slope past b
                slope[:, pad + nodes - 1 - start] = 0.0
            slope += integ[:, at]
            slope += np.multiply(half_slope[:, at], s * s, out=term)
            np.subtract(integ[:, pad:pad + k], slope, out=slope)
            slope /= eps
            np.multiply(vals[:, at], 1.0 - phase, out=u_x)
            u_x += np.multiply(vals[:, nxt], phase, out=term)
            u_x[:, :lo] = 0.0
            u_x[:, hi:] = 0.0
            for i in range(0, m, self._f_lines):
                values = f.f(both[:, i:i + self._f_lines])
                np.subtract(values[0], values[1], out=term[i:i + self._f_lines])
            out[j] = _simpson(term, dx, self._halves[:m]) / (eps * eps)
        return out


def _e1d_rows(rows: np.ndarray, a: float, h: float, f: Potential, widths) -> np.ndarray:
    """Rate energies of profile rows on one grid, one result row per width.

    One ``_RowRates`` call with buffers of its own for these rows; its
    half-node arrays are padded by ceil(max eps / (h/2)) + 4 half-cells.
    """
    return _RowRates(*rows.shape, a, h, widths)(rows, f, np.empty((len(widths), len(rows))))


def e1d(u: Profile1D, f: Potential, eps: float) -> float:
    """Rescaled defect between f of the profile and f of its window averages.

    Nonnegative for convex f by Jensen's inequality; second-order accurate,
    hence the eps^{-2} normalization converges.
    """
    if eps <= 0:
        raise RateDomainError("window width must be positive")
    if u.spacing > eps / 8.0:
        raise RateDomainError(
            f"profile spacing {u.spacing:.3g} too coarse for eps={eps:.3g}; need <= eps/8"
        )
    return float(_e1d_rows(u.values[None, :], u.interval[0], u.spacing, f, [eps])[0, 0])


def e1d_limit(u: Profile1D, f: Potential) -> float:
    """Pointwise limit density: (1/24) integral of f''(u) |u'|^2.

    Returns inf when the discrete derivative energy keeps growing under
    coarsening reversal (profile not in H^1, e.g. a step).
    """
    e_fine = u.derivative_energy(1)
    e_mid = u.derivative_energy(2)
    if e_fine > 1e-12 and e_fine > 1.9 * e_mid:
        return math.inf
    v = u.derivative_values()
    dens = f.d2f(u.values) * v * v
    return float(np.trapezoid(dens, dx=u.spacing)) / 24.0


def e1d_lower_bound(u: Profile1D, f: Potential, eps: float) -> float:
    """Triangular-window lower bound (alpha/4) iint H_eps(r) ((u(y+r)-u(y))/eps)^2.

    H is the unit triangle (1-|r|)+ scaled to a probability density of width
    eps; requires a positive convexity constant on the potential.
    """
    if f.alpha <= 0:
        raise RateDomainError("lower bound needs a potential with alpha > 0")
    if eps <= 0:
        raise RateDomainError("window width must be positive")
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    r_half = 0.5 * eps * (gl_x + 1.0)          # nodes in (0, eps)
    w_half = 0.5 * eps * gl_w
    r_nodes = np.concatenate([-r_half[::-1], r_half])
    r_w = np.concatenate([w_half[::-1], w_half])
    h_vals = eps ** -1 * np.clip(1.0 - np.abs(r_nodes) / eps, 0.0, None)

    a, b = u.interval
    dy = eps / 16.0
    ys = np.arange(a - eps, b + eps + dy, dy)
    u_y = u.at(ys)
    acc = 0.0
    for r, w, hv in zip(r_nodes, r_w, h_vals):
        diff = (u.at(ys + r) - u_y) / eps
        acc += w * hv * np.trapezoid(diff * diff, dx=dy)
    return 0.25 * f.alpha * float(acc)


# ---------------------------------------------------------------------------
# planar grid rate energies


@dataclass(frozen=True)
class RateValue:
    eps: float
    f_eps: float
    f_0: float

    @property
    def e_eps(self) -> float:
        return (self.f_0 - self.f_eps) / (self.eps * self.eps)


def _z_nodes(G: Kernel, n_angular):
    """Radial and angular rules of the grid rate energies, from r_eff/100 up."""
    r_eff = G.effective_radius()
    rs, ws = kernels.radial_rule(G, 1e-2 * r_eff, r_eff, 2.0, 6)
    dirs, wa = kernels.angular_rule(n_angular)
    return rs, ws, dirs, wa


def _bspline_taps(t: float) -> np.ndarray:
    """Cubic B-spline weights of nodes -1..2 at fraction t past node 0."""
    return np.array([[
        (1.0 - t) ** 3,
        3.0 * t**3 - 6.0 * t**2 + 4.0,
        -3.0 * t**3 + 3.0 * t**2 + 3.0 * t + 1.0,
        t**3,
    ]]) / 6.0


# The cubic B-spline's pole sqrt(3) - 2, spelled as scipy's spline filter
# spells it: math.sqrt(3) - 2 is one ulp away and changes the coefficients.
_POLE = -0.267949192431122706472553658494127633
# most points per block of the per-point stencil: its buffers take 16
# doubles a point, 1.1 MB for one block of slice-assembly lines (8 x 1045
# points), which this holds whole, so each sampler call pays the tap
# loop's fixed cost once; a call splits into equal blocks
_POINT_BLOCK = 1 << 14


def _spline_filter(values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients that interpolate planar ``values`` at the nodes.

    scipy's ``spline_filter(values, order=3, mode="nearest")``, same
    arithmetic: per axis, 0 then 1, over all lines of that axis at once,
    the gain, the causal init of a mirror-symmetric extension, the causal
    recursion, the anticausal init and the anticausal recursion.
    """
    z = _POLE
    out = np.array(values, dtype=float)
    for axis in (0, 1):
        c = np.ascontiguousarray(np.moveaxis(out, axis, 0))
        n = len(c)
        c *= (1.0 - z) * (1.0 - 1.0 / z)
        # c[0] accumulates z^i (c[i] + z^n c[n-1-i]) in place, so the last
        # term, i = n - 1, reads the running sum for c[0]
        z_n = z ** n
        z_i = np.cumprod(np.full(n - 1, z)).reshape(n - 1, 1)
        terms = np.empty_like(c[:n - 1])
        terms[0] = c[0] + z_n * c[n - 1]
        terms[1:] = z_i[:n - 2] * (c[1:n - 1] + z_n * c[n - 2:0:-1])
        acc = np.cumsum(terms, axis=0)[-1]
        acc += z_i[n - 2] * (c[n - 1] + z_n * acc)
        acc *= z / (1 - z_n * z_n)
        acc += c[0]
        c[0] = acc
        for i in range(1, n):
            c[i] += z * c[i - 1]
        c[n - 1] *= z / (z - 1)
        for i in range(n - 2, -1, -1):
            row = c[i:i + 1]
            np.subtract(c[i + 1:i + 2], row, out=row)
            row *= z
        out = np.moveaxis(c, 0, axis)
    return np.ascontiguousarray(out)


class _SplineSampler:
    """Cubic-spline view of a grid field extended past the window.

    The multilinear interpolant has gradient jumps across every cell face,
    which a second-order defect quotient picks up as a spurious O(h/eps)
    contribution; a C^2 interpolant does not.  The values are padded by
    ``pads`` cells per axis (``pad_mode`` goes to ``np.pad``) and
    prefiltered once; coefficient index i sits at padded cell i.

    ``lattice`` evaluates the spline on a shifted lattice of cell centers:
    its fraction is the same at every node, so each axis takes one 4-tap
    B-spline filter (``fields.shift_taps``) over the block of coefficients
    the lattice covers.  Calling the sampler evaluates it at arbitrary
    points, each through its own 4 x 4-tap stencil; only the rotated line
    samples of ``slicing_check`` need that.  A call works through its
    points in blocks of at most ``_POINT_BLOCK``, so its working set is
    bounded whatever the batch; the tap offsets are built once, here.
    Queries must stay inside the pad, clear of the stencil edge; both
    paths raise ``RateDomainError`` otherwise.
    """

    def __init__(self, u: GridField, pads: Sequence[int], **pad_mode):
        h = u.spacing
        padded = np.pad(u.values, [(p, p) for p in pads], **pad_mode)
        self._coeffs = _spline_filter(padded)
        self._origin = np.asarray(u.box.origin, dtype=float) - np.asarray(pads) * h
        self._h = h
        self._resolution = np.asarray(u.box.resolution)
        self._pads = np.asarray(pads)
        # the per-point stencil: taps (i, j) and their flat offsets, axis 1 fastest
        self._stride = self._coeffs.shape[1]
        self._stencil = [(i, j, i * self._stride + j) for i in range(4) for j in range(4)]
        # coordinate, index, weight and term buffers of one point block,
        # kept across calls
        self._scratch = None

    @classmethod
    def constant(cls, u: GridField, margin: float) -> "_SplineSampler":
        """Pad with the outside constant, clear of ``margin`` plus the stencil.

        Each axis takes ceil(margin / h) + 4 cells, so a query up to
        ``margin`` past the box keeps its 4 x 4 stencil inside, and so does
        the lattice ``centers(m)`` shifted by up to ``margin - m``.
        ``slicing_check`` passes max(reach of its lines past the box,
        2 eps r_eff) + delta; the 2 eps r_eff floor covers its direct side's
        lattice, ``centers(eps r_eff)`` shifted by up to eps r_eff.
        """
        hx, hy = u.spacing
        pads = (math.ceil(margin / hx) + 4, math.ceil(margin / hy) + 4)
        return cls(u, pads, constant_values=u.outside)

    def __call__(self, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Spline values at points of shape (..., 2), into ``out`` if given.

        The arithmetic of scipy's order-3 interpolation of prefiltered
        coefficients: with y the fraction past floor(x) and z = 1 - y,
        the tap weights are z^3/6, (3 y^2 (y - 2) + 4)/6, (3 z^2 (z - 2) +
        4)/6 and one minus those, the stencil starts at floor(x) - 1, and
        the terms (c w_0) w_1 of the 16 taps are summed with axis 1 fastest.

        The points run in equal blocks of at most ``_POINT_BLOCK``, each
        with its own coordinates, bounds check and tap weights (contiguous
        per axis and tap).  Each tap is one gather from the coefficients
        shifted by its offset into the term buffer.  The coordinate, index,
        weight and term buffers of one block belong to the sampler and
        outlive the call, so a call with ``out`` (C-contiguous, shape
        ``pts.shape[:-1]``) allocates nothing of the points' size, and a
        sampler serves one thread at a time.
        """
        pts = np.asarray(pts, dtype=float)
        flat_pts = pts.reshape(-1, pts.shape[-1])
        n = len(flat_pts)
        blocks = max(1, -(-n // _POINT_BLOCK))
        size = max(1, -(-n // blocks))  # equal blocks, the last one at most as long
        dims = np.asarray(self._coeffs.shape)
        flat = self._coeffs.ravel()
        if out is None:
            out = np.empty(pts.shape[:-1])
        flat_out = out.reshape(n)
        if self._scratch is None or self._scratch[0].shape[1] < size:
            # per axis: coordinate (then y), floor (then z) and four tap
            # weights, and the term; the stencil's first node per axis and flat
            self._scratch = (np.empty((13, size)), np.empty((3, size), dtype=np.intp))
        real, index = self._scratch
        weights = real[4:12].reshape(2, 4, -1)
        for s in range(0, n, size):
            block = flat_pts[s:s + size]
            m = len(block)
            y, z, w = real[0:2, :m], real[2:4, :m], weights[:, :, :m]
            term, lo, start = real[12, :m], index[0:2, :m], index[2, :m]
            np.subtract(block.T, self._origin[:, None], out=y)
            y /= self._h[:, None]
            y -= 0.5
            np.floor(y, out=z)
            np.copyto(lo, z, casting="unsafe")
            lo -= 1
            if lo.min() < 0 or np.any(lo.max(axis=1) + 4 > dims):
                raise RateDomainError("a query's stencil reaches past the padded coefficients")
            np.multiply(lo[0], self._stride, out=start)
            start += lo[1]
            y -= z
            np.subtract(1.0, y, out=z)
            w0, w1, w2, w3 = (w[:, i] for i in range(4))
            np.multiply(z, z, out=w0)
            w0 *= z
            w0 /= 6.0
            for wk, v in ((w1, y), (w2, z)):  # (3 v^2 (v - 2) + 4) / 6
                np.subtract(v, 2.0, out=w3)
                np.multiply(v, v, out=wk)
                wk *= w3
                wk *= 3.0
                wk += 4.0
                wk /= 6.0
            np.subtract(1.0, w0, out=w3)
            w3 -= w1
            w3 -= w2
            acc = flat_out[s:s + m]
            acc.fill(0.0)
            for i, j, off in self._stencil:
                # in range by the check above; "clip" writes to ``out`` unbuffered
                flat[off:].take(start, out=term, mode="clip")
                term *= w[0, i]
                term *= w[1, j]
                acc += term
        return out

    def centers(self, margin: float) -> tuple[tuple, np.ndarray]:
        """Cell centers of the grid widened by ceil(margin / h) cells per axis.

        Returns the lattice shape and the coefficient index of its first
        node, the ``shape`` and ``base`` that ``lattice`` takes.
        """
        pads = np.ceil(margin / self._h).astype(int)
        return tuple(int(n) for n in self._resolution + 2 * pads), self._pads - pads

    def lattice(self, shape: Sequence[int], base, shift) -> np.ndarray:
        """Spline values at coefficient indices base + shift + k, 0 <= k < shape.

        ``base`` is an integer index per axis and ``shift`` a displacement
        in cells per axis.  The fraction comes from ``shift`` alone, so a
        large ``base`` costs none of its bits.
        """
        whole = np.floor(shift)
        lo = np.asarray(base) + whole.astype(int) - 1
        if np.any(lo < 0) or np.any(lo + np.asarray(shape) + 3 > self._coeffs.shape):
            raise RateDomainError("the lattice reaches past the padded coefficients")
        (x0, y0), (nx, ny), (tx, ty) = lo, shape, shift - whole
        block = self._coeffs[x0:x0 + nx + 3, y0:y0 + ny + 3]
        flat = shift_taps(block.ravel(), _bspline_taps(tx), ny + 3)[0]
        flat = shift_taps(flat, _bspline_taps(ty), 1)[0]
        return flat.reshape(block.shape)[:nx, :ny]


def _x_quadrature(u: GridField):
    """2 x 2-point product-Gauss rule for the x-integral, per cell.

    Returns the (4, 2) sub-cell offsets from the cell center, y fastest,
    and their weights times the cell area; each offset is one sub-lattice.
    The sub-cell nodes resolve structure the plain cell-center sum misses
    (fields with gradient kinks, whose defect density varies on the cell
    scale).
    """
    hx, hy = u.spacing
    g, gw = np.polynomial.legendre.leggauss(2)
    offs = np.array([(x, y) for x in 0.5 * hx * g for y in 0.5 * hy * g])
    sub_w = np.array([a * b for a in 0.5 * gw for b in 0.5 * gw])
    return offs, sub_w * float(hx * hy)


def rate_ddim(
    u: GridField,
    G: Kernel,
    f: Potential,
    eps: float,
    n_angular=None,
) -> RateValue:
    """Kernel-weighted rate energy on a grid field.

    F_eps integrates f of the averaged difference quotient |u(x+eps z)-u(x)|
    /(eps|z|) against G(z); F_0 replaces the quotient by the directional
    slope |grad u . z_hat|.  The rate is (F_0 - F_eps)/eps^2, nonnegative for
    convex f.  Both terms sample one cubic-spline interpolant on one grid --
    the slope through a tiny symmetric probe -- so their discretization
    errors cancel in the difference instead of swamping the O(eps^2) defect.
    The field must agree with its constant extension on the window boundary
    so all differences vanish far away.  G must be planar, as the field is.
    """
    kernels.require_planar(G)
    if eps <= 0:
        raise RateDomainError("eps must be positive")
    kernels.require_resolved(G, eps, u.spacing, RateDomainError)
    check_constant_ring(u, RateDomainError)
    if np.ptp(u.values) == 0.0:
        # identically the extension constant: every difference vanishes
        return RateValue(eps, 0.0, 0.0)
    rs, ws, dirs, wa = _z_nodes(G, n_angular)
    kv = G.profile_at(rs)
    h = u.spacing
    delta = 1e-3 * float(np.min(h))

    reach = eps * float(rs.max())
    spl = _SplineSampler.constant(u, 2.0 * reach + delta)
    shape, base = spl.centers(reach)
    subs, sub_w = _x_quadrature(u)
    u_x = [spl.lattice(shape, base, sub / h) for sub in subs]
    radial_w = ws * rs * kv
    radial_total = float(np.sum(radial_w))

    f_0 = 0.0
    f_eps = 0.0
    for d_hat, w_ang in zip(dirs, wa):
        probes = 0.0
        for sub, w in zip(subs, sub_w):
            plus = spl.lattice(shape, base, (sub + delta * d_hat) / h)
            minus = spl.lattice(shape, base, (sub - delta * d_hat) / h)
            probes += w * float(np.sum(f.f(np.abs(plus - minus) / (2.0 * delta))))
        f_0 += radial_total * w_ang * probes
        quots = 0.0
        for r, w_r in zip(rs, radial_w):
            disp = (eps * r) * d_hat
            for sub, w, centre in zip(subs, sub_w, u_x):
                shifted = spl.lattice(shape, base, (sub + disp) / h)
                quot = np.abs(shifted - centre) / (eps * r)
                quots += w_r * w * float(np.sum(f.f(quot)))
        f_eps += w_ang * quots
    return RateValue(eps, f_eps, f_0)


def rate_limit_ddim(u: GridField, G: Kernel, f: Potential) -> float:
    """Limit of the grid rate energies:

        (1/24) iint G(z) |z|^2 f''(|grad u . z_hat|) (z_hat^T hess u z_hat)^2.

    Directional slope and bend come from symmetric probes of the same
    cubic-spline interpolant the rate energies sample, so the two converge
    to a common value as eps shrinks.  The values are extended by odd
    reflection before prefiltering, which keeps affine trends exact right
    up to the window edge (an affine field reports 0).  G must be planar.
    """
    kernels.require_planar(G)
    rs, ws, dirs, wa = _z_nodes(G, None)
    kv = G.profile_at(rs)
    second_moment = float(np.sum(ws * rs ** 3 * kv))

    sample = _SplineSampler(u, (12, 12), mode="reflect", reflect_type="odd")
    shape, base = sample.centers(0.0)
    subs, sub_w = _x_quadrature(u)
    h = u.spacing
    delta = 1e-2 * float(np.min(h))
    u_x = [sample.lattice(shape, base, sub / h) for sub in subs]
    acc = 0.0
    for d_hat, w_ang in zip(dirs, wa):
        bends = 0.0
        for sub, w, centre in zip(subs, sub_w, u_x):
            plus = sample.lattice(shape, base, (sub + delta * d_hat) / h)
            minus = sample.lattice(shape, base, (sub - delta * d_hat) / h)
            slope = np.abs(plus - minus) / (2.0 * delta)
            bend = (plus - 2.0 * centre + minus) / (delta * delta)
            bends += w * float(np.sum(f.d2f(slope) * bend * bend))
        acc += w_ang * bends
    return second_moment * acc / 24.0


# lines per block of the slice assembly (sampler calls and ``_RowRates``):
# a line takes about 280 KB of block buffers on bbm-slice (112 KB of 1D
# energies, 134 KB of sampler, 33 KB of points and values), so 8 lines
# keep them near 2 MB, one core's L2; 16 lines take the same time and
# 2 MB more peak RSS, 4 lines about 15% more time in per-block overhead
_ROW_BLOCK = 8


@dataclass(frozen=True)
class SlicingReport:
    eps: float
    direct: float
    assembled: float

    @property
    def rel_gap(self) -> float:
        return abs(self.direct - self.assembled) / max(abs(self.direct), 1e-300)


def slicing_check(
    u: GridField,
    G: Kernel,
    f: Potential,
    eps: float,
) -> SlicingReport:
    """Cross-check: the grid rate energy equals its line-slice assembly.

    Both sides share one z-quadrature (radius x direction product).  The
    direct side evaluates the defect integrand on the grid; the assembled
    side extracts 1D profiles of the directional derivative along lines,
    feeds them through the 1D rate energy at width eps*|z|, and recombines
    with weight G(z)|z|^2.

    One spline serves both sides.  Its pad is max(R - s/2, 2 eps r_eff)
    + delta, with R the farthest line sample from the box center and s
    the shorter box side: the lines reach R - s/2 past the box, and the
    direct side's lattice, widened by eps r_eff and shifted by up to
    eps r_eff, reaches 2 eps r_eff, farther on a box small next to the
    kernel.  The probes add delta.

    The lines of a direction stream in blocks of ``_ROW_BLOCK``.  Each
    block's points, its two probe samplings and its 1D energies go to
    buffers sized for one block, which this call owns (the point and
    value arrays here, the sampler's block buffers and one ``_RowRates``),
    so a block allocates only what ``f.f`` returns; only the (radius,
    line) table of energies spans blocks.  Every line is evaluated on its
    own and the table is summed per radius once it is full, so the result
    does not depend on the block sizes.  G must be planar, as the field is.
    """
    kernels.require_planar(G)
    check_constant_ring(u, RateDomainError)
    r_eff = G.effective_radius()
    kernels.require_resolved(G, eps, u.spacing, RateDomainError)
    rs, ws = kernels.gauss_log_panels(0.25 * r_eff, r_eff, 4.0, 6)
    dirs, wa = kernels.angular_rule(16)
    kv = G.profile_at(rs)
    cell = float(np.prod(u.spacing))
    h = float(np.min(u.spacing))
    delta = 1e-3 * h

    center = np.asarray(u.box.origin) + 0.5 * np.asarray(u.box.size)
    half_diag = 0.5 * float(np.linalg.norm(u.box.size))
    # lines at offsets xi through the center, sampled at t along them;
    # they overshoot the window corners
    dt = eps * rs.min() / 8.0
    xi = np.arange(-half_diag, half_diag + h, h)
    t_lo = -(half_diag + eps * r_eff)
    t = np.arange(t_lo, -t_lo + dt, dt)
    reach = math.hypot(np.abs(xi).max(), np.abs(t).max()) - 0.5 * min(u.box.size)
    spl = _SplineSampler.constant(u, max(reach, 2.0 * eps * r_eff) + delta)

    shape, base = spl.centers(eps * r_eff)
    step = np.asarray(u.spacing)
    u_x = spl.lattice(shape, base, np.zeros(2))
    radial_w = ws * rs * kv

    direct = 0.0
    for d_hat, w_ang in zip(dirs, wa):
        plus = spl.lattice(shape, base, delta * d_hat / step)
        minus = spl.lattice(shape, base, -delta * d_hat / step)
        probes = float(np.sum(f.f(np.abs(plus - minus) / (2.0 * delta))))
        per_radius = np.empty(len(rs))
        for i, r in enumerate(rs):
            shifted = spl.lattice(shape, base, (eps * r) * d_hat / step)
            per_radius[i] = probes - float(np.sum(f.f(np.abs(shifted - u_x) / (eps * r))))
        direct += w_ang * float(np.sum(radial_w * per_radius)) * cell
    direct /= eps * eps

    # slice assembly: per direction, blocks of lines stream through the
    # sampler and the 1D energies; only their (radius, line) table is kept
    assembled = 0.0
    lines = min(_ROW_BLOCK, len(xi))
    rates = _RowRates(lines, len(t), t_lo, dt, eps * rs)
    pts = np.empty((lines, len(t), 2))
    plus, minus = np.empty((lines, len(t))), np.empty((lines, len(t)))
    energies = np.empty((len(rs), len(xi)))
    half = len(dirs) // 2
    for d_hat, w_ang in zip(dirs[:half], wa[:half]):
        perp = np.array([-d_hat[1], d_hat[0]])
        along = t[:, None] * d_hat
        probe = delta * d_hat
        for i in range(0, len(xi), lines):
            # the probed derivative along d_hat on the lines at these offsets
            offsets = xi[i:i + lines]
            m = len(offsets)
            across = center + offsets[:, None, None] * perp
            np.add(across, along, out=pts[:m])
            pts[:m] += probe
            spl(pts[:m], out=plus[:m])
            np.add(across, along, out=pts[:m])
            pts[:m] -= probe
            spl(pts[:m], out=minus[:m])
            slopes = np.subtract(plus[:m], minus[:m], out=plus[:m])
            slopes /= 2.0 * delta
            rates(slopes, f, energies[:, i:i + m])
        for r, wr, e_r in zip(rs, radial_w, energies):
            assembled += wr * (2.0 * w_ang) * (r * r) * float(np.sum(e_r)) * h
    return SlicingReport(eps, direct, assembled)


# ---------------------------------------------------------------------------
# effective kernel of the window average


EFFECTIVE_RADIUS_FACTOR = {2: 1.0, 3: 0.5}


def effective_kernel(G: Kernel) -> Kernel:
    """Triangle-window average of the mass-preserving rescales of G.

    The result integrates G_t(z) = t^{-d} G(z/t) against the unit triangle
    weight in t; it keeps the total mass of G and is strictly positive on a
    ball whose radius is a known dimensional fraction of the support of G.
    """
    r1 = G.effective_radius()
    d = G.d
    r0 = G.r0 if G.r0 > 0 else 0.0
    gl_x, gl_w = np.polynomial.legendre.leggauss(48)

    def profile(rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        lo = np.maximum(rho / r1, 1e-12)
        hi = np.minimum(rho / r0, 1.0) if r0 > 0 else np.ones_like(rho)
        out = np.zeros_like(rho)
        ok = lo < hi
        if np.any(ok):
            llo, lhi = np.log(lo[ok]), np.log(hi[ok])
            mid = 0.5 * (llo + lhi)[:, None] + 0.5 * (lhi - llo)[:, None] * gl_x[None, :]
            r = np.exp(mid)
            wq = 0.5 * (lhi - llo)[:, None] * gl_w[None, :] * r
            vals = 2.0 * (1.0 - r) * r ** (-d) * G.profile_at(rho[ok, None] / r)
            out[ok] = np.sum(wq * vals, axis=1)
        return out if out.shape else float(out)

    return kernels.custom_radial(profile, d=d, r_max=r1, r0=r0)



# ---------------------------------------------------------------------------
# regularity criterion


def curvature_bound(u: GridField, G: Kernel, f: Potential) -> float:
    """The curvature-capped upper bound (c/2) (int G|z|^2) (int |hess u|^2)
    of the grid rate energies.

    It is finite exactly when the field has square-integrable second
    differences; rate energies staying below it indicate that regularity,
    while their growth under eps-refinement flags a gradient kink.  G must
    be planar, as the field is.
    """
    kernels.require_planar(G)
    if f.c is None:
        raise RateDomainError("regularity criterion needs a potential with bounded f''")
    h = u.spacing
    hess_sq = sum(
        np.gradient(g, h[j], axis=j)[2:-2, 2:-2] ** 2
        for g in np.gradient(u.values, *h)
        for j in (0, 1)
    )
    hess_energy = float(np.sum(hess_sq)) * float(np.prod(h))
    return 0.5 * f.c * kernels.absolute_moment(G, 2.0).value * hess_energy
