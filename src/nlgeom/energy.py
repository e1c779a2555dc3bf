"""Nonlocal interaction energies between sets and functions.

Every double integral here is evaluated in the shifted-overlap form

    integral K(z) * (overlap measure of the configuration shifted by z) dz

so the kernel's singular factor lives in a low-dimensional radial-angular
quadrature while the overlap factor is an exact lattice computation on a
working grid.  Quadrature nodes z are binned to lattice offsets by
:func:`kernels.lattice_stencil` (the kernel value itself is kept at the
exact node); nodes inside the central cell snap to the zero offset and
contribute nothing, which matches the vanishing of the |u(y)-u(x)| factor on
the diagonal.  A process builds each stencil once per (kernel, grid) and
each window mask once per (window, grid); the cached arrays are read-only.
A halfspace-cell run with 3 eps and 4 competitors thus builds 3 stencils
for its 15 perimeters, and a submodularity run 1 for all its pairs.

Sets enter as indicator fields: a shape rasterized on the working grid, or
the superlevel indicator of a phase field.  Binary fields -- every value
and the outside fill in {0, 1}, as for these indicators and the window --
take the fast path.  For 0/1 values |s - t| = s(1 - t) + t(1 - s), so the
overlap at each offset o is a sum of pair counts
C_fg(o) = sum_x f(x) g(x + o), and one ``numpy.fft`` correlation gives them
for every offset at once (3 forward and 2 inverse real transforms).  Each
axis is padded to the smallest 2^a 3^b 5^c length that is at least
n + max|o|, so no offset wraps around.  The counts are
integers: each is checked to lie within 0.25 of one and rounded, so it
equals the count the per-offset sweep adds up, and the energies match that
sweep bit for bit whatever the transform's roundoff.  That roundoff is far
from the guard: on random 0/1 fields of 96^2 to 720^2 cells the correlation
sat at most 4.4e-11 off an integer.  Other phase fields take the general
path, one full-grid sweep per offset over windows of the field padded
once by the stencil's reach.  Either way the stencil must fit the grid:
:func:`kernels.require_held` bounds the rescaled kernel's support by the
grid's shorter side before any stencil is built.

The exact counts are also why the nonnegativity guard of
:class:`EnergyBreakdown` needs no tolerance: each term is a sum of
nonnegative weights times nonnegative integers, so transform roundoff never
reaches it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import DomainError, kernels
from .fields import Box, GridField, Shape, rasterize, superlevel
from .kernels import Kernel


class EnergyDomainError(DomainError):
    pass


@dataclass(frozen=True)
class EnergyBreakdown:
    """Interior term, cross term and their sum."""

    j1: float
    j2: float

    @property
    def total(self) -> float:
        return self.j1 + self.j2

    def __post_init__(self):
        if self.j1 < 0.0 or self.j2 < 0.0:
            raise EnergyDomainError("energy terms must be nonnegative")


# --------------------------------------------------------------------------
# lattice plumbing


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a transform length with only small factors."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _fft_size(shape, offsets) -> tuple[int, ...]:
    """Per-axis transform length n + max|o|: no offset's count wraps around."""
    reach = np.abs(offsets).max(axis=0)
    return tuple(_fast_len(int(n + r)) for n, r in zip(shape, reach))


def _counts_at(spectrum: np.ndarray, size, offsets) -> np.ndarray:
    """Integer values at the offsets of the correlation with this spectrum."""
    c = np.fft.irfftn(spectrum, size, (0, 1))[tuple(offsets.T)]  # negative offsets wrap
    counts = np.rint(c)
    if np.any(np.abs(c - counts) > 0.25):
        raise FloatingPointError("FFT pair counts lost integrality")
    return counts + 0.0  # turn a rounded -0.0 into 0.0


def _binary_pair_counts(u: np.ndarray, outside: float, omega: np.ndarray,
                        offsets) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset J1 and J2 pair counts of 0/1 values, by FFT correlation.

    With a = omega, b = omega * u and v = u - outside (zero beyond the box),
    a - b marks the window's 0 cells and b its 1 cells, so

        J1 count(o) = C_{a-b,b}(o) + C_{a-b,b}(-o)
        total(o)    = outside * sum a + (1 - 2 outside) * sum b + C_{a-2b,v}(o)

    and the J2 count is total - J1 count.

    A call holds at most four spectra of the padded size at once.  The sums
    of a and b are taken first and a - b overwrites a, so each real input
    dies with its forward transform, F(b) and then F(a - b).  The difference
    d = F(a - b) - F(b) is formed while both are live (three spectra); then
    conj(F(a - b)) F(b) overwrites F(a - b) and F(b) dies.  The J1 inverse
    adds its two temporaries, a complex pass and the real output, to that
    product and d: the peak of four.  The product dies after it, and
    conj(d) F(v), formed in d's buffer, goes through the second inverse.
    Every sum and product takes the same operands in the same order as when
    each was a fresh array, so the counts are the same bits.
    """
    a = omega.astype(float)
    b = a * u
    base = outside * a.sum() + (1.0 - 2.0 * outside) * b.sum()
    a -= b
    size = _fft_size(u.shape, offsets)
    fb = np.fft.rfftn(b, size, (0, 1))
    del b
    fc = np.fft.rfftn(a, size, (0, 1))
    del a
    d = fc - fb
    np.conjugate(fc, out=fc)
    fc *= fb
    del fb
    both = _counts_at(fc, size, np.concatenate([offsets, -offsets]))
    del fc
    n1 = both[:len(offsets)] + both[len(offsets):]
    np.conjugate(d, out=d)
    d *= np.fft.rfftn(u - outside, size, (0, 1))
    total = base + _counts_at(d, size, offsets)
    return n1, total - n1


def _sweep_pair_counts(u: np.ndarray, outside: float, omega: np.ndarray,
                       offsets) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset J1 and J2 overlap sums, one full-grid sweep per offset.

    u is padded once with ``outside`` and omega once with 0, each axis by
    its own reach r = max|o| along it, so the field shifted by o is the
    window of the padded one that starts at r + o.
    """
    (nx, ny), (rx, ry) = u.shape, np.abs(offsets).max(axis=0, initial=0)
    pad = ((rx, rx), (ry, ry))
    u_pad = np.pad(u, pad, constant_values=outside)
    om = omega.astype(float)
    om_pad = np.pad(om, pad)
    n1 = np.empty(len(offsets))
    n2 = np.empty(len(offsets))
    for i, (ox, oy) in enumerate(offsets):
        win = np.s_[rx + ox:rx + ox + nx, ry + oy:ry + oy + ny]
        om_s = om_pad[win]
        inner = np.abs(u_pad[win] - u) * om
        n1[i] = np.sum(inner * om_s)
        n2[i] = np.sum(inner * (1.0 - om_s))
    return n1, n2


def _is_binary(u: np.ndarray, outside: float) -> bool:
    return outside in (0.0, 1.0) and bool(np.all((u == 0.0) | (u == 1.0)))


def _tv_terms(u: np.ndarray, outside: float, omega: np.ndarray, offsets,
              weights, grid: Box) -> tuple[float, float]:
    """(J1, J2): interior and cross shifted-overlap sums over the stencil.

    J1 = 1/2 * sum over Omega x Omega of K |u(y)-u(x)|, J2 the Omega x
    complement sum (the complement includes the beyond-box region, where u
    takes its constant extension value and Omega does not reach).
    """
    if len(offsets) and _is_binary(u, outside):
        n1, n2 = _binary_pair_counts(u, outside, omega, offsets)
    else:
        n1, n2 = _sweep_pair_counts(u, outside, omega, offsets)
    cell = float(np.prod(grid.spacing))
    j1 = 0.5 * cell * float(np.sum(weights * n1))
    j2 = cell * float(np.sum(weights * n2))
    return j1, j2


@functools.lru_cache(maxsize=16)
def _omega_mask(omega: Shape | None, grid: Box) -> np.ndarray:
    """Cells of ``grid`` whose centers lie in the window; read-only, shared."""
    if omega is None:
        mask = np.ones(grid.resolution, dtype=bool)
    else:
        mask = omega.contains(grid.centers())
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def _stencil(kernel: Kernel, grid: Box) -> tuple[np.ndarray, np.ndarray]:
    """``kernels.lattice_stencil`` on the grid's spacing, built once per
    (kernel, grid); the arrays are shared between calls, so read-only.
    A kernel whose support exceeds the grid's shorter side fails here, in
    ``kernels.require_held``, and one that is not planar in ``kernels.zgrid``.
    """
    kernels.require_held(kernel, 1.0, grid.size, EnergyDomainError)
    offsets, weights = kernels.lattice_stencil(kernel, grid.spacing)
    offsets.flags.writeable = False
    weights.flags.writeable = False
    return offsets, weights


def lattice_sigma(kernel: Kernel, grid: Box, normals) -> np.ndarray:
    """The surface tension the energy sums: ½ Σ_o W(o) |(o⊙h) · ν| per normal.

    The sum runs over the cached stencil of ``kernel`` on ``grid`` (h the
    grid's spacing), one value per row ν of ``normals``, shape (n, 2).  It
    is the lattice form of the continuum σ_K(ν) = ½ ∫ K(z) |z · ν| dz,
    which is κ|ν| for every radial kernel; for a kernel rescaled by eps,
    σ_h(ν) / (eps κ |ν|) − 1 is the stencil's error, first order in
    h / (eps r_eff).  The stencil drops the mass inside the central cell,
    which for the truncated power law r^(-2-s) is a share
    (h / (2 eps r_eff))^(1-s) of σ: at s = 0.5 on a 384-cell grid of half
    side 1.25, σ_h falls 13%, 18% and 26% short at eps 0.2, 0.1 and 0.05,
    far beyond that first order.  The terms are formed coordinate by
    coordinate, so σ_h(−ν) equals σ_h(ν) bit for bit.
    """
    offsets, weights = _stencil(kernel, grid)
    steps = offsets * np.asarray(grid.spacing)
    nu = np.asarray(normals, dtype=float)
    proj = np.abs(steps[:, :1] * nu[:, 0] + steps[:, 1:] * nu[:, 1])
    return 0.5 * np.sum(weights[:, None] * proj, axis=0)


# --------------------------------------------------------------------------
# public operations


def perimeter_k(E: Shape, omega: Shape | None, kernel: Kernel, grid: Box) -> EnergyBreakdown:
    """Three-term nonlocal perimeter of E relative to the window omega.

    J1 couples E inside the window with its complement inside the window;
    J2 holds both cross terms.  The working grid is the universe: E is
    clipped to it, so pick a grid that contains the window plus the kernel
    reach.  A kernel whose support exceeds the grid's shorter side raises
    EnergyDomainError.
    """
    u = rasterize(E, grid).values
    om = _omega_mask(omega, grid)
    offsets, weights = _stencil(kernel, grid)
    j1, j2 = _tv_terms(u, 0.0, om, offsets, weights, grid)
    return EnergyBreakdown(j1, j2)


def limit_tv(E: Shape, omega: Shape | None, kernel: Kernel) -> float:
    """Local limit of the rescaled TVs of a planar shape.

    The integral of sigma over the shape's boundary inside the window, on
    4096 samples of its boundary parametrization.
    """
    from .anisotropy import Anisotropy

    if not isinstance(E, Shape):
        raise EnergyDomainError(f"limit TV takes a shape, not a {type(E).__name__}")
    bs = E.boundary_sample(4096)
    inside = np.ones(len(bs.points), dtype=bool) if omega is None \
        else omega.contains(bs.points)
    sig = Anisotropy(kernel).values_at(bs.normals)
    return float(np.sum(bs.weights[inside] * sig[inside]))


def coarea_check(u: GridField, omega: Shape | None, kernel: Kernel,
                 nlevels: int = 32) -> tuple[float, float, float]:
    """Layer-cake consistency: TV(u) vs the level-integrated perimeters.

    The right-hand side integrates perimeter_k of the superlevel sets
    {u > t} over t in (0,1) by the midpoint rule; the strict superlevel is
    realized as {u >= t + half level gap} so plateau values are counted in
    exactly one level bin.
    """
    if u.tag not in ("phase", "indicator"):
        raise EnergyDomainError("coarea check expects phase values in [0,1]")
    om = _omega_mask(omega, u.box)
    offsets, weights = _stencil(kernel, u.box)
    j1, j2 = _tv_terms(u.values, u.outside, om, offsets, weights, u.box)
    lhs = j1 + j2
    dt = 1.0 / nlevels
    rhs = 0.0
    for j in range(nlevels):
        t = (j + 0.5) * dt
        sup = superlevel(u, t + 0.5 * dt)
        pj1, pj2 = _tv_terms(sup.values, sup.outside, om, offsets, weights, u.box)
        rhs += (pj1 + pj2) * dt
    return lhs, rhs, rhs - lhs


class Submodularity(NamedTuple):
    slack: float  # Per(E) + Per(F) - Per(E and F) - Per(E or F)
    scale: float  # Per(E) + Per(F)


def submodularity_check(E: Shape, F: Shape, kernel: Kernel, grid: Box) -> Submodularity:
    """Per(E) + Per(F) - Per(E and F) - Per(E or F); claimed >= -1e-9 scale.

    All four perimeters share one rasterization pass and one stencil, so the
    lattice identity min+max = sum holds cell by cell and the slack is
    nonnegative up to floating-point roundoff.  The scale Per(E) + Per(F)
    comes along; each perimeter equals ``perimeter_k(E, None, kernel,
    grid).total`` bit for bit: no window, every cell counts.
    """
    chi_e = rasterize(E, grid).values
    chi_f = rasterize(F, grid).values
    om = _omega_mask(None, grid)
    offsets, weights = _stencil(kernel, grid)
    out = []
    for vals in (chi_e, chi_f, np.minimum(chi_e, chi_f), np.maximum(chi_e, chi_f)):
        j1, j2 = _tv_terms(vals, 0.0, om, offsets, weights, grid)
        out.append(j1 + j2)
    return Submodularity(out[0] + out[1] - out[2] - out[3], out[0] + out[1])
