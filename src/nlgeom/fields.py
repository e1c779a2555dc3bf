"""Grids, shapes, and the shift utility built on them.

Geometry is planar: a :class:`Box` and every :class:`Shape` reject any
dimension but d = 2 at construction, so the layers above never test it.

A set is an analytic :class:`Shape`: the superlevel set ``{phi > 0}`` of its
canonical level function, with exact membership tests, so the inner unit
normal is the direction of ``grad phi``.  Balls and halfspaces carry exact
first and second level derivatives, and balls a boundary sampler.  An axis
box and a :class:`LevelShape` are only their level functions, since
membership is all their callers read.  :class:`GridField` holds sampled
values on a uniform box grid: rasterized shapes, their superlevel indicators,
phase fields and level sets.  Fields extend outside their box by a
constant chosen at construction (default 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import DomainError


class FieldDomainError(DomainError):
    """Raised when a grid/shape operation is used outside its contract."""


TAGS = ("indicator", "phase", "level-set")


# --------------------------------------------------------------------------
# boxes and grid fields


@dataclass(frozen=True)
class Box:
    """Axis-aligned planar box with a uniform cell grid."""

    origin: tuple
    size: tuple
    resolution: tuple

    def __post_init__(self):
        origin = tuple(float(v) for v in np.atleast_1d(self.origin))
        size = tuple(float(v) for v in np.atleast_1d(self.size))
        res = tuple(int(v) for v in np.atleast_1d(self.resolution))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "resolution", res)
        if not len(origin) == len(size) == len(res) == 2:
            raise FieldDomainError("origin/size/resolution must be planar (d = 2)")
        if not all(map(math.isfinite, origin + size)):
            raise FieldDomainError("box origin and side lengths must be finite")
        if any(s <= 0 for s in size):
            raise FieldDomainError("box side lengths must be positive")
        if any(n < 4 for n in res):
            raise FieldDomainError("need at least 4 cells per axis")

    @property
    def spacing(self) -> np.ndarray:
        return np.asarray(self.size) / np.asarray(self.resolution)

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.size[axis] / self.resolution[axis]
        return self.origin[axis] + h * (np.arange(self.resolution[axis]) + 0.5)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape ``resolution + (2,)`` (x-first)."""
        grids = np.meshgrid(self.axis_centers(0), self.axis_centers(1), indexing="ij")
        return np.stack(grids, axis=-1)

    @staticmethod
    def cube(half_width: float, n: int) -> "Box":
        """Symmetric square [-w, w]^2 with n cells per axis."""
        return Box((-half_width,) * 2, (2 * half_width,) * 2, (n,) * 2)


@dataclass(frozen=True)
class GridField:
    """Scalar samples at the cell centers of a :class:`Box`.

    ``tag`` records the semantics: ``indicator`` (values in {0,1}),
    ``phase`` (values in [0,1]) or ``level-set`` (arbitrary reals).
    ``outside`` is the constant extension value beyond the box.
    """

    box: Box
    values: np.ndarray
    tag: str = "level-set"
    outside: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.box.resolution:
            raise FieldDomainError(
                f"values shape {vals.shape} != resolution {self.box.resolution}"
            )
        if self.tag not in TAGS:
            raise FieldDomainError(f"unknown tag {self.tag!r}; expected one of {TAGS}")
        if self.tag == "indicator" and not np.all((vals == 0.0) | (vals == 1.0)):
            raise FieldDomainError("indicator fields must take values in {0, 1}")
        if self.tag == "phase" and (vals.min() < 0.0 or vals.max() > 1.0):
            raise FieldDomainError("phase fields must take values in [0, 1]")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "outside", float(self.outside))

    @property
    def spacing(self) -> np.ndarray:
        return self.box.spacing

    def with_values(self, values) -> "GridField":
        return replace(self, values=np.asarray(values, dtype=float))


def check_constant_ring(u: GridField, error: type[Exception]) -> None:
    """Raise ``error`` unless the boundary cells sit at the extension value.

    The tolerance is 1e-9 of the field's value range.
    """
    vals = u.values
    scale = max(float(np.ptp(vals)), 1e-30)
    ring = np.concatenate((vals[0], vals[-1], vals[:, 0], vals[:, -1]))
    gap = float(np.max(np.abs(ring - u.outside)))
    if gap > 1e-9 * scale:
        raise error(
            "the field must match its constant extension on the window boundary "
            f"(max boundary gap {gap:.3g})"
        )


def shift_taps(flat: np.ndarray, taps: np.ndarray, stride: int) -> np.ndarray:
    """Shift a flat array along one ``stride``-element axis by tap rows.

    ``taps`` holds rows of 4 node weights.  Row f of the result holds at
    element p the value at node p + stride plus that row's sub-node shift:
    a row whose only nonzero tap is node 1 = 1.0 copies it; any other row
    adds its nonzero taps ``taps[f, i] * flat[p + i * stride]`` in node
    order onto 0, the arithmetic of a Python ``sum`` over the taps.  The
    last 3 * stride elements of each row lack a full stencil and are set to
    0.  One row at a time, so the operands stay in cache.
    """
    n = flat.size - 3 * stride
    out = np.empty((len(taps), flat.size))
    out[:, n:] = 0.0
    node = [flat[i * stride:i * stride + n] for i in range(4)]
    term = np.empty(n)
    for row, acc in zip(taps, out[:, :n]):
        nonzero = [i for i in range(4) if row[i]]
        if nonzero == [1] and row[1] == 1.0:
            acc[...] = node[1]
            continue
        np.multiply(row[nonzero[0]], node[nonzero[0]], out=acc)
        acc += 0.0
        for i in nonzero[1:]:
            np.multiply(row[i], node[i], out=term)
            acc += term
    return out


# --------------------------------------------------------------------------
# shapes


class BoundarySample(NamedTuple):
    points: np.ndarray   # (n, d)
    normals: np.ndarray  # (n, d) inner unit normals (direction of grad phi)
    weights: np.ndarray  # (n,) surface measure weights


class Shape:
    """Base class: a planar set given as {phi > 0} with phi positive inside."""

    def phi(self, x) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x) -> np.ndarray:
        return np.asarray(self.phi(x)) > 0.0

    def indicator(self, x) -> np.ndarray:
        return self.contains(x).astype(float)

    def grad_phi(self, x) -> np.ndarray:
        raise FieldDomainError(f"{type(self).__name__} has no level gradient")

    def hess_phi(self, x) -> np.ndarray:
        raise FieldDomainError(f"{type(self).__name__} has no level Hessian")

    def boundary_sample(self, n: int) -> BoundarySample:
        raise FieldDomainError(f"{type(self).__name__} has no boundary sampler")


@dataclass(frozen=True)
class Ball(Shape):
    center: tuple
    radius: float

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if len(c) != 2:
            raise FieldDomainError("ball center must be planar (d = 2)")
        # phi squares coordinate differences, which stay far below overflow
        # for points near a ball within this bound
        if not all(abs(v) <= 1e150 for v in c + (self.radius,)):  # NaN fails too
            raise FieldDomainError(
                "ball center and radius must be finite and at most 1e150 in size")
        if self.radius <= 0:
            raise FieldDomainError("ball radius must be positive")

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum((x - np.asarray(self.center)) ** 2, axis=-1))
        return self.radius - r


    def grad_phi(self, x):
        x = np.asarray(x, dtype=float)
        u = x - np.asarray(self.center)
        r = np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
        return -u / np.where(r == 0.0, 1.0, r)

    def hess_phi(self, x):
        x = np.asarray(x, dtype=float)
        u = x - np.asarray(self.center)
        r = np.sqrt(np.sum(u * u, axis=-1))
        uhat = u / r[..., None]
        eye = np.eye(2)
        return -(eye - uhat[..., :, None] * uhat[..., None, :]) / r[..., None, None]

    def boundary_sample(self, n: int) -> BoundarySample:
        theta = 2 * math.pi * (np.arange(n) + 0.5) / n
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        pts = np.asarray(self.center) + self.radius * u
        w = np.full(n, 2 * math.pi * self.radius / n)
        return BoundarySample(pts, -u, w)


@dataclass(frozen=True)
class Halfspace(Shape):
    """The open side {x : x . normal > offset} (normal is normalized)."""

    normal: tuple
    offset: float = 0.0

    def __post_init__(self):
        nv = np.atleast_1d(np.asarray(self.normal, dtype=float))
        if len(nv) != 2:
            raise FieldDomainError("halfspace normal must be planar (d = 2)")
        # within this range the squared norm neither under- nor overflows
        if not 1e-150 < float(np.max(np.abs(nv))) < 1e150:  # NaN fails too
            raise FieldDomainError("halfspace normal must be finite, nonzero and "
                                   "within 1e±150 at its largest component")
        norm = float(np.linalg.norm(nv))
        object.__setattr__(self, "normal", tuple(nv / norm))
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def phi(self, x):
        # summed coordinate by coordinate, so a point rounds the same alone
        # and inside a batch (``x @ normal`` orders its fma differently in
        # the 1-D dot and the batched product)
        x = np.asarray(x, dtype=float)
        return x[..., 0] * self.normal[0] + x[..., 1] * self.normal[1] - self.offset

    def grad_phi(self, x):
        x = np.asarray(x, dtype=float)
        n = np.asarray(self.normal)
        return np.broadcast_to(n, x.shape).copy()

    def hess_phi(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2))


@dataclass(frozen=True)
class AxisBox(Shape):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not len(lo) == len(hi) == 2:
            raise FieldDomainError("box corners must be planar (d = 2)")
        if not all(a < b for a, b in zip(lo, hi)):
            raise FieldDomainError("need lo < hi componentwise")

    def phi(self, x):
        # the inner margin: positive exactly on the open box
        x = np.asarray(x, dtype=float)
        return np.minimum(x - np.asarray(self.lo), np.asarray(self.hi) - x).min(axis=-1)


class LevelShape(Shape):
    """Set {phi > 0} of a user-supplied level function."""

    def __init__(self, phi_fn: Callable[[np.ndarray], np.ndarray]):
        self._phi = phi_fn

    def phi(self, x):
        return self._phi(np.asarray(x, dtype=float))


# --------------------------------------------------------------------------
# grid <-> shape operations


def rasterize(shape: Shape, box: Box) -> GridField:
    """Indicator of a shape on a box grid, by membership of the cell centers."""
    return GridField(box, shape.indicator(box.centers()), tag="indicator")


def superlevel(field: GridField, c: float) -> GridField:
    """Indicator of the cells with value >= c (non-strict), outside fill too."""
    vals = (field.values >= c).astype(float)
    return GridField(field.box, vals, tag="indicator",
                     outside=float(field.outside >= c))


# --------------------------------------------------------------------------
# persistence


def save_field(field: GridField, path) -> None:
    """Plain text: header lines then one %.17g value per cell, row-major."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d 2\n")
        fh.write("origin " + " ".join("%.17g" % v for v in field.box.origin) + "\n")
        fh.write("size " + " ".join("%.17g" % v for v in field.box.size) + "\n")
        fh.write("resolution " + " ".join(str(v) for v in field.box.resolution) + "\n")
        fh.write(f"tag {field.tag}\n")
        fh.write("outside %.17g\n" % field.outside)
        for v in field.values.ravel(order="C"):
            fh.write("%.17g\n" % v)


def load_field(path) -> GridField:
    with open(path, "r", encoding="utf-8") as fh:
        header = {}
        for _ in range(6):
            key, _, rest = fh.readline().strip().partition(" ")
            header[key] = rest
        d = int(header["d"])
        origin = tuple(float(v) for v in header["origin"].split())
        size = tuple(float(v) for v in header["size"].split())
        res = tuple(int(v) for v in header["resolution"].split())
        if len(origin) != d or len(size) != d or len(res) != d:
            raise FieldDomainError("inconsistent grid file header")
        vals = np.loadtxt(fh).reshape(res)
    box = Box(origin, size, res)
    return GridField(box, vals, tag=header["tag"], outside=float(header["outside"]))
