"""Experiment runner: text configs in, CSV artifacts and a pass/fail summary out.

Each experiment body calls public library functions with arguments taken
verbatim from the config file and builds its rows, checks and CSV cells
from their return values in one pass (a ratio, a gap, a worst sample), so
any CSV cell can be recomputed in a REPL.  Configs use
nested key-value blocks (see :func:`parse_config`), and a run rejects any
key its experiment does not read, before any numerics; reruns with the same
config and seed produce byte-identical artifacts.  ``--workers`` threads
only the nonlocal eps sweep of flow-monitors, the one flow experiment;
every other sweep runs its eps in a plain loop in config order.  The
threads share the interpreter lock, and their results are reduced in
config order, so the worker count never changes the output.  On a 2-core
x86-64 host ``bench/workers.py`` (medians of 5 alternating fresh runs per
count) took flow-monitors from 10.9 to 8.6 s at two workers, for about
4 MB more peak RSS and 9% more CPU time; with the cores busy with other
work, the second thread can cost more than it saves.  Threads did not pay
off in the other sweeps: they made regularity 1.9 times as slow, and
raised halfspace-cell's peak RSS from 50 to 61 MB for 10% off its 0.9 s.
Each experiment body imports the library layers it calls, so a run loads
only those, and ``--list`` none beyond ``kernels`` and ``fields``.

Usage::

    nlgeom run experiment.cfg [--out DIR] [--workers N]
    nlgeom --list
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from . import DomainError, kernels
from .fields import AxisBox, Ball, Box, GridField, Halfspace, LevelShape, save_field

if TYPE_CHECKING:
    from . import rate


class ConfigError(ValueError):
    """Base for anything wrong with a config file."""


class ConfigParseError(ConfigError):
    """Syntax problem; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConfigValueError(ConfigError):
    """Well-formed config with an invalid or missing value."""


class UsageError(ValueError):
    """Command-line level mistake (unknown experiment, bad flag value)."""


class CliDomainError(ValueError):
    pass


# --------------------------------------------------------------------------
# config parsing: nested key-value blocks


_REQ = object()  # sentinel: no default, the key must be present


class _Entry(NamedTuple):
    line: int
    value: object  # list[str] for scalar lines, _Section for blocks


class _Section:
    """One brace-delimited block: ordered key -> entry with line numbers.

    Every getter records its key in ``read``, so :meth:`unread` can name
    the keys that no getter asked for.
    """

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line  # 0 for a block the config leaves out
        self._entries: dict[str, _Entry] = {}
        self.read: set[str] = set()

    def _add(self, key: str, entry: _Entry) -> None:
        if key in self._entries:
            first = self._entries[key].line
            raise ConfigParseError(
                entry.line, f"duplicate key {key!r} (first seen on line {first})"
            )
        self._entries[key] = entry

    def _where(self, key: str) -> str:
        if self.name == "<top>":
            return f"key {key!r}"
        return f"key {key!r} in block {self.name!r}"

    def block(self, key: str) -> "_Section":
        """The block ``key``, or an empty one at line 0 if the config has none."""
        self.read.add(key)
        ent = self._entries.get(key)
        if ent is None:
            return _Section(key, 0)
        if not isinstance(ent.value, _Section):
            raise ConfigValueError(
                f"line {ent.line}: {self._where(key)} should be a block"
            )
        return ent.value

    def _get(self, key: str, default, conv, n: int | None):
        """``key``'s ``n`` values (``None``: one or more) converted by ``conv``,
        bare for ``n == 1`` and as a tuple otherwise."""
        self.read.add(key)
        ent = self._entries.get(key)
        if ent is None:
            if default is _REQ:
                raise ConfigValueError(f"{self._where(key)} is required")
            return default
        where = f"line {ent.line}: {self._where(key)}"
        if isinstance(ent.value, _Section):
            raise ConfigValueError(f"{where} should be a value, not a block")
        if (len(ent.value) != n) if n else not ent.value:
            want = f"{n} value(s)" if n else "at least one value"
            got = len(ent.value) or "an empty list"
            raise ConfigValueError(f"{where} expects {want}, got {got}")
        try:
            out = tuple(conv(t) for t in ent.value)
        except ValueError:
            raise ConfigValueError(
                f"{where} expects {conv.__name__} values, got {' '.join(ent.value)!r}"
            ) from None
        return out[0] if n == 1 else out

    def str_(self, key: str, default=_REQ) -> str:
        return self._get(key, default, str, 1)

    def float_(self, key: str, default=_REQ, n: int | None = 1):
        return self._get(key, default, float, n)

    def int_(self, key: str, default=_REQ, n: int | None = 1):
        return self._get(key, default, int, n)

    def count(self, key: str, default=_REQ) -> int:
        """An integer of at least 1: a number of samples, levels, pairs..."""
        n = self.int_(key, default)
        if n < 1:
            raise ConfigValueError(
                f"line {self._entries[key].line}: {self._where(key)} "
                f"must be at least 1, got {n}"
            )
        return n

    def only(self, key: str, value: str) -> None:
        """Read ``key``, a word the config may give only as ``value``."""
        got = self.str_(key, value)
        if got != value:
            raise ConfigValueError(
                f"line {self._entries[key].line}: {self._where(key)} is {got!r}; "
                f"expected {value!r}"
            )

    def unread(self):
        """(line, key description) of each key no getter read, in file order,
        here and in the blocks that were read."""
        for key, ent in self._entries.items():
            if key not in self.read:
                yield ent.line, self._where(key)
            elif isinstance(ent.value, _Section):
                yield from ent.value.unread()


def parse_config(text: str) -> _Section:
    """Parse the block-structured config syntax.

    Grammar: ``key value...`` lines and ``key {`` ... ``}`` blocks, nested
    arbitrarily; ``#`` starts a comment; blank lines are skipped.  Keys are
    unique within their block.  Syntax errors report 1-based line numbers.
    A run rejects every key its experiment does not read (see :func:`run`)
    before it computes anything, so a misspelled or unsupported key fails
    at once instead of running on defaults.
    """
    root = _Section("<top>", 0)
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ConfigParseError(lineno, "unmatched '}'")
            stack.pop()
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if not name or len(name.split()) != 1:
                raise ConfigParseError(
                    lineno, "block opener must be a single key followed by '{'"
                )
            child = _Section(name, lineno)
            stack[-1]._add(name, _Entry(lineno, child))
            stack.append(child)
            continue
        if "{" in line or "}" in line:
            raise ConfigParseError(lineno, "braces must stand at the end of a line")
        tokens = line.split()
        stack[-1]._add(tokens[0], _Entry(lineno, tokens[1:]))
    if len(stack) > 1:
        raise ConfigParseError(stack[-1].line, f"block {stack[-1].name!r} never closed")
    return root


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description: experiment name, declared shared keys,
    blocks, and the thread count of the flow sweeps (set by :func:`run`)."""

    experiment: str
    eps: tuple
    seed: int
    output: str
    root: _Section
    workers: int = 1

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        root = parse_config(text)
        name = root.str_("experiment")
        if name not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise UsageError(f"unknown experiment {name!r}; known: {known}")
        spec = EXPERIMENTS[name]
        eps = root.float_("eps", None, n=None) if spec.eps else ()
        if eps is None:
            raise ConfigValueError(f"experiment {name!r} needs an 'eps' list")
        if not all(0.0 < e < math.inf for e in eps):  # NaN fails too
            raise ConfigValueError("eps values must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigValueError("eps list must be strictly decreasing")
        seed = root.int_("seed", 0) if spec.seed else 0
        if seed < 0:
            raise ConfigValueError("seed must be nonnegative")
        return cls(name, eps, seed, root.str_("output", "out"), root)

    def require_block(self, name: str) -> _Section:
        block = self.root.block(name)
        if not block.line:
            raise ConfigValueError(
                f"experiment {self.experiment!r} needs a {name!r} block"
            )
        return block


# --------------------------------------------------------------------------
# report rows, rate fitting, check lines


class ReportRow(NamedTuple):
    key: float  # eps, time, dimension, ... depending on the experiment
    measured: float
    reference: float
    abs_gap: float
    rel_gap: float


class RateFit(NamedTuple):
    slope: float
    band95: float  # half-width of the 95% confidence interval on the slope
    points: int


def _t_quantile_975(nu: int) -> float:
    """The 0.975 quantile of Student's t with ``nu`` >= 1 degrees of freedom.

    For integer ``nu`` the two-sided probability P(|T| <= t) has a closed
    form in theta = atan(t / sqrt(nu)) (Abramowitz & Stegun 26.7.3/26.7.4);
    bisection in theta inverts it at 0.95.  Agrees with scipy's t quantile
    to 1e-14 relative for nu <= 200.
    """

    def two_sided(theta: float) -> float:
        c2 = math.cos(theta) ** 2
        if nu % 2:
            term = acc = math.cos(theta)
            for k in range(1, (nu - 1) // 2):
                term *= c2 * (2 * k) / (2 * k + 1)
                acc += term
            return 2.0 / math.pi * (theta + (math.sin(theta) * acc if nu > 1 else 0.0))
        term = acc = 1.0
        for k in range(1, nu // 2):
            term *= c2 * (2 * k - 1) / (2 * k)
            acc += term
        return math.sin(theta) * acc

    lo, hi = 0.0, 0.5 * math.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if two_sided(mid) < 0.95:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(nu) * math.tan(mid)


def fit_rate(rows: Sequence[ReportRow]) -> RateFit | None:
    """Least-squares slope of log(abs_gap) against log(key) over report rows.

    Returns None (rate undefined) when any gap or key is nonpositive;
    fewer than three rows is a caller error.
    """
    if len(rows) < 3:
        raise CliDomainError("rate fitting needs at least 3 rows")
    if any(r.abs_gap <= 0.0 or r.key <= 0.0 for r in rows):
        return None
    x = np.log([float(r.key) for r in rows])
    y = np.log([float(r.abs_gap) for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    n = len(rows)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(max(float(np.sum(resid**2)), 0.0) / (n - 2) / sxx)
    band = _t_quantile_975(n - 2) * se
    return RateFit(float(slope), band, n)


class CheckLine(NamedTuple):
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentReport:
    """Rows, optional fitted rate, and the acceptance check lines."""

    experiment: str
    seed: int
    key_label: str
    rows: tuple
    rate: RateFit | None
    rate_note: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _gap_row(key, measured, reference, scale) -> ReportRow:
    """Row whose gap is |measured - reference|, relative to ``scale``."""
    gap = abs(measured - reference)
    return ReportRow(key, measured, reference, gap, gap / scale)


def _below(label: str, value: float, tol: float, what: str = "rel_gap") -> CheckLine:
    """Check line passing when ``value`` (named ``what``) is below ``tol``."""
    return CheckLine(label, value < tol, f"{what}={_g(value)} tolerance={_g(tol)}")


def _make_report(cfg: ExperimentConfig, spec: "_Spec", rows, checks) -> ExperimentReport:
    rate_fit, note = None, "not fitted"
    if spec.fit:
        if len(rows) < 3:
            note = "not fitted: fewer than 3 points"
        else:
            rate_fit = fit_rate(rows)
            note = "" if rate_fit else "undefined: nonpositive gap in the series"
    return ExperimentReport(cfg.experiment, cfg.seed, spec.key_label, tuple(rows),
                            rate_fit, note, tuple(checks))


# --------------------------------------------------------------------------
# artifacts


class CsvArtifact(NamedTuple):
    name: str
    header: tuple
    rows: tuple


class FieldArtifact(NamedTuple):
    name: str
    field: GridField


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(path, header: Sequence[str], rows) -> None:
    """UTF-8, comma-separated, header row, floats at 17 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parallel_map(fn: Callable, items, workers: int) -> list:
    """Map preserving input order; thread count never affects the values."""
    items = list(items)
    if workers > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _g(x: float) -> str:
    return format(float(x), ".4g")


# --------------------------------------------------------------------------
# config -> library objects


def _kernel_from(block: _Section, d_override: int | None = None):
    """The kernel block's kernel.  Planar experiments pass no ``d_override``:
    their block may give ``d`` only as 2.  effective-kernel takes the
    dimension from its ``dims`` list instead and reads no ``d``."""
    family = block.str_("family")
    d = d_override
    if d is None:
        block.only("d", "2")
        d = 2
    if family == "ball":
        return kernels.ball_indicator(d, block.float_("radius", 1.0))
    if family == "annulus":
        return kernels.annulus_indicator(d, block.float_("r0", 0.2), block.float_("r1", 1.0))
    if family == "fractional":
        return kernels.fractional(d, block.float_("sigma", 0.5), block.float_("radius", 1.0))
    raise ConfigValueError(
        f"unknown kernel family {family!r}; expected ball, annulus or fractional"
    )


def _shape_from(g: _Section):
    g.only("shape", "disk")
    return Ball(g.float_("center", (0.0, 0.0), n=2), g.float_("radius"))


def _window_from(g: _Section):
    wr = g.float_("window_radius", None)
    return None if wr is None else Ball((0.0, 0.0), wr)


def _box_from(g: _Section, halfwidth: float, resolution: int) -> Box:
    return Box.cube(
        g.float_("halfwidth", halfwidth), g.int_("resolution", resolution)
    )


def _potential_from(block: _Section) -> None:
    """Read the potential block: f(t) = t^2 is the one family."""
    block.only("family", "quadratic")


def _profile_from(block: _Section, eps_min: float) -> rate.Profile1D:
    from . import rate

    block.only("family", "parabola")
    interval = block.float_("interval", (-1.0, 1.0), n=2)
    if not all(map(math.isfinite, interval)):
        raise ConfigValueError(f"profile interval must be finite, got {interval}")
    span = interval[1] - interval[0]
    auto = max(1601, 1 + math.ceil(8.0 * span / eps_min))
    return rate.Profile1D.from_function(
        lambda x: np.clip(1.0 - x * x, 0.0, None), interval, block.count("samples", auto)
    )


def _bump_field(g: _Section) -> GridField:
    g.only("field", "bump")
    box = _box_from(g, halfwidth=1.1, resolution=64)
    r2 = np.sum(box.centers() ** 2, axis=-1)
    vals = np.clip(1.0 - r2, 0.0, None) ** 2
    return GridField(box, vals.reshape(box.resolution), "phase")


# --------------------------------------------------------------------------
# experiments: each body is a generator that reads its whole config, yields
# once with no numerics done, then yields (report rows, check lines, artifacts)


def _exp_perimeter_limit(cfg: ExperimentConfig):
    from . import energy

    kern = _kernel_from(cfg.require_block("kernel"))
    g = cfg.require_block("geometry")
    shape = _shape_from(g)
    window = _window_from(g)
    grid = _box_from(g, halfwidth=1.1, resolution=288)
    eps = cfg.eps
    yield
    limit = energy.limit_tv(shape, window, kern)
    if limit == 0.0:
        raise ConfigValueError(
            "no boundary sample of the disk lies in the window, so the limit is 0 "
            "and no relative gap exists; move the disk or widen window_radius")
    breakdowns = [energy.perimeter_k(shape, window, kernels.rescale(kern, e), grid)
                  for e in eps]
    rows = [_gap_row(e, bd.total / e, limit, abs(limit))
            for e, bd in zip(eps, breakdowns)]
    cross = breakdowns[-1].j2 / eps[-1]
    checks = [
        _below("limit gap at the smallest eps below tolerance",
               rows[-1].rel_gap, 0.05),
        CheckLine(
            "cross-term residue below 1% of the limit",
            cross <= 0.01 * limit,
            f"J2/eps={_g(cross)} limit={_g(limit)}",
        ),
    ]
    art = [
        CsvArtifact(
            "perimeter_limit.csv",
            ("eps", "J1", "J2", "total", "limit_value", "abs_gap", "rel_gap"),
            tuple((e, bd.j1 / e, bd.j2 / e, r.measured, limit, r.abs_gap, r.rel_gap)
                  for e, bd, r in zip(eps, breakdowns, rows)),
        )
    ]
    yield rows, checks, art


def _exp_sigma_derivatives(cfg: ExperimentConfig):
    """The surface tension the energy's stencil sums, against eps kappa.

    For each eps the worst |sigma_h / (eps kappa) - 1| over the directions
    is checked against the first-order bound c h / (eps r_eff); a stencil
    that loses its outermost ring of offsets fails it.  A kernel singular at
    the origin is refused: the stencil drops its mass inside the central
    cell, so its sigma_h falls short by more than the bound (see
    ``energy.lattice_sigma``).
    """
    from . import energy

    kern = _kernel_from(cfg.require_block("kernel"))
    # halfspace-cell's lattice
    grid = Box.cube(1.25, 384)
    # the check's bound 0.1 h/(eps r_eff) stays below 0.2 on a grid that
    # resolves the kernel; below a tenth of a cell it would pass the empty
    # stencil's sigma_h = 0
    kernels.require_resolved(kern, cfg.eps[-1], grid.spacing, energy.EnergyDomainError)
    if kern.singular:
        raise kernels.KernelDomainError(
            "sigma-derivatives needs a kernel bounded at the origin; the stencil "
            "drops a singular kernel's mass inside the central cell")
    n_dirs = cfg.root.count("directions", 8)
    yield
    kappa = kernels.hyperplane_second_moment(kern)
    r_eff = kern.effective_radius()
    h = float(np.max(grid.spacing))
    theta = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    rows, checks, csv_rows = [], [], []
    for e in cfg.eps:
        sig = energy.lattice_sigma(kernels.rescale(kern, e), grid, normals)
        errs = np.abs(sig / e - kappa) / kappa
        csv_rows.extend((e, t, s, e * kappa, r) for t, s, r in zip(theta, sig, errs))
        # the worst direction: its gap is the row's
        j = int(np.argmax(errs))
        rows.append(_gap_row(e, sig[j] / e, kappa, kappa))
        # c = 0.1 in the first-order bound c h / (eps r_eff): the ball's
        # error sits about 4x inside it
        checks.append(_below(f"lattice sigma within 0.1 h/(eps r_eff) of eps kappa "
                             f"at eps={_g(e)}", rows[-1].rel_gap,
                             0.1 * h / (e * r_eff), "max rel err"))
    art = [
        CsvArtifact(
            "sigma_derivatives.csv",
            ("eps", "direction_angle", "sigma_lattice", "sigma_continuum", "rel_err"),
            tuple(csv_rows),
        )
    ]
    yield rows, checks, art


#: exponent of the competitors' amplitude decay along halfspace-cell's eps
#: schedule; at 0 the amplitude stays fixed, so no competitor converges to
#: the halfspace in L^1
COMPETITOR_SHRINK = 1.0


def _competitor_shape(p_hat, t_hat, amp, waves, phase):
    """Halfspace boundary bent by a windowed sinusoid (flat for |x| >= 0.85)."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        s = x @ t_hat
        r = np.sqrt(np.sum(x * x, axis=-1))
        cutoff = np.clip((0.85 - r) / 0.1, 0.0, 1.0)
        bump = amp * np.sin(waves * math.pi * s + phase) * cutoff
        return x @ p_hat - bump

    return LevelShape(phi)


def _exp_halfspace_cell(cfg: ExperimentConfig):
    """Normalized interior energies of the halfspace and sampled competitors.

    The halfspace curve (omega_1 eps)^{-1} J1_eps(H; B), omega_1 = 2,
    approaches sigma(p).  Competitor families bend the boundary by sinusoids
    whose amplitude follows 0.12 u (eps/eps_max)^COMPETITOR_SHRINK with u
    uniform in [0.5, 1].  Families whose symmetric difference to the
    halfspace does not vanish (final |E dif H| above 0.005 pi and above 3/4
    of the first) are rejected: they do not converge in L^1, so the cell
    formula says nothing about them.
    """
    from . import anisotropy, draws, energy

    kern = _kernel_from(cfg.require_block("kernel"))
    g = cfg.root.block("geometry")
    # a zero or non-finite direction fails here, and so does one whose norm
    # would under- or overflow
    halfspace = Halfspace(g.float_("direction", (1.0, 0.0), n=2), 0.0)
    resolution = g.int_("resolution", 384)
    n_competitors = cfg.root.count("competitors", 4)
    yield
    eps = cfg.eps
    p_hat = np.array(halfspace.normal)
    # first: a kernel with no finite sigma is rejected before any perimeter
    sigma = anisotropy.Anisotropy(kern).value(p_hat)
    t_hat = np.array([-p_hat[1], p_hat[0]])
    window = Ball((0.0, 0.0), 1.0)
    r_eff = kern.effective_radius()
    grid = Box.cube(1.0 + max(e * r_eff for e in eps) + 0.05, resolution)

    def normalized_j1(shape, e):
        return energy.perimeter_k(shape, window, kernels.rescale(kern, e), grid).j1 / (2.0 * e)

    hs = [normalized_j1(halfspace, e) for e in eps]
    rows = [_gap_row(e, v, sigma, sigma) for e, v in zip(eps, hs)]
    csv_rows = [(e, "halfspace", v) for e, v in zip(eps, hs)]

    rng = draws.Generator(cfg.seed)
    cell_area = float(np.prod(grid.spacing))
    centers = grid.centers()
    in_window = window.contains(centers)
    hs_members = halfspace.contains(centers)
    floor = hs[-1] * (1.0 - 0.02)
    accepted, rejected, beaten = 0, [], False
    for _ in range(n_competitors):
        waves = int(rng.integers(1, 5))
        phase = float(rng.uniform(0, 2 * math.pi))
        amp0 = 0.12 * float(rng.uniform(0.5, 1.0))
        cid = f"sin{waves}-a{amp0:.3f}"
        shapes = [_competitor_shape(p_hat, t_hat, amp0 * (e / eps[0]) ** COMPETITOR_SHRINK,
                                    waves, phase) for e in eps]
        # |E dif H| within the window
        gaps = [float(np.count_nonzero((s.contains(centers) != hs_members) & in_window))
                * cell_area for s in shapes]
        # admissible if the symmetric difference either became negligible or
        # is clearly decaying along the eps schedule
        if gaps[-1] > 5e-3 * math.pi and gaps[-1] > 0.75 * gaps[0]:
            rejected.append(f"{cid} (symmetric difference to the halfspace does not "
                            f"vanish (final |E dif H| = {gaps[-1]:.4f}); "
                            "not an admissible family)")
            continue
        vals = [normalized_j1(s, e) for s, e in zip(shapes, eps)]
        csv_rows.extend((e, cid, v) for e, v in zip(eps, vals))
        accepted += 1
        beaten = beaten or min(vals) < floor
    checks = [
        _below("halfspace energy at the smallest eps matches sigma",
               rows[-1].rel_gap, 0.05),
        CheckLine(
            "no competitor beats the halfspace by more than 2%",
            not beaten,
            f"accepted={accepted}"
            + (f" rejected: {'; '.join(rejected)}" if rejected else ""),
        ),
    ]
    art = [
        CsvArtifact(
            "halfspace_cell.csv",
            ("eps", "competitor_id", "normalized_J1"),
            tuple(csv_rows),
        )
    ]
    yield rows, checks, art


def _exp_curvature_limit(cfg: ExperimentConfig):
    from . import curvature

    kern = _kernel_from(cfg.require_block("kernel"))
    shape = _shape_from(cfg.require_block("geometry"))
    samples = cfg.root.count("boundary_samples", 16)
    yield
    pts = shape.boundary_sample(samples).points
    # h0 gates the kernel's window before any hk_pv
    h0 = np.array([curvature.h0(shape, p, kern).value for p in pts])
    rows, sample_rows, sup_mean = [], [], []
    for e in cfg.eps:
        k_eps = kernels.rescale(kern, e)
        hk = np.empty(len(pts))
        for j, p in enumerate(pts):
            cv = curvature.hk_pv(shape, p, k_eps)
            hk[j] = cv.value / e
            sample_rows.append((e, j, p[0], p[1], hk[j], h0[j], abs(hk[j] - h0[j]),
                                cv.err / e, int(cv.diverged)))
        errs = np.abs(hk - h0)
        # the worst sample: its gap is the row's sup error
        j = int(np.argmax(errs))
        rows.append(_gap_row(e, hk[j], h0[j], abs(h0[j])))
        sup_mean.append((e, float(errs.max()), float(errs.mean())))
    sups = [sup for _, sup, _ in sup_mean]
    h0_scale = float(np.mean(np.abs(h0)))
    checks = [
        CheckLine(
            "sup error strictly decreasing across eps",
            all(b < a for a, b in zip(sups, sups[1:])),
            "sup_err=" + " ".join(_g(s) for s in sups),
        ),
        _below("final relative sup error below tolerance",
               sups[-1] / h0_scale, 0.05, "rel"),
    ]
    art = [
        CsvArtifact(
            "curvature_samples.csv",
            ("eps", "sample_index", "x", "y", "hk_over_eps", "h0", "abs_err",
             "hk_over_eps_err", "diverged"),
            tuple(sample_rows),
        ),
        CsvArtifact("curvature_report.csv", ("eps", "sup_err", "mean_err"),
                    tuple(sup_mean)),
    ]
    yield rows, checks, art


def _exp_coarea(cfg: ExperimentConfig):
    from . import energy

    kern = _kernel_from(cfg.require_block("kernel"))
    g = cfg.require_block("geometry")
    box = _box_from(g, halfwidth=1.0, resolution=64)
    g.only("field", "ramp")
    window = _window_from(g)
    levels = cfg.root.count("levels", 32)
    yield
    cc = box.centers()
    u = GridField(box, np.clip(cc[..., 0] + 0.5, 0.0, 1.0), tag="phase")
    lhs, rhs, _ = energy.coarea_check(u, window, kern, nlevels=levels)
    row = _gap_row(float(levels), rhs, lhs, max(lhs, 1e-300))
    checks = [
        _below("level-integrated perimeters match the total variation",
               row.rel_gap, 0.02)
    ]
    art = [
        CsvArtifact(
            "coarea.csv",
            ("levels", "tv_value", "level_integral", "abs_gap", "rel_gap"),
            ((levels, lhs, rhs, row.abs_gap, row.rel_gap),),
        )
    ]
    yield [row], checks, art


def _exp_submodularity(cfg: ExperimentConfig):
    from . import draws, energy

    kern = _kernel_from(cfg.require_block("kernel"))
    grid = _box_from(cfg.root.block("geometry"), halfwidth=1.0, resolution=96)
    pairs = cfg.root.count("pairs", 100)
    yield
    rng = draws.Generator(cfg.seed)

    rows, csv_rows = [], []
    failures = 0
    for i in range(pairs):
        lo1 = rng.uniform(-0.9, 0.4, 2)
        lo2 = rng.uniform(-0.9, 0.4, 2)
        r1 = AxisBox(tuple(lo1), tuple(lo1 + rng.uniform(0.2, 0.5, 2)))
        r2 = AxisBox(tuple(lo2), tuple(lo2 + rng.uniform(0.2, 0.5, 2)))
        slack, scale = energy.submodularity_check(r1, r2, kern, grid)
        floor = -1e-9 * max(scale, 1e-30)
        if slack < floor:
            failures += 1
        # the gap is the violation only: positive slack is no gap
        rows.append(
            ReportRow(float(i), slack, 0.0, max(-slack, 0.0),
                      max(-slack, 0.0) / max(scale, 1e-30))
        )
        csv_rows.append((i, slack, scale))
    checks = [
        CheckLine(
            "submodular slack nonnegative up to roundoff for every pair",
            failures == 0,
            f"failures={failures}/{pairs}",
        )
    ]
    art = [CsvArtifact("submodularity.csv", ("pair", "slack", "scale"), tuple(csv_rows))]
    yield rows, checks, art


def _exp_bbm_1d(cfg: ExperimentConfig):
    from . import rate

    eps = cfg.eps
    _potential_from(cfg.root.block("potential"))
    prof = _profile_from(cfg.root.block("profile"), eps[-1])
    yield
    limit = rate.e1d_limit(prof)
    f_0 = float(
        np.trapezoid(np.square(prof.derivative_values()), dx=prof.spacing)
    )
    # (c/2) int |u'|^2 with c = sup f'' = 2
    upper = prof.derivative_energy()
    rows, csv_rows = [], []
    lower_ok = upper_ok = True
    for e in eps:
        val, low = rate.e1d(prof, e), rate.e1d_lower_bound(prof, e)
        rows.append(_gap_row(e, val, limit, abs(limit)))
        csv_rows.append((e, f_0 - e * e * val, f_0, val, limit, low, upper))
        scale = float(np.trapezoid(np.square(prof.values), dx=prof.spacing)) / e**2
        lower_ok = lower_ok and val >= low - 1e-6 * scale
        upper_ok = upper_ok and val <= upper * (1.0 + 1e-12)
    checks = [
        _below("limit gap at the smallest eps below tolerance",
               rows[-1].rel_gap, 0.02),
        CheckLine("window lower bound holds at every eps", lower_ok, "alpha=2"),
        CheckLine("curvature upper bound holds at every eps", upper_ok,
                  f"upper={_g(upper)}"),
    ]
    art = [
        CsvArtifact(
            "bbm_1d.csv",
            ("eps", "F_eps", "F_0", "E_eps", "E_0", "lower_bound", "upper_bound"),
            tuple(csv_rows),
        )
    ]
    yield rows, checks, art


def _exp_bbm_slice(cfg: ExperimentConfig):
    from . import rate

    kern = _kernel_from(cfg.require_block("kernel"))
    _potential_from(cfg.root.block("potential"))
    u = _bump_field(cfg.root.block("geometry"))
    yield
    reps = [rate.slicing_check(u, kern, e) for e in cfg.eps]
    rows = [_gap_row(rep.eps, rep.direct, rep.assembled, max(abs(rep.direct), 1e-300))
            for rep in reps]
    checks = [
        _below("slice assembly matches the direct energy at every eps",
               max(r.rel_gap for r in rows), 0.01, "max rel_gap")
    ]
    art = [
        CsvArtifact(
            "slice_check.csv",
            ("eps", "direct", "assembled", "abs_gap", "rel_gap"),
            tuple(rows),
        )
    ]
    yield rows, checks, art


def _exp_effective_kernel(cfg: ExperimentConfig):
    from . import draws, rate

    block = cfg.require_block("kernel")
    dims = cfg.root.int_("dims", (2, 3), n=None)
    inputs = [_kernel_from(block, d_override=d) for d in dims]
    n_samples = cfg.root.count("samples", 1000)
    yield
    rng = draws.Generator(cfg.seed)
    rows, csv_rows, checks = [], [], []
    for d, G in zip(dims, inputs):
        Gt = rate.effective_kernel(G)
        beta = rate.EFFECTIVE_RADIUS_FACTOR[d]
        r1 = G.effective_radius()
        radii = rng.uniform(0.0, 0.99 * beta * r1, n_samples)
        min_val = float(np.min(Gt.profile_at(radii)))
        mass_in = kernels.absolute_moment(G, 0.0)
        mass_out = kernels.absolute_moment(Gt, 0.0)
        row = _gap_row(float(d), mass_out.value, mass_in.value, mass_in.value)
        bound = mass_out.err + mass_in.err  # what the two mass rules can miss
        rows.append(row)
        csv_rows.append((d, n_samples, min_val, mass_in.value, mass_out.value,
                         mass_out.err, row.rel_gap))
        checks.append(
            CheckLine(
                f"effective kernel positive on its guaranteed ball (d={d})",
                min_val > 0.0,
                f"min={_g(min_val)} over r<={_g(0.99 * beta * r1)}",
            )
        )
        checks.append(
            CheckLine(
                f"averaging preserves the kernel mass (d={d})",
                row.abs_gap <= bound,
                f"abs_gap={_g(row.abs_gap)} bound={_g(bound)}",
            )
        )
    art = [
        CsvArtifact(
            "effective_kernel.csv",
            ("d", "samples", "min_value", "mass_input", "mass_effective", "mass_err",
             "rel_mass_gap"),
            tuple(csv_rows),
        )
    ]
    yield rows, checks, art


def _flow_setup(cfg: ExperimentConfig):
    """(radius, kappa, evolve): ``flow.evolve`` on the config's datum,
    kernel and clock, so evolve() runs the local flow and evolve(eps=e)
    the nonlocal one at eps e."""
    from . import flow

    kern = _kernel_from(cfg.require_block("kernel"))
    g = cfg.require_block("geometry")
    box = _box_from(g, halfwidth=1.0, resolution=64)
    radius = g.float_("radius", 0.5)
    band = g.float_("band", 0.28)
    u0 = flow.shrinking_circle_datum(box, radius, band=band)
    f = cfg.root.block("flow")
    kappa = kernels.hyperplane_second_moment(kern)  # positive, which T divides by
    T = f.float_("T", None)
    if T is None:
        frac = f.float_("stop_fraction", 0.3)
        if not 0.0 < frac < 1.0:
            raise ConfigValueError("stop_fraction must lie in (0, 1)")
        T = radius**2 * (1.0 - frac**2) / (2.0 * kappa)
        r_end = frac * radius
    elif not 0.0 < T < radius**2 / (2.0 * kappa):
        raise ConfigValueError(
            f"T must lie in (0, {radius**2 / (2.0 * kappa):.4g}), before the circle's "
            "extinction time r^2 / (2 kappa)"
        )
    else:
        r_end = math.sqrt(max(radius**2 - 2.0 * kappa * T, 0.0))
    # the radius errors divide by the local radius, which the grid must resolve
    h = float(np.min(box.spacing))
    if r_end < h:
        raise ConfigValueError(
            f"the circle's local radius at T is {r_end:.3g}, below one grid cell "
            f"({h:.3g}); end the flow earlier"
        )
    n_snap = f.count("snapshots", 10)
    evolve = functools.partial(flow.evolve, u0, kern, T, dt=f.float_("dt", None),
                               n_snapshots=n_snap)
    return radius, kappa, evolve


def _exp_flow_monitors(cfg: ExperimentConfig):
    from . import flow

    radius, kappa, evolve = _flow_setup(cfg)
    eps = cfg.eps
    yield

    def one(e):
        # what the checks and artifacts read; the trajectory itself is dropped
        traj = evolve(eps=e)
        radii = np.array([flow.zero_level_radius(s) for s in traj.snapshots])
        return flow.monitors(traj), traj.final, radii

    loc_rep, loc_final, r_loc = one(None)
    t_arr = np.array([row[0] for row in loc_rep.rows])
    r_ref = np.sqrt(np.clip(radius**2 - 2.0 * kappa * t_arr, 0.0, None))
    local_err = float(np.max(np.abs(r_loc - r_ref) / r_ref))
    runs = _parallel_map(one, eps, cfg.workers)
    reps = [rep for rep, _, _ in runs]
    gaps = [float(np.max(np.abs(r_nl - r_loc))) for _, _, r_nl in runs]
    holders = [rep.holder_constant for rep in reps]
    mean_h = float(np.mean(holders))
    slack, band = 1.05, 0.2
    rows = [_gap_row(e, h, mean_h, mean_h) for e, h in zip(eps, holders)]
    spread = max(r.rel_gap for r in rows)
    checks = [
        _below("local scheme tracks the shrinking-circle solution",
               local_err, 0.02, "max rel err"),
        CheckLine(
            "radius gap to the local run strictly decreasing in eps",
            all(b < a for a, b in zip(gaps, gaps[1:])),
            "gaps=" + " ".join(_g(x) for x in gaps),
        ),
        CheckLine(
            "spatial Lipschitz constant within slack of its initial value",
            all(rep.lipschitz_within(slack) for rep in reps),
            f"slack={_g(slack)}",
        ),
        CheckLine(
            "time-Holder constant finite at every eps",
            all(math.isfinite(h) for h in holders),
            "holder=" + " ".join(_g(h) for h in holders),
        ),
        CheckLine(
            "time-Holder constant stable across the sweep",
            spread <= band or len(eps) == 1,
            f"max spread={_g(spread)} band={_g(band)}",
        ),
    ]
    traj_header = ("t", "zero_level_area", "max_lipschitz", "holder_stat")
    art = [
        CsvArtifact(
            "monitors.csv",
            ("eps", "lipschitz_ratio", "holder_constant"),
            tuple((e, max(rep.spatial_lipschitz) / rep.spatial_lipschitz[0],
                   rep.holder_constant) for e, rep in zip(eps, reps)),
        ),
        CsvArtifact("trajectory_local.csv", traj_header, loc_rep.rows),
        CsvArtifact("radius_compare.csv", ("eps", "sup_radius_gap"),
                    tuple(zip(eps, gaps))),
        FieldArtifact("final_local.field", loc_final),
    ]
    for e, (rep, final, _) in zip(eps, runs):
        art.append(CsvArtifact(f"trajectory_nonlocal_eps{e:g}.csv", traj_header, rep.rows))
        art.append(FieldArtifact(f"final_nonlocal_eps{e:g}.field", final))
    yield rows, checks, art


def _exp_regularity(cfg: ExperimentConfig):
    from . import rate

    kern = _kernel_from(cfg.require_block("kernel"))
    _potential_from(cfg.root.block("potential"))
    u = _bump_field(cfg.root.block("geometry"))
    n_angular = cfg.root.count("angular", 32)
    yield
    bound = rate.curvature_bound(u, kern)
    values = [rate.rate_ddim(u, kern, e, n_angular).e_eps for e in cfg.eps]
    rows = [_gap_row(e, v, bound, max(bound, 1e-300)) for e, v in zip(cfg.eps, values)]
    # growth under eps refinement flags a gradient kink
    growth = values[-1] / max(values[0], 1e-300)
    checks = [
        CheckLine(
            "rate energies stay below the curvature bound",
            max(values) <= bound * (1.0 + 1e-9),
            f"max={_g(max(values))} bound={_g(bound)}",
        ),
        CheckLine("no growth under eps refinement", growth <= 1.2,
                  f"growth_ratio={_g(growth)}"),
    ]
    art = [
        CsvArtifact(
            "regularity.csv",
            ("eps", "E_eps", "bound"),
            tuple((e, v, bound) for e, v in zip(cfg.eps, values)),
        )
    ]
    yield rows, checks, art


class _Spec(NamedTuple):
    body: Callable  # (cfg) -> generator, see the experiments above
    key_label: str = "eps"
    fit: bool = False  # fit a convergence rate to the rows' gaps
    eps: bool = False  # the config must give an 'eps' sweep
    # draws from the config's 'seed': numpy's default_rng(seed) stream
    # (PCG64), reproduced in nlgeom.draws
    seed: bool = False


EXPERIMENTS: dict[str, _Spec] = {
    "perimeter-limit": _Spec(_exp_perimeter_limit, fit=True, eps=True),
    "sigma-derivatives": _Spec(_exp_sigma_derivatives, eps=True),
    "halfspace-cell": _Spec(_exp_halfspace_cell, eps=True, seed=True),
    "curvature-limit": _Spec(_exp_curvature_limit, fit=True, eps=True),
    "coarea": _Spec(_exp_coarea, "levels"),
    "submodularity": _Spec(_exp_submodularity, "pair", seed=True),
    "bbm-1d": _Spec(_exp_bbm_1d, fit=True, eps=True),
    "bbm-slice": _Spec(_exp_bbm_slice, eps=True),
    "effective-kernel": _Spec(_exp_effective_kernel, "d", seed=True),
    "flow-monitors": _Spec(_exp_flow_monitors, eps=True),
    "regularity": _Spec(_exp_regularity, eps=True),
}


# --------------------------------------------------------------------------
# orchestration


def summary_text(report: ExperimentReport) -> str:
    lines = [
        f"experiment: {report.experiment}",
        f"seed: {report.seed}",
        f"rows: {len(report.rows)}",
    ]
    if report.rate is not None:
        fit = report.rate
        # a 95% band as wide as the slope leaves even its sign open
        mark = " uninformative" if fit.band95 >= abs(fit.slope) else ""
        lines.append(
            f"rate: slope={fit.slope:.6g} band95={fit.band95:.4g} "
            f"points={fit.points}{mark}"
        )
    else:
        lines.append(f"rate: {report.rate_note}")
    for c in report.checks:
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.label}: {c.detail}")
    done = sum(1 for c in report.checks if c.passed)
    lines.append(
        f"result: {'PASS' if report.passed else 'FAIL'} "
        f"({done}/{len(report.checks)} checks)"
    )
    return "\n".join(lines) + "\n"


def run(config_path, out_dir=None, workers: int = 1):
    """Execute one experiment config and write its artifacts.

    Returns (report, output directory).  The caller owns exit-code policy;
    :func:`main` maps a failed check to status 1 and config problems to 2,
    including the library domain errors that a config value leads to and a
    config or output path that cannot be read or made.  A key that the
    experiment does not read is a config error too, raised after the
    experiment has read its config; then the output directory is made,
    and only then does the experiment compute.
    """
    if workers < 1:
        raise UsageError("worker count must be at least 1")
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise UsageError(f"cannot read config: {exc}") from None
    cfg = replace(ExperimentConfig.from_text(text), workers=workers)
    spec = EXPERIMENTS[cfg.experiment]
    body = spec.body(cfg)
    next(body)  # the whole config is read, nothing computed yet
    for line, where in cfg.root.unread():  # the first one is enough
        raise ConfigValueError(
            f"line {line}: {where} is not read by experiment {cfg.experiment!r}"
        )
    out = Path(out_dir) if out_dir is not None else Path(cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file already at that path
        raise UsageError(f"cannot make the output directory: {exc}") from None
    rows, checks, artifacts = next(body)
    report = _make_report(cfg, spec, rows, checks)
    write_csv(
        out / "report.csv",
        (report.key_label, "measured", "reference", "abs_gap", "rel_gap"),
        report.rows,
    )
    for item in artifacts:
        if isinstance(item, CsvArtifact):
            write_csv(out / item.name, item.header, item.rows)
        else:
            save_field(item.field, out / item.name)
    (out / "summary.txt").write_text(summary_text(report), encoding="utf-8")
    return report, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlgeom",
        description="Run nonlocal-geometry experiments from block-structured "
        "config files and emit CSV artifacts plus a pass/fail summary.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to the experiment config file")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--workers", type=int, default=1,
                       help="threads for the nonlocal eps sweep of flow-monitors "
                       "(default 1); on 2 idle cores 2 cut its wall time by about a "
                       "fifth for about 4 MB more memory; the other experiments run "
                       "their eps in one thread")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2
    try:
        report, out = run(args.config, args.out, args.workers)
    except (ConfigError, UsageError, DomainError) as exc:
        # a library domain error that a config value leads to is a config problem
        print(f"nlgeom: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(summary_text(report))
    print(f"artifacts: {out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
