"""Workload definitions and config generation for the nlgeom benchmark.

Each workload is a list of experiment configs that one client runs one
after another.  The config texts below are copies of the shipped
``configs/*.cfg`` files, so rendering a config at ``DEFAULT_SEED`` without
size overrides reproduces the shipped file byte for byte.  The benchmark
runs a smaller size of some configs (``BENCH_SIZES``) so that every config
repeats several times within one measured run; NOTES.md says why each size
was chosen.
"""

from __future__ import annotations

import hashlib
import re

DEFAULT_SEED = 0

# Seeded configs draw their random inputs from ``offset + seed``, so the
# default seed gives the shipped seeds (0 and 42).  Every other config is
# deterministic and ignores the seed.
SEED_OFFSET = {"halfspace-cell": 0, "submodularity": 42}

TEMPLATES = {
    "perimeter-limit": """\
# Disk perimeter sweep against its local limit (window = unit ball).
experiment perimeter-limit
eps 0.4 0.2 0.1 0.05
output out/perimeter-limit

kernel {
  family ball
  d 2
  radius 1.0
}

geometry {
  shape disk
  center 0 0
  radius 0.5
  window_radius 1.0
  halfwidth 1.1
  resolution 288
}
""",
    "halfspace-cell": """\
# Normalized halfspace energy in the unit window vs sampled competitors.
experiment halfspace-cell
eps 0.2 0.1 0.05
seed 0
competitors 4
output out/halfspace-cell

kernel {
  family ball
  d 2
}

geometry {
  direction 1 0
  resolution 384
}
""",
    "submodularity": """\
# Random rectangle pairs: perimeter submodularity slack stays nonnegative.
experiment submodularity
seed 42
pairs 100
output out/submodularity

kernel {
  family ball
  radius 0.25
}

geometry {
  halfwidth 1.0
  resolution 96
}
""",
    "coarea": """\
# Layer-cake identity for a linear ramp on [-1,1]^2.
experiment coarea
levels 32
output out/coarea

kernel {
  family ball
  radius 0.25
}

geometry {
  field ramp
  halfwidth 1.0
  resolution 64
}
""",
    "flow-monitors": """\
# A-priori flow estimates: Lipschitz ratio and time-Holder constant.
experiment flow-monitors
eps 0.2 0.1 0.05
output out/flow-monitors

kernel {
  family ball
  d 2
}

geometry {
  radius 0.5
  band 0.28
  halfwidth 1.0
  resolution 64
}

flow {
  stop_fraction 0.3
  snapshots 10
}
""",
    "regularity": """\
# Rate energies of a smooth bump against the curvature-capped bound.
experiment regularity
eps 0.1 0.05
angular 32
output out/regularity

kernel {
  family ball
  d 2
}

potential {
  family quadratic
}

geometry {
  field bump
}
""",
    "bbm-slice": """\
# Direct grid rate energy vs its line-slice assembly on a radial bump.
experiment bbm-slice
eps 0.1
output out/bbm-slice

kernel {
  family ball
  d 2
}

potential {
  family quadratic
}

geometry {
  halfwidth 1.1
  resolution 64
}
""",
    "curvature-limit": """\
# Disk curvature sweep: rescaled nonlocal curvature vs the local value.
experiment curvature-limit
eps 0.4 0.2 0.1 0.05
boundary_samples 16
output out/curvature-limit

kernel {
  family fractional
  d 2
  sigma 0.5
  radius 1.0
}

geometry {
  shape disk
  center 0 0
  radius 0.5
}
""",
}

# Smaller runs of the costliest configs.  Each keeps the structure that
# makes its layer expensive (stencil width, call pattern, per-step cost)
# and still passes every check of its experiment.
BENCH_SIZES = {
    "halfspace-cell": {"resolution": "256"},
    "submodularity": {"pairs": "8"},
    "flow-monitors": {"stop_fraction": "0.95"},
    "regularity": {"angular": "16"},
    "curvature-limit": {"boundary_samples": "8"},
}

WORKLOADS = {
    "energy-lattice": ("perimeter-limit", "halfspace-cell", "submodularity", "coarea"),
    "flow-sweep": ("flow-monitors",),
    "rate-curvature": ("regularity", "bbm-slice", "curvature-limit"),
}

ALL_CONFIGS = tuple(name for names in WORKLOADS.values() for name in names)


def _set_key(text: str, key: str, value: str) -> str:
    """Replace the value of the single ``key ...`` line in a config text."""
    pattern = re.compile(rf"^(\s*){re.escape(key)}\s.*$", re.MULTILINE)
    new, count = pattern.subn(lambda m: f"{m.group(1)}{key} {value}", text)
    if count != 1:
        raise ValueError(f"expected one {key!r} line, found {count}")
    return new


def config_seed(name: str, seed: int) -> int | None:
    """The experiment seed a config gets from the benchmark seed, or None."""
    offset = SEED_OFFSET.get(name)
    return None if offset is None else offset + seed


def render(name: str, seed: int = DEFAULT_SEED, sizes: dict | None = None) -> str:
    """Config text of ``name`` for a benchmark seed, with optional size keys."""
    text = TEMPLATES[name]
    cfg_seed = config_seed(name, seed)
    if cfg_seed is not None:
        text = _set_key(text, "seed", str(cfg_seed))
    for key, value in (sizes or {}).items():
        text = _set_key(text, key, value)
    return text


def bench_config(name: str, seed: int) -> str:
    """Config text the benchmark runs for ``name`` at ``seed``."""
    return render(name, seed, BENCH_SIZES.get(name))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
