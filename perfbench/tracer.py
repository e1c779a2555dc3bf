"""Traced in-process run of nlgeom configs.

Usage::

    python3 perfbench/tracer.py SPANS.json CONFIG OUT_DIR [CONFIG OUT_DIR ...]

Imports ``nlgeom.cli`` (timing the import), wraps every public function of
the library modules, runs ``cli.run`` on each config with one worker and
writes the recorded spans to SPANS.json.  Each span is a list
``[name, start, end, parent, config, extra]``: ``parent`` is the index of
the enclosing span or -1, ``extra`` holds work counts read from the call's
arguments and result.  Spans stay in memory until the end of the run.
The library code is not modified: wrappers replace the module attributes
through which callers look the functions up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from pathlib import Path

LAYERS = ("cli", "energy", "flow", "rate", "curvature", "kernels", "fields", "anisotropy")


def _cells(grid) -> int:
    return math.prod(grid.resolution)


# Work counts recorded at the layer boundary, from the bound arguments (a)
# and the result (r) of a call.  Energy counts grid cells swept by one
# shifted-overlap sum; submodularity sweeps four sets, coarea the field plus
# one superlevel set per level.
PROBES = {
    "energy.perimeter_k": lambda a, r: {"cells": _cells(a["grid"])},
    "energy.submodularity_check": lambda a, r: {"cells": 4 * _cells(a["grid"])},
    "energy.coarea_check": lambda a, r: {
        "cells": (a["nlevels"] + 1) * a["u"].values.size
    },
    "flow.evolve": lambda a, r: {"eps": a["eps"], "steps": len(r.monitor) - 1},
    "curvature.hk_pv": lambda a, r: {"diverged": bool(r.diverged)},
}


class Tracer:
    """Span recorder; ``config`` names the config whose spans are recorded."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.config = None

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.config, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = probe(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        modules = [importlib.import_module(f"nlgeom.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        # patch every lookup site: ``from .fields import rasterize`` makes
        # energy.rasterize its own reference to the function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or len(argv) % 2 == 0:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path = Path(argv[0])
    t0 = time.perf_counter()
    cli = importlib.import_module("nlgeom.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    results = []
    for cfg, out in zip(argv[1::2], argv[2::2]):
        tracer.config = Path(cfg).stem
        report, _ = cli.run(cfg, out, workers=1)
        results.append({"config": tracer.config, "passed": bool(report.passed)})
    tracer.config = None
    spans_path.write_text(
        json.dumps(
            {
                "import_s": import_s,
                "module_file": cli.__file__,
                "results": results,
                "spans": tracer.spans,
            }
        ),
        encoding="utf-8",
    )
    return 0 if all(r["passed"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
