"""Write reference.json: report.csv rows of every benchmark config.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

Runs each config once at the default seed and stores its report.csv rows
as written (17 significant digits).  Rerun it only when a change of method
is meant to move the reported values, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

TOLERANCE = 1e-9
# halfspace-cell's report rows come from the halfspace alone; the seeded
# competitors reach only halfspace_cell.csv, so its reference holds at any seed.
SEED_FREE_REPORTS = {"halfspace-cell"}


def main() -> int:
    bench = run.Bench(run.ROOT, run.ROOT / ".perfbench_runs" / "reference")
    bench.reset()
    configs = {}
    for name in workloads.ALL_CONFIGS:
        cfg = bench.write_config(name, workloads.bench_config(name, workloads.DEFAULT_SEED))
        out = bench.dir / "art" / name
        result = bench.run_config(name, cfg, out)
        if result["exit"] != 0:
            print(f"{name}: exit {result['exit']}; reference not written", file=sys.stderr)
            return 1
        _, rows = run.read_csv(out / "report.csv")
        seed = None if name in SEED_FREE_REPORTS else workloads.config_seed(
            name, workloads.DEFAULT_SEED)
        configs[name] = {"seed": seed, "rows": rows}
        print(f"{name}: {len(rows)} rows, {result['wall_s']:.2f} s")
    run.REFERENCE.write_text(
        json.dumps({"tolerance": TOLERANCE, "configs": configs}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
