"""Benchmark for nlgeom: time to a verified result per experiment config.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload energy-lattice --seed 0 --seconds 25 --trace 0

One client runs one ``nlgeom run`` process at a time with ``--workers 1``
(a closed loop), cycling through the workload's configs until the measured
time is used up, and checks every run's ``report.csv`` against the stored
reference.  ``--trace 1`` instead runs the workload once untraced and every
benchmark config once in-process under the span tracer (tracer.py), and
reports per-layer self times and work counts.  The last line of standard
output is one JSON object with the result; the lines before it are a
readable report.  Run artifacts go to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# report.csv columns: key, measured, reference, abs_gap, rel_gap.  Value
# columns are judged against the config's magnitude, rel_gap as is.
VALUE_COLUMNS = (1, 2, 3)
REL_COLUMN = 4
# Submodularity slack can be exactly 0 and is a small difference of four
# perimeters, so each row is judged against that pair's perimeter scale.
ROW_SCALE = {"submodularity": ("submodularity.csv", "scale")}
FLOW_EPS = ("0.2", "0.1", "0.05")


class Bench:
    """Paths and child environment of one benchmark run in a checkout."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.dir = run_dir
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def reset(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def write_config(self, name: str, text: str) -> Path:
        path = self.dir / "configs" / f"{name}.cfg"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def spawn(self, args: list, log: Path) -> tuple[float, float, int]:
        """Run a child to completion: (wall seconds, peak RSS in MB, exit code)."""
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.root,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_times(self) -> list:
        """Fresh ``nlgeom --list`` walls after one untimed warm-up."""
        log = self.dir / "setup.log"
        walls = []
        for i in range(SETUP_REPEATS + 1):
            wall, _, code = self.spawn(["-m", "nlgeom.cli", "--list"], log)
            if code != 0:
                raise RuntimeError(f"nlgeom --list exited with {code}; see {log}")
            if i:
                walls.append(wall)
        return walls

    def run_config(self, name: str, cfg: Path, out: Path) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        wall, rss, code = self.spawn(
            ["-m", "nlgeom.cli", "run", str(cfg), "--out", str(out), "--workers", "1"],
            self.dir / f"{name}.log",
        )
        return {"config": name, "wall_s": wall, "rss_mb": rss, "exit": code}


# --------------------------------------------------------------------------
# correctness gate


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_report(name: str, out: Path, seed: int, reference: dict) -> dict:
    """Compare a run's report.csv with the reference for this config.

    Returns ``ok``, the largest deviation (nan without a reference) and the
    sha256 of report.csv.  Value columns deviate by |new - ref| / scale,
    where scale is the config's largest |measured| or |reference| (or the
    row's own scale column where ROW_SCALE names one); rel_gap deviates by
    |new - ref|.  The key column must match exactly.
    """
    path = out / "report.csv"
    if not path.is_file():
        return {"ok": False, "max_dev": math.inf, "sha256": None, "note": "no report.csv"}
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    ref = reference["configs"].get(name)
    if ref is None or ref["seed"] not in (None, workloads.config_seed(name, seed)):
        return {"ok": True, "max_dev": math.nan, "sha256": sha,
                "note": f"no reference at seed {seed}: exit code only"}
    _, rows = read_csv(path)
    ref_rows = [[float(v) if i else v for i, v in enumerate(r)] for r in ref["rows"]]
    if len(rows) != len(ref_rows) or any(r[0] != q[0] for r, q in zip(rows, ref_rows)):
        return {"ok": False, "max_dev": math.inf, "sha256": sha, "note": "rows differ"}
    if name in ROW_SCALE:
        side, column = ROW_SCALE[name]
        header, side_rows = read_csv(out / side)
        scales = [float(r[header.index(column)]) for r in side_rows]
    else:
        scale = max(abs(q[c]) for q in ref_rows for c in (1, 2))
        scales = [scale] * len(ref_rows)
    dev = 0.0
    for row, ref_row, scale in zip(rows, ref_rows, scales):
        for c in VALUE_COLUMNS:
            dev = max(dev, abs(float(row[c]) - ref_row[c]) / max(abs(scale), 1e-300))
        dev = max(dev, abs(float(row[REL_COLUMN]) - ref_row[REL_COLUMN]))
    return {"ok": dev <= reference["tolerance"], "max_dev": dev, "sha256": sha, "note": ""}


def judge(run: dict, out: Path, seed: int, reference: dict) -> dict:
    run.update(check_report(run["config"], out, seed, reference))
    run["ok"] = run["ok"] and run["exit"] == 0
    return run


# --------------------------------------------------------------------------
# untraced closed loop


def measure(bench: Bench, names, seed: int, seconds: float, reference: dict) -> dict:
    """Cycle through the configs until ``seconds`` are used up.

    The first pass always completes.  Later passes alternate direction, so a
    drift in host speed during the run falls evenly on the configs, and a
    config starts only if its median so far still fits in the time left.
    """
    paths = {n: bench.write_config(n, workloads.bench_config(n, seed)) for n in names}
    runs = []
    walls = {n: [] for n in names}
    t0 = time.perf_counter()
    order = list(names)
    passes = 0
    while True:
        for n in order:
            if passes and time.perf_counter() - t0 + statistics.median(walls[n]) > seconds:
                return {"runs": runs, "walls": walls, "passes": passes}
            out = bench.dir / "art" / n
            runs.append(judge(bench.run_config(n, paths[n], out), out, seed, reference))
            walls[n].append(runs[-1]["wall_s"])
        passes += 1
        order.reverse()


# --------------------------------------------------------------------------
# traced run


def self_times(spans: list) -> list:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics and, per config, the library share of cli.run."""
    spans = trace["spans"]
    own = self_times(spans)
    calls, self_s, incl_s, layer_s = {}, {}, {}, {}
    cells = steps = diverged = 0
    flow_time = {e: 0.0 for e in FLOW_EPS}
    flow_steps = {e: 0 for e in FLOW_EPS}
    run_s, lib_s = {}, {}
    for span, t_self in zip(spans, own):
        name, start, end, _, config, extra = span
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t_self
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        layer_s[layer] = layer_s.get(layer, 0.0) + t_self
        if name == "cli.run":
            run_s[config] = end - start
        elif layer != "cli":
            lib_s[config] = lib_s.get(config, 0.0) + t_self
        extra = extra or {}
        cells += extra.get("cells", 0)
        diverged += bool(extra.get("diverged"))
        if name == "flow.evolve":
            steps += extra["steps"]
            key = format(extra["eps"], "g") if extra["eps"] is not None else None
            if key in flow_time:
                flow_time[key] += end - start
                flow_steps[key] += extra["steps"]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m = {}
    for fn in ("energy.perimeter_k", "energy.submodularity_check", "fields.rasterize",
               "kernels.zgrid", "flow.evolve", "rate.rate_ddim", "curvature.hk_pv"):
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
    for fn in ("energy.perimeter_k", "energy.submodularity_check", "energy.coarea_check",
               "energy.limit_tv", "fields.rasterize", "kernels.zgrid",
               "anisotropy.build", "anisotropy.halfspace_cell_experiment",
               "flow.evolve", "flow.monitors", "rate.rate_ddim", "rate.slicing_check",
               "rate.regularity_criterion", "curvature.hk_pv", "curvature.h0",
               "kernels.validate", "cli.run", "cli.write_csv"):
        m[f"{fn}.self_s"] = (self_s.get(fn, 0.0), "s")
    m["energy.grid_cells"] = (cells, "count")
    m["energy.ns_per_cell"] = (ratio(layer_s.get("energy", 0.0), cells, 1e9), "ns")
    m["flow.steps"] = (steps, "count")
    for e in FLOW_EPS:
        m[f"flow.step_ms.eps-{e}"] = (ratio(flow_time[e], flow_steps[e], 1e3), "ms")
    m["curvature.hk_pv.ms_per_point"] = (
        ratio(incl_s.get("curvature.hk_pv", 0.0), calls.get("curvature.hk_pv", 0), 1e3), "ms")
    m["curvature.hk_pv.diverged"] = (diverged, "count")
    for layer in ("cli", "energy", "flow", "rate", "curvature", "kernels", "fields", "anisotropy"):
        m[f"layer.{layer}.self_s"] = (layer_s.get(layer, 0.0), "s")
    m["cli.import_s"] = (trace["import_s"], "s")
    coverage = {c: ratio(lib_s.get(c, 0.0), t) for c, t in run_s.items()}
    return m, {"run_s": run_s, "coverage": coverage, "layer_s": layer_s}


def same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a
    )


def traced_run(bench: Bench, names, seed: int, setup_s: float, reference: dict) -> dict:
    paths = {n: bench.write_config(n, workloads.bench_config(n, seed))
             for n in workloads.ALL_CONFIGS}
    runs = []
    for n in names:
        out = bench.dir / "art" / n
        runs.append(judge(bench.run_config(n, paths[n], out), out, seed, reference))
    spans_path = bench.dir / "spans.json"
    args = [str(HERE / "tracer.py"), str(spans_path)]
    for n in workloads.ALL_CONFIGS:
        args += [str(paths[n]), str(bench.dir / "art-traced" / n)]
    _, _, code = bench.spawn(args, bench.dir / "tracer.log")
    if code not in (0, 1) or not spans_path.is_file():
        raise RuntimeError(f"traced run exited with {code}; see {bench.dir / 'tracer.log'}")
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    if not Path(trace["module_file"]).resolve().is_relative_to(bench.root / "src"):
        raise RuntimeError(f"traced run imported nlgeom from {trace['module_file']}")
    metrics, detail = layer_metrics(trace)
    traced = []
    passed = {r["config"]: r["passed"] for r in trace["results"]}
    for n in workloads.ALL_CONFIGS:
        out = bench.dir / "art-traced" / n
        rec = {"config": n, "exit": 0 if passed.get(n) else 1, "traced": True}
        traced.append(judge(rec, out, seed, reference))
    identical = {}
    for r in runs:
        c = r["config"]
        identical[c] = same_tree(bench.dir / "art" / c, bench.dir / "art-traced" / c)
        if not identical[c]:
            r["ok"] = False
            r["note"] += " traced artifacts differ"
    overhead = sum(detail["run_s"][r["config"]] - (r["wall_s"] - setup_s) for r in runs)
    metrics["trace.overhead_s"] = (overhead, "s")
    return {"runs": runs + traced, "metrics": metrics, "identical": identical, **detail}


# --------------------------------------------------------------------------
# reporting


def provenance(seed: int, names) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "config_seeds": {n: workloads.config_seed(n, seed) for n in names},
        "config_sha256": {n: workloads.sha256_text(workloads.bench_config(n, seed))
                          for n in names},
    }


def print_runs(runs: list) -> None:
    for r in runs:
        tag = "traced " if r.get("traced") else ""
        wall = f" wall_s={r['wall_s']:.4f} rss_mb={r['rss_mb']:.1f}" if "wall_s" in r else ""
        print(f"{tag}run {r['config']}:{wall} exit={r['exit']} max_dev={r['max_dev']:.3g} "
              f"report_sha256={r['sha256']} {'ok' if r['ok'] else 'FAILED'} {r['note']}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "nlgeom" / "cli.py").is_file():
        print(f"perfbench: no nlgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS[args.workload]
    bench = Bench(ROOT, ROOT / ".perfbench_runs" / args.workload)
    bench.reset()
    reference = load_reference()
    prov = provenance(args.seed, workloads.ALL_CONFIGS if args.trace else names)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for n in names:
        if workloads.config_seed(n, args.seed) is None:
            print(f"config {n}: deterministic, seed not used")
    setup = bench.setup_times()
    setup_s = statistics.median(setup)
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))

    if args.trace:
        res = traced_run(bench, names, args.seed, setup_s, reference)
        runs = res["runs"]
        metrics = res["metrics"]
        for c, share in res["coverage"].items():
            print(f"config {c}: cli.run_s={res['run_s'][c]:.4f} library_share={share:.4f}")
        total = sum(res["layer_s"].values())
        for layer, t in sorted(res["layer_s"].items(), key=lambda kv: -kv[1]):
            print(f"layer {layer}: self_s={t:.4f} share={t / total:.4f}")
        for c, same in res["identical"].items():
            print(f"config {c}: traced artifacts {'identical' if same else 'DIFFER'}")
    else:
        res = measure(bench, names, args.seed, args.seconds, reference)
        runs = res["runs"]
        per_config = {n: statistics.median(w) for n, w in res["walls"].items()}
        metrics = {
            "wall_s": (sum(per_config.values()), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
        }
        print(f"passes: {res['passes']} (configs run: {len(runs)})")
        for n, w in res["walls"].items():
            print(f"metric wall_s.{n}: {per_config[n]:.4f} s (median of {len(w)})")
    print_runs(runs)
    failed = sum(not r["ok"] for r in runs)
    attempted = len(runs)
    for name, (value, unit) in metrics.items():
        print(f"metric {name}: {value} {unit}")
    print(f"metric failed_share: {failed / attempted} ({failed}/{attempted})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (bench.dir / "result.json").write_text(
        json.dumps({"provenance": prov, "runs": runs, **result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
