"""Quick tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SMALL_COAREA = """\
experiment coarea
levels 16
kernel {
  family ball
  radius 0.25
}
geometry {
  field ramp
  halfwidth 1.0
  resolution 48
}
"""


def test_traced_and_untraced_artifacts_are_identical(tmp_path):
    bench = run.Bench(run.ROOT, tmp_path)
    cfg = tmp_path / "coarea.cfg"
    cfg.write_text(SMALL_COAREA, encoding="utf-8")
    plain = bench.run_config("coarea", cfg, tmp_path / "plain")
    assert plain["exit"] == 0
    spans = tmp_path / "spans.json"
    _, _, code = bench.spawn(
        [str(run.HERE / "tracer.py"), str(spans), str(cfg), str(tmp_path / "traced")],
        tmp_path / "tracer.log",
    )
    assert code == 0
    assert run.same_tree(tmp_path / "plain", tmp_path / "traced")
    names = {s[0] for s in json.loads(spans.read_text())["spans"]}
    # fields.superlevel is reached through energy's own imported name
    assert {"cli.run", "energy.coarea_check", "fields.superlevel", "cli.write_csv"} <= names


def test_default_seed_reproduces_shipped_configs():
    for name in workloads.ALL_CONFIGS:
        shipped = (run.ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
        assert workloads.render(name) == shipped


def test_config_generation_is_deterministic_per_seed():
    for name in workloads.ALL_CONFIGS:
        assert workloads.bench_config(name, 3) == workloads.bench_config(name, 3)
        seeded = workloads.config_seed(name, 0) is not None
        assert (workloads.bench_config(name, 3) != workloads.bench_config(name, 4)) == seeded


def test_bench_sizes_change_only_their_keys():
    for name in workloads.ALL_CONFIGS:
        full = workloads.render(name, 5).splitlines()
        small = workloads.bench_config(name, 5).splitlines()
        changed = {a.split()[0] for a, b in zip(full, small) if a != b}
        assert len(full) == len(small)
        assert changed == set(workloads.BENCH_SIZES.get(name, {}))


def test_corrupted_reference_counts_as_failed(tmp_path):
    reference = run.load_reference()
    bad = json.loads(json.dumps(reference))
    row = bad["configs"]["coarea"]["rows"][0]
    row[1] = repr(float(row[1]) * (1.0 + 1e-6))
    result = run.measure(run.Bench(run.ROOT, tmp_path), ["coarea"], 0, 0.0, bad)
    failed = sum(not r["ok"] for r in result["runs"])
    assert failed / len(result["runs"]) > 0
    # the same artifacts pass against the stored reference
    assert run.check_report("coarea", tmp_path / "art" / "coarea", 0, reference)["ok"]


def test_trace_reports_every_per_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = [
        ["cli.run", 0.0, 2.0, -1, "c", None],
        ["energy.perimeter_k", 0.5, 1.5, 0, "c", {"cells": 100}],
        ["fields.rasterize", 0.5, 0.7, 1, "c", None],
        ["flow.evolve", 1.5, 1.9, 0, "c", {"eps": 0.1, "steps": 4}],
    ]
    metrics, detail = run.layer_metrics({"spans": spans, "import_s": 1.0})
    names = set(metrics) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert metrics["energy.perimeter_k.self_s"][0] == pytest.approx(0.8)
    assert metrics["flow.step_ms.eps-0.1"][0] == pytest.approx(100.0)
    assert detail["coverage"]["c"] == pytest.approx(1.4 / 2.0)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
