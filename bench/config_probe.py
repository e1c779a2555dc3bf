"""Run each shipped config with one numeric line replaced by an edge value.

    python3 bench/config_probe.py [CONFIG ...]

For each config (default: every ``configs/*.cfg``) and each line whose
values are all numbers, writes a copy of the config in which every value
on that line reads 0, -1, nan, 1e-300 or 1e300 (so a ``center`` or
``direction`` line takes the value twice, and an eps list takes it at
every position), and runs ``python -m nlgeom.cli run`` on it in a fresh
interpreter with this checkout's ``src`` on ``PYTHONPATH``.  The children
run one at a time, each into its own temporary directory, each under a
wall-clock timeout of ``TIMEOUT_S`` (30 s, above the longest shipped run,
which is about 10 s on a 2-core x86-64 host) and an address-space limit
of ``MEMORY_BYTES`` (3 GB) set on the child only.

Each run is classified as a traceback, a timeout, warned (more than one
line on stderr, such as numpy warnings before the runner's error line),
exit 2 (the runner's one ``nlgeom: error:`` line), PASS (exit 0) or FAIL
(exit 1), the first that applies.  Prints the count of each outcome, then
every traceback with its last stderr line, every warned run with its
first, and every timeout.  A config value should never reach a traceback, a warning
or a timeout: a value outside its domain exits 2 with one line.  The 55
numeric lines of the shipped configs give 275 runs; they take about a
minute on a 2-core x86-64 host, so this stays out of the test suite.
"""

from __future__ import annotations

import argparse
import collections
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
VALUES = ("0", "-1", "nan", "1e-300", "1e300")
TIMEOUT_S = 30.0
MEMORY_BYTES = 3 * 2**30


def numeric_lines(text: str):
    """(index, key, value count) of each line whose values are all numbers."""
    for i, raw in enumerate(text.splitlines()):
        words = raw.split("#", 1)[0].split()
        if len(words) < 2 or words[-1] == "{":
            continue
        try:
            [float(w) for w in words[1:]]
        except ValueError:
            continue
        yield i, words[0], len(words) - 1


def edits(text: str):
    """(label, edited config text) for each numeric line and probe value."""
    lines = text.splitlines()
    for i, key, n in numeric_lines(text):
        indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
        for value in VALUES:
            edited = lines[:i] + [f"{indent}{key} {' '.join([value] * n)}"] + lines[i + 1:]
            yield f"line {i + 1}: {key} {value}", "\n".join(edited) + "\n"


def run_one(cfg: Path) -> tuple[str, str]:
    """(outcome, the stderr line that explains it) of one child run."""

    def limit():  # runs in the child, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))

    with tempfile.TemporaryDirectory() as out:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nlgeom.cli", "run", str(cfg), "--out", out],
                env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S,
                preexec_fn=limit)
        except subprocess.TimeoutExpired:
            return "timeout", f"still running at {TIMEOUT_S:g} s"
    err = proc.stderr.strip().splitlines()
    last = err[-1] if err else ""
    if any(line.startswith("Traceback") for line in err):
        return "traceback", last
    if len(err) > 1:
        return "warned", err[0]
    if proc.returncode == 2 and last.startswith("nlgeom: error:"):
        return "exit 2", last
    return {0: "PASS", 1: "FAIL"}.get(proc.returncode, "traceback"), last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    counts = collections.Counter()
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in args.configs or sorted((ROOT / "configs").glob("*.cfg")):
            for label, text in edits(cfg.read_text(encoding="utf-8")):
                path = Path(tmp) / cfg.name
                path.write_text(text, encoding="utf-8")
                outcome, line = run_one(path)
                counts[outcome] += 1
                if outcome in ("traceback", "warned", "timeout"):
                    bad.append(f"{outcome:<9} {cfg.stem} {label}: {line}")
    print(f"{sum(counts.values())} runs: " + ", ".join(
        f"{counts[k]} {k}"
        for k in ("exit 2", "PASS", "FAIL", "traceback", "warned", "timeout")))
    print("\n".join(bad))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
