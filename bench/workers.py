"""Wall time, CPU time and peak memory of ``nlgeom run`` at one and two workers.

    python3 bench/workers.py [--runs N] [CONFIG ...]

For each config (default: every ``configs/*.cfg`` whose eps list has more
than one value), runs N pairs of fresh ``python -m nlgeom.cli run CONFIG
--workers W`` processes with this checkout's ``src`` on ``PYTHONPATH``,
W = 1 and 2 in alternation, each into its own temporary directory.  The
child's CPU time (user + system) and peak RSS (``ru_maxrss``) come from
``os.wait4``.  Prints, per config and worker count, the median and
quartiles of the wall and CPU times and the median and range of the peak
RSS, and then whether every run, at both counts, wrote the same artifact
bytes.  Every flow config takes about 10 s a run on a 2-core x86-64 host,
so this stays out of the test suite and the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
WORKERS = (1, 2)


def eps_count(cfg: Path) -> int:
    """Values on the config's top-level ``eps`` line (0 without one)."""
    for line in cfg.read_text(encoding="utf-8").splitlines():
        words = line.split("#", 1)[0].split()
        if words and words[0] == "eps" and not line[0].isspace():
            return len(words) - 1
    return 0


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_once(cfg: Path, workers: int, out: Path) -> tuple[float, float, float, str]:
    """(wall s, CPU s, peak RSS MB, artifact digest) of one fresh run."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "nlgeom.cli", "run", str(cfg), "--out", str(out),
         "--workers", str(workers)],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{cfg.stem} at {workers} workers exited {code}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, tree_digest(out)


def spread(xs: list[float]) -> str:
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else xs * 3)
    return f"{med:6.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=4, help="runs per worker count")
    parser.add_argument("configs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    configs = args.configs or [c for c in sorted((ROOT / "configs").glob("*.cfg"))
                               if eps_count(c) > 1]
    print(f"{'config':<16} {'workers':>7}  {'wall s: median [q1, q3]':<24} "
          f"{'cpu s: median [q1, q3]':<24} peak RSS MB: median (min-max)")
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            runs = {w: [] for w in WORKERS}
            for i in range(args.runs):
                for w in WORKERS:
                    runs[w].append(run_once(cfg, w, Path(tmp) / cfg.stem / f"{w}-{i}"))
            for w in WORKERS:
                wall, cpu, rss, _ = zip(*runs[w])
                print(f"{cfg.stem:<16} {w:>7}  {spread(list(wall)):<24} "
                      f"{spread(list(cpu)):<24} {statistics.median(rss):.1f} "
                      f"({min(rss):.1f}-{max(rss):.1f})")
            digests = {r[3] for w in WORKERS for r in runs[w]}
            print(f"{'':<16} artifacts {'identical' if len(digests) == 1 else 'DIFFER'} "
                  f"across {args.runs * len(WORKERS)} runs")


if __name__ == "__main__":
    main()
