"""Start-up cost of ``nlgeom`` and the modules each shipped config loads.

    python3 bench/startup.py [--repeats N] [CONFIG ...]

Every measurement runs in a fresh interpreter with this checkout's ``src``
on ``PYTHONPATH``.  Prints four things:

- whether each start compiles nlgeom from source: the children's
  ``sys.flags.dont_write_bytecode`` (set by ``PYTHONDONTWRITEBYTECODE``)
  and whether ``src/nlgeom/__pycache__`` exists, read before anything runs;
- the median and quartiles of N walls of ``python -m nlgeom.cli --list``,
  after one untimed warm-up;
- the ``-X importtime`` total of ``import nlgeom.cli`` (the cumulative
  microseconds of its top-level ``nlgeom`` lines), median of N;
- for each config (default: every ``configs/*.cfg``), the ``nlgeom``
  modules and the scipy subpackages its run leaves in ``sys.modules``.
  The run goes through ``cli.run`` with one worker into a temporary
  directory, so running every shipped config takes about as long as the
  configs themselves.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
PROBE = """
import sys
from nlgeom import cli
cli.run(sys.argv[1], sys.argv[2])
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("nlgeom."))))
print(" ".join(sorted({m.split(".")[1] for m in sys.modules
                       if m.startswith("scipy.") and not m.split(".")[1].startswith("_")})))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, check=True)


def bytecode_note() -> str:
    """How a fresh start gets nlgeom's bytecode."""
    flag = python("-c", "import sys; print(sys.flags.dont_write_bytecode)").stdout
    no_write = bool(int(flag))
    cached = (ROOT / "src" / "nlgeom" / "__pycache__").is_dir()
    if cached:
        how = "loaded from src/nlgeom/__pycache__ where it is current"
    elif no_write:
        how = "compiled from source on every start"
    else:
        how = "compiled from source once, then cached in src/nlgeom/__pycache__"
    return (f"nlgeom bytecode: {how} (dont_write_bytecode={no_write}, "
            f"__pycache__ {'present' if cached else 'absent'})")


def list_walls(repeats: int) -> list[float]:
    python("-m", "nlgeom.cli", "--list")
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        python("-m", "nlgeom.cli", "--list")
        walls.append(time.perf_counter() - t0)
    return walls


def import_us() -> int:
    total = 0
    for line in python("-X", "importtime", "-c", "import nlgeom.cli").stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip().startswith("nlgeom") \
                and not fields[2][1:].startswith(" "):
            total += int(fields[1])
    return total


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("configs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    print(bytecode_note())
    q1, med, q3 = np.percentile(list_walls(args.repeats), [25, 50, 75])
    print(f"nlgeom --list wall: median {med:.3f} s  q1 {q1:.3f}  q3 {q3:.3f}  "
          f"({args.repeats} runs)")
    us = np.median([import_us() for _ in range(args.repeats)])
    print(f"import nlgeom.cli (-X importtime): {us / 1e6:.3f} s")
    configs = args.configs or sorted((ROOT / "configs").glob("*.cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            out = python("-c", PROBE, str(cfg), str(Path(tmp) / cfg.stem)).stdout
            layers, scipy = out.splitlines()[-2:]
            print(f"{cfg.stem:<18} nlgeom: {layers:<45} scipy: {scipy.strip() or '-'}")


if __name__ == "__main__":
    main()
