"""Statement coverage of ``src/nlgeom`` over the shipped configs, stdlib only.

    python3 bench/linecov.py [CONFIG ...]

Runs each config (default: every ``configs/*.cfg``) in this one process
through ``cli.run`` with one worker into a temporary directory, under a
``sys.settrace`` hook that records the lines run in this checkout's
``src/nlgeom``.  The hook is set before ``nlgeom`` is imported, so the
module-level statements count too.

The executable statements come from ``ast``: every statement except
docstrings and the ``try``, ``global`` and ``nonlocal`` lines, which have
no code of their own.  A simple statement has run when a line event fell
on any of its lines; a compound one (``if``, ``for``, ``def``, ...) when
one fell on its header, from its first decorator to the line before its
body.

Prints one line per config (result and wall), the physical line count of
``src/nlgeom`` (as ``wc -l`` counts it), the executed and missed statement
totals, how many of the missed statements are not ``raise`` statements,
and, for each function that holds such a statement, their line numbers.
Tracing all 11 configs takes about 15 s on a 2-core x86-64 host, so this
stays out of the test suite and the benchmark.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "nlgeom"
SKIP = (ast.Try, ast.Global, ast.Nonlocal) + (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ())
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(tree: ast.Module) -> list:
    """(scope, line, first, last, is_raise) of each executable statement.

    ``scope`` is the dotted name of the innermost enclosing function or
    class ("" at module level); a line event in ``first..last`` marks the
    statement as run.
    """
    out = []

    def visit(body, scope, has_docstring):
        for i, node in enumerate(body):
            if i == 0 and has_docstring and _is_docstring(node):
                continue
            inner = f"{scope}.{node.name}".lstrip(".") if isinstance(node, SCOPES) else scope
            if not isinstance(node, SKIP):
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                children = getattr(node, "body", None)
                last = max(first, children[0].lineno - 1) if children else node.end_lineno
                out.append((scope, node.lineno, first, last, isinstance(node, ast.Raise)))
            nested = isinstance(node, SCOPES)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner, nested and field == "body")
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner, False)

    visit(tree.body, "", True)
    return out


def trace_configs(configs) -> tuple[set, list]:
    """Lines hit in ``src/nlgeom`` while running the configs, and per-config results."""
    prefix = str(PKG) + "/"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PKG.parent))
    results = []
    sys.settrace(calls)
    try:
        from nlgeom import cli

        with tempfile.TemporaryDirectory() as tmp:
            for path in configs:
                t0 = time.perf_counter()
                report, _ = cli.run(path, Path(tmp) / Path(path).stem)
                results.append((Path(path).stem, report.passed, time.perf_counter() - t0))
    finally:
        sys.settrace(None)
    return hits, results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*",
                        default=sorted(str(p) for p in (ROOT / "configs").glob("*.cfg")))
    args = parser.parse_args(argv)
    hits, results = trace_configs(args.configs)
    for name, passed, wall in results:
        print(f"{name:<20} {'PASS' if passed else 'FAIL'} {wall:7.2f} s (traced)")
    physical = executed = missed = missed_plain = 0
    listing = []
    for path in sorted(PKG.glob("*.py")):
        text = path.read_text()
        physical += text.count("\n")
        lines = {line for name, line in hits if name == str(path)}
        by_scope = {}
        for scope, line, first, last, is_raise in statements(ast.parse(text)):
            if any(n in lines for n in range(first, last + 1)):
                executed += 1
                continue
            missed += 1
            if not is_raise:
                missed_plain += 1
                by_scope.setdefault(scope or "<module>", []).append(line)
        for scope, nums in sorted(by_scope.items(), key=lambda kv: kv[1][0]):
            listing.append(f"  {path.stem}.{scope}: {' '.join(map(str, nums))}")
    print(f"lines: {physical}  statements: {executed + missed}  executed: {executed}  "
          f"missed: {missed}  missed non-raise: {missed_plain}")
    print("never-run non-raise statements, by function:")
    print("\n".join(listing))


if __name__ == "__main__":
    main()
