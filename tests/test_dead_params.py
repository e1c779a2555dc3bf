"""Every parameter of every function in the package is read by its body.

A parameter the body never reads is an option that changes nothing.  The
check walks the source with ``ast``; functions whose body only raises (the
abstract ``Shape`` methods) are exempt, and so is the ``workers`` argument
that every experiment body takes whether or not it sweeps in parallel.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "nlgeom"


def _params(fn) -> list:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return [n for n in names if n not in ("self", "cls")]


def _only_raises(fn) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def dead_params(source: str, filename: str = "<source>") -> list:
    """``file:line function(parameter)`` for each parameter never read."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _only_raises(fn):
            continue
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in _params(fn):
            if name == "workers" and fn.name.startswith("_exp_"):
                continue
            if name not in read:
                out.append(f"{filename}:{fn.lineno} {fn.name}({name})")
    return out


def test_checker_flags_an_unread_parameter():
    src = (
        "def f(a, b, *args, c=1, **kw):\n    return a + c\n"
        "def g(x):\n    'doc'\n    raise NotImplementedError\n"
        "def h(y):\n    def inner():\n        return y\n    return inner\n"
    )
    assert dead_params(src) == [
        "<source>:1 f(b)", "<source>:1 f(args)", "<source>:1 f(kw)"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_parameters(path):
    assert dead_params(path.read_text(encoding="utf-8"), path.name) == []
