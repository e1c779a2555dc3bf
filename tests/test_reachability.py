"""Every public function, class and method of the package is reached from the CLI.

Library code that only the tests call is code the experiments do not need.
The check is a name-based reachability pass over ``ast``.  It starts from
``cli.main``, the ``nlgeom`` console-script entry point, and from the
module-level statements of every module, ``cli`` included, then follows
every name and attribute that a reached function, class or method
mentions.  Each method is a node of its own,
reached by its name, and so is each alias assignment ``name = other`` in a
class body; a class brings along the rest of its body, bases, decorators
and dunder methods, which Python calls without naming them.  Matching by
bare name over-approximates what is reached, so every name it reports is
certainly called by no code that the CLI runs.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "nlgeom"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Public definitions that only the tests reach, kept on purpose.
ALLOWED = {
    # the continuum disk reference for hk_pv and perimeter_k
    # (test_pv_matches_disk_reference), due to reach the CLI as the
    # reference of curvature-limit and perimeter-limit
    "disk_reference",
    # the grid limit of the rate energies, due to become regularity's
    # reference value
    "rate_limit_ddim",
    # reads the .field artifacts that the CLI writes
    "load_field",
}


def _mentioned(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _alias(node) -> bool:
    """``name = other`` in a class body: a method under a second name."""
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Name)
            and not _dunder(node.targets[0].id))


def unreached(sources: dict, roots=("main",)) -> list:
    """``module.name`` of each public top-level def, and ``module.Class.name``
    of each public method, that no reached code mentions."""
    defs = {}
    todo = set(roots)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body
                           if isinstance(n, FUNCTIONS) and not _dunder(n.name)]
                for method in methods:
                    defs.setdefault(method.name, []).append(
                        (f"{module}.{node.name}.{method.name}", _mentioned(method)))
                aliases = [n for n in node.body if _alias(n)]
                for alias in aliases:
                    name = alias.targets[0].id
                    defs.setdefault(name, []).append(
                        (f"{module}.{node.name}.{name}", {alias.value.id}))
                own = [n for n in node.body if n not in methods and n not in aliases]
                own += node.bases + node.keywords + node.decorator_list
                defs.setdefault(node.name, []).append(
                    (f"{module}.{node.name}", set().union(*map(_mentioned, own))))
            elif isinstance(node, FUNCTIONS):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", _mentioned(node)))
            else:
                todo |= _mentioned(node)
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, mentioned in defs.get(name, []):
            todo |= mentioned - seen
    return sorted(
        label
        for name, nodes in defs.items()
        for label, _ in nodes
        if name not in seen and not name.startswith("_")
    )


def test_checker_follows_names_from_the_entry_module():
    sources = {
        "cli": (
            "from . import lib\n"
            "def main():\n    return run()\n"
            "def run():\n    return lib.used()\n"
            "def unused_command():\n    return lib.only_tests()\n"
        ),
        "lib": (
            "LIMIT = helper_const()\n"
            "def helper_const():\n    return 1\n"
            "def used():\n    return _inner()\n"
            "def _inner():\n    return Shape().area()\n"
            "class Shape:\n"
            "    def __init__(self):\n        self.r = radius()\n"
            "    def area(self):\n        return 0\n"
            "    def perimeter(self):\n        return tests_helper()\n"
            "    boundary = perimeter\n"
            "def radius():\n    return 1\n"
            "def tests_helper():\n    return 2\n"
            "def only_tests():\n    return used()\n"
            "def _private_unused():\n    return 0\n"
        ),
    }
    assert unreached(sources) == [
        "cli.unused_command", "lib.Shape.boundary", "lib.Shape.perimeter", "lib.only_tests", "lib.tests_helper",
    ]


def test_every_public_definition_is_reached_from_the_cli():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    names = unreached(sources)
    assert [n for n in names if n.rsplit(".", 1)[1] not in ALLOWED] == []
    # an allowed name that the CLI now reaches, or that is gone, leaves the list
    assert {n.rsplit(".", 1)[1] for n in names} == ALLOWED
