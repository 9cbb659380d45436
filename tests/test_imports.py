"""Every imported name is read: an import nothing uses fails tier-1."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "uscqed").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _dotted(node):
    """``a.b.c`` for a Name or an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _reads(scope) -> set:
    reads = {_dotted(node) for node in ast.walk(scope)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)}
    reads.discard(None)
    return reads


def unused_imports(source: str) -> list:
    """``(line, name)`` of every import whose bound name is never read.

    An import inside a function counts only the reads inside that function,
    a module-level one the reads anywhere in the module.  ``import a.b``
    counts as read only where ``a.b`` itself is; imports from
    ``__future__`` are ignored.
    """
    tree = ast.parse(source)
    scopes = [tree, *(node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    scope_of = {node: scope for scope in scopes   # inner functions win
                for node in ast.walk(scope)}
    reads = {scope: _reads(scope) for scope in scopes}
    unused = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            seen = reads[scope_of[node]]
            for alias in node.names:
                name = alias.asname or alias.name
                if not any(r == name or r.startswith(name + ".")
                           for r in seen):
                    unused.append((node.lineno, name))
    return sorted(unused)


def test_the_rule_sees_plain_dotted_and_aliased_imports():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport scipy.linalg\n"
              "import numpy as np\nfrom json import dumps, loads\n"
              "x = np.zeros(1) + os.path.sep + loads\n"
              "def f():\n    import csv\n    return 1\n"
              "def g():\n    import csv\n    return csv.writer\n")
    # f's csv is unused although g reads a csv of its own
    assert unused_imports(source) == [(2, "math"), (4, "scipy.linalg"),
                                      (6, "dumps"), (9, "csv")]


def test_every_imported_name_is_read():
    unused = [(str(path.relative_to(ROOT)), line, name) for path in MODULES
              for line, name in unused_imports(path.read_text(
                  encoding="utf-8"))]
    assert unused == []
