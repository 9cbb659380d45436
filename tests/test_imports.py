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


def unused_imports(source: str) -> list:
    """``(line, name)`` of every import whose bound name is never read.

    ``import a.b`` counts as read only where ``a.b`` itself is; imports
    from ``__future__`` are ignored.
    """
    tree = ast.parse(source)
    imported = [(node.lineno, alias.asname or alias.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    reads = {_dotted(node) for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)}
    reads.discard(None)
    return [(line, name) for line, name in imported
            if not any(r == name or r.startswith(name + ".") for r in reads)]


def test_the_rule_sees_plain_dotted_and_aliased_imports():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport scipy.linalg\n"
              "import numpy as np\nfrom json import dumps, loads\n"
              "x = np.zeros(1) + os.path.sep + loads\n")
    assert unused_imports(source) == [(2, "math"), (4, "scipy.linalg"),
                                      (6, "dumps")]


def test_every_imported_name_is_read():
    unused = [(str(path.relative_to(ROOT)), line, name) for path in MODULES
              for line, name in unused_imports(path.read_text(
                  encoding="utf-8"))]
    assert unused == []
