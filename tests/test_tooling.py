"""The tooling around the package keeps working: a failing property test is
reported as one failure, the benchmark finds every name it looks up, and
the package's settable values do not grow."""

import ast
import importlib
import importlib.util
import pathlib
import subprocess
import sys

from uscqed import config as C

ROOT = pathlib.Path(__file__).resolve().parent.parent
# defaulted parameters + dataclass fields + add_argument calls in src/uscqed
SETTABLE_CEILING = 42 + 127 + 13

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False
"""


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis's failure report imports modules that warn on import; under
    # the suite's warning filters that must not abort the session
    (tmp_path / "test_fail.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_fail.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out


def test_the_benchmark_finds_every_name_it_looks_up():
    spans = _load(ROOT / "perfbench" / "spans.py")
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    missing = [f"{home}.{name}" for home, name in spans.LAYERS
               if not hasattr(importlib.import_module(f"uscqed.{home}"), name)]
    assert missing == []
    for wl in workloads.WORKLOADS.values():
        C.from_dict(wl.config_dict(wl.points(1, 1)[0]))


def _is_dataclass(node) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    """Defaulted parameters, dataclass fields and ``add_argument`` calls."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            count += 1
    return count


def test_the_settable_count_sees_each_kind():
    source = ("from dataclasses import dataclass\n"
              "import dataclasses\n"
              "def f(a, b=1, *, c, d=2):\n    return lambda e=3: e\n"
              "@dataclass\nclass P:\n    x: int\n    y: int = 0\n"
              "@dataclasses.dataclass(frozen=True)\nclass Q:\n    z: int = 0\n"
              "class R:\n    w: int = 0\n"
              "parser.add_argument('--v')\n")
    assert settable_values(source) == 3 + 2 + 1 + 1


def test_settable_values_do_not_grow():
    total = sum(settable_values(path.read_text(encoding="utf-8"))
                for path in sorted((ROOT / "src" / "uscqed").glob("*.py")))
    assert total <= SETTABLE_CEILING
