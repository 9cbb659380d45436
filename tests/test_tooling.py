"""The tooling around the package keeps working: a failing property test is
reported as one failure, and the benchmark finds every name it looks up."""

import importlib
import importlib.util
import pathlib
import subprocess
import sys

from uscqed import config as C

ROOT = pathlib.Path(__file__).resolve().parent.parent

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
