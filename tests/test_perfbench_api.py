"""The benchmark harness under perfbench/ imports library names directly; a
rename that breaks those imports fails here rather than in every benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", ["workloads", "layers"])
def test_perfbench_modules_import(module, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = ("workloads", "layers", "tracing")  # perfbench's top-level modules, imported fresh
    try:
        assert importlib.import_module(module).__file__ == str(PERFBENCH / f"{module}.py")
    finally:
        for name in own:
            sys.modules.pop(name, None)
