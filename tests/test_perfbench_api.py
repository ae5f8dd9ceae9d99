"""The benchmark harness under perfbench/ imports library names directly; a
rename that breaks those imports fails here rather than in every benchmark run.
Its search replay gate runs here too, read-only."""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sboxkit.search import run_search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    """perfbench's top-level modules, imported fresh and dropped afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = ("workloads", "layers", "tracing")
    try:
        yield importlib.import_module
    finally:
        for name in own:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("module", ["workloads", "layers"])
def test_perfbench_modules_import(module, perfbench):
    assert perfbench(module).__file__ == str(PERFBENCH / f"{module}.py")


def test_search_replay_gate_passes(perfbench):
    # run_search's stream-0 candidates equal random_permutation / random_permutation_with_cycles
    # redrawn from the same stream, scored by the public metric calls, for every benchmark config
    workloads, tracer = perfbench("workloads"), perfbench("tracing").NullTracer()
    sizes = workloads.SMOKE
    configs = workloads.search_configs(workloads.DEFAULT_SEED, workloads.REPLAY_CYCLE, sizes)
    assert len(configs) == 10
    for name, cfg in configs.items():
        cfg = replace(cfg, tries=sizes.replay_tries)
        assert workloads.replay_failures(cfg, run_search(cfg), workloads.replay(cfg, tracer)) == [], name
