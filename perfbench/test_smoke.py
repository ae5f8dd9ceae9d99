"""Smoke test of the benchmark: every workload, untraced and traced, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

pyproject.toml points pytest's testpaths at tests/, so the repository's
own test run does not collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_runs_every_workload_and_passes_the_gate():
    proc = _run(ROOT, "--smoke", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == 2 * len(spec["workloads"]) + 1
    for result, names in zip(results, [spec["end_to_end"], spec["per_layer"]] * len(spec["workloads"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in names}
        for m in names:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_cross_reference_covers_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    xref = json.loads((HERE / "xref.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert list(xref["workloads"]) == workloads
    assert list(xref["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(list(v) == workloads for v in xref["end_to_end"].values())
    assert list(xref["per_layer"]) == [m["name"] for m in spec["per_layer"]]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
