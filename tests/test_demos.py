"""Each script under demos/ runs to completion from a clean working directory
and prints what tests/data/demo_stdout.json recorded for it."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = json.loads((Path(__file__).parent / "data" / "demo_stdout.json").read_text())


def masked_stdout(demo: Path, text: str) -> str:
    """text with demo 03's wall-clock timings, "(0.4s)", replaced by "(?s)"; every other byte kept."""
    return re.sub(r"\(\d+\.\d+s\)", "(?s)", text) if demo.name == "03_random_search.py" else text


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos write their images and tables into the working directory
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert masked_stdout(demo, done.stdout) == RECORDED[demo.name]


def test_every_demo_is_recorded():
    assert sorted(RECORDED) == [d.name for d in DEMOS]
