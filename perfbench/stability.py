"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py --runs 10 --first-seed 100 [--workload search ...]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), and their distance as a
share of the median next to the metric's bound from BENCHMARK.json.  Runs
go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {workload:9s} {metric['name']:16s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {(q3 - q1) / med:.4f} bound {metric['bound']}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
