"""Benchmark for sboxkit's three jobs: search, analyze and avalanche.

Run from the repository root; the library is imported from src/:

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke              # every workload at tiny sizes, traced too
    python3 perfbench/run.py --record-expected    # rewrite expected/ at the default seed

With `--trace 0` one run calls the workload's operations, and twice a
cycle sets the workload up in a fresh interpreter, one at a time in a
closed loop for `--seconds`, and prints the end-to-end metrics.  With `--trace 1` it prints the
per-layer metrics instead: the layer probes of layers.py, plus the cost
of tracing itself, from a loop in which every other call is traced.
Either way every output is checked.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it describe the machine and the metrics under the names
xref.json gives them per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("search", "analyze", "avalanche"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; with no --workload, run them all")
    ap.add_argument("--setup-only", action="store_true", help="set the workload up and exit")
    ap.add_argument("--record-expected", action="store_true",
                    help="record the default seed's outputs as the expected files")
    args = ap.parse_args(argv)
    if args.workload is None and not (args.smoke or args.record_expected):
        ap.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def machine_record(sizes) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    state = {f"{t}_trials": t * 65 * 8 for t in (sizes.small_trials, sizes.large_trials)}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "cache_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "avalanche_state_bytes": state,
        "avalanche_state_vs_l2": caches.get("L2"),
    }


def setup_op(workload: str, seed: int, smoke: bool):
    """A fresh interpreter that sets the workload up and exits, as one loop operation."""
    from workloads import Op

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")

    def fn(tracer):
        # with its output on pipes, run() waits on them rather than polling the
        # child every 50 ms, which would round each time up by as much
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")

    return Op("setup", "setup", 0, fn, lambda out, cycle: [])


def run_loop(ops_for, seconds: float, tracer_for, min_cycles: int = 1):
    """Closed loop over the operation cycle that ops_for(cycle) returns.

    Runs whole cycles until `min_cycles` are done, then stops at the first
    operation that starts after `seconds`.  Returns (samples, first-cycle
    outputs, ops of one cycle, attempted, failures); samples maps
    (traced?, op name) to call times.  tracer_for(cycle, position in the
    cycle) gives the tracer of one call and whether it counts as traced
    (None: neither).
    """
    samples = defaultdict(list)
    failures = []
    attempted = 0
    first = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        outputs = {}
        ops = ops_for(cycle)
        for i, op in enumerate(ops):
            tracer, traced = tracer_for(cycle, i)
            if cycle >= min_cycles and time.perf_counter() - start >= seconds:
                return samples, first, cycle_ops, attempted, failures
            attempted += 1
            try:
                with tracer.span(f"bench.{op.name}"):
                    t0 = time.perf_counter()
                    out = op.fn(tracer)
                    dt = time.perf_counter() - t0
                outputs[op.name] = out
                problems = op.check(out, outputs)
            except Exception:
                problems = [traceback.format_exc()]
            else:
                samples[traced, op.name].append(dt)
            if problems:
                failures.append(f"cycle {cycle} {op.name}: " + "; ".join(problems))
        if cycle == 0:
            first, cycle_ops = outputs, ops
        cycle += 1


def tail(values: list[float]) -> str:
    """Mean, median, the highest percentile with at least ten samples above it, and the count."""
    vals = sorted(values)
    n = len(vals)
    text = f"mean {statistics.fmean(vals):.6g} median {statistics.median(vals):.6g} n={n}"
    if n > 10:
        q = 100 * (n - 10) // n
        text += f" p{q} {vals[max(0, -(-q * n // 100) - 1)]:.6g}"
    return text


def rate(ops, means, pick) -> float:
    chosen = [op for op in ops if pick(op) and op.name in means]
    return sum(op.units for op in chosen) / sum(means[op.name] for op in chosen)


def end_to_end(ops, samples) -> tuple[dict, list[str]]:
    # Means, not medians: a shared 2-vCPU VM's speed can flip between two levels every
    # second or so, and the median of such a two-level sample jumps from one level to the
    # other between runs, where the mean follows the share of time spent at each.
    mean = {name: statistics.fmean(v) for (traced, name), v in samples.items() if not traced}
    cli = [t for (traced, name), v in samples.items() if name.startswith("cli.") for t in v]
    values = {
        # cli_s and setup_s time the subprocesses
        "ops_per_s": rate(ops, mean, lambda op: op.cls in ("small", "large")),
        "ops_per_s.small": rate(ops, mean, lambda op: op.cls == "small"),
        "ops_per_s.large": rate(ops, mean, lambda op: op.cls == "large"),
        "cli_s": statistics.fmean(cli),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(samples[False, "setup"]),
    }
    lines = []
    for op in {op.name: op for op in ops if op.name in mean}.values():
        lines.append(f"op {op.name} [{op.cls}, {op.units} units]: {tail(samples[False, op.name])} s")
    return values, lines


def run(workload: str, seed: int, seconds: float, trace: int, sizes) -> dict:
    from layers import probe_layers
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    xref = json.loads((HERE / "xref.json").read_text())
    print(f"# workload {workload} seed {seed} seconds {seconds} trace {trace} sizes {sizes.mode}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        wl = WORKLOADS[workload](seed, sizes, ROOT, workdir)
        null = NullTracer()
        if not trace:
            # two set-ups a cycle, so that they sample the run's whole span like the rest
            setup = setup_op(workload, seed, sizes.mode == "smoke")

            def cycle_ops(cycle):
                ops = wl.ops(cycle)
                return [setup] + ops[:len(ops) // 2] + [setup] + ops[len(ops) // 2:]

            samples, first, ops, attempted, failures = run_loop(cycle_ops, seconds, lambda c, i: (null, False))
            del first[setup.name]  # the gate checks the workload's own outputs
            gate_fails = wl.gate(first, null)
            values, lines = end_to_end(ops, samples)
        else:
            tracer = Tracer(f"{workload}-{seed}-{os.getpid()}")

            def tracer_for(cycle, i):
                # After an uncompared first cycle, whose first calls at each size run slower,
                # a call is traced on every other cycle and half the calls of a cycle are,
                # so drifts in machine speed reach the traced and untraced calls alike.
                if cycle == 0:
                    return null, None
                return (tracer, True) if (cycle + i) % 2 else (null, False)

            samples, first, ops, attempted, failures = run_loop(wl.ops, seconds, tracer_for, min_cycles=3)
            loop_self = tracer.self_times()
            values, gate_fails = probe_layers(seed, sizes, ROOT, workdir, tracer)
            gate_fails += wl.gate(first, tracer)
            per_traced = [statistics.fmean(samples[t, op.name]) for op in ops for t in (False, True)
                          if samples[True, op.name] and samples[False, op.name]]
            values["trace.overhead_ratio"] = sum(per_traced[1::2]) / sum(per_traced[0::2])
            total = sum(loop_self.values())
            lines = [f"self time of the traced calls: {layer} {t:.4g} s ({t / total:.1%})"
                     for layer, t in sorted(loop_self.items(), key=lambda kv: -kv[1])]
            tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    for name, entry in xref[kind].items():
        meaning = entry[workload] if kind == "end_to_end" else entry["moves"]
        lines.append(f"{name} = {values[name]:.6g} {metrics[name]['unit']}  ({meaning})")
    attempted += 1  # the gate
    failures += gate_fails
    failed = len(failures) - len(gate_fails) + (1 if gate_fails else 0)
    for line in lines:
        print(line)
    print(f"fail_ratio = {failed}/{attempted}")
    for problem in failures:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_expected(sizes) -> None:
    from tracing import NullTracer
    from workloads import DEFAULT_SEED, EXPECTED, WORKLOADS

    (EXPECTED / sizes.mode).mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = cls(DEFAULT_SEED, sizes, ROOT, Path(tmp))
            outputs = {}
            for op in wl.ops(0):
                outputs[op.name] = op.fn(NullTracer())
            path = EXPECTED / sizes.mode / f"{name}.json"
            path.write_text(json.dumps(wl.record(outputs), indent=2, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sboxkit" / "__init__.py").is_file():
        print(f"error: no sboxkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    from workloads import DEFAULT_SEED, FULL, SMOKE, WORKLOADS

    sizes = SMOKE if args.smoke else FULL
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            WORKLOADS[args.workload](seed, sizes, ROOT, Path(tmp))
        return 0
    if args.record_expected:
        record_expected(sizes)
        return 0
    if args.workload is None:  # smoke: every workload, untraced and traced
        results = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                results.append(run(workload, seed, args.seconds, trace, sizes))
                print(json.dumps(results[-1]))
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {}}))
        return 0 if all(r["correct"] for r in results) else 1
    result = run(args.workload, seed, args.seconds, args.trace, sizes)
    print(json.dumps({"machine": machine_record(sizes)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
