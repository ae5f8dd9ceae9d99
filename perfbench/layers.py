"""Per-layer probes for the traced run.

Each probe times the benchmark's own calls into one module's public
functions on fixed, seeded inputs, inside a span named after the metric.
Every traced run takes every probe, whichever workload it runs, so each
per-layer metric is measured the same way everywhere; xref.json says
which end-to-end metric on which workload each one should move.  A
`*_alloc_*` probe is the tracemalloc peak of one call, and tracemalloc
runs only around those calls.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

import sboxkit as sk
from sboxkit import anf, spn
from sboxkit.metrics import raw_metric_value
from sboxkit.search import (
    SearchConfig,
    builtin_cycle_specs,
    random_permutation,
    random_permutation_with_cycles,
    run_search,
)
from workloads import (
    VECTOR_METRICS,
    Sizes,
    derive_seed,
    heatmap_job,
    inverse_map,
    replay,
    search_configs,
)

IMPORT_TIMER = "import time; t = time.perf_counter(); import sboxkit; print(time.perf_counter() - t)"
PROBE_CYCLE = 1 << 33  # search configs of the replay probe, apart from the loop's
REPLAY_ROUNDS = 3


class Probes:
    def __init__(self, tracer, root: Path):
        self.tracer, self.root = tracer, root
        self.values = {}

    def time(self, metric: str, fn, reps: int, scale: float) -> list:
        outs = []
        for _ in range(reps):
            with self.tracer.span(metric):
                outs.append(fn())
        self.values[metric] = statistics.median(self.tracer.durations(metric)) * scale
        return outs

    def alloc(self, metric: str, fn, scale: int) -> None:
        with self.tracer.span(metric):  # opened first, so its own record is not counted
            tracemalloc.start()
            try:
                fn()
                self.values[metric] = tracemalloc.get_traced_memory()[1] / scale
            finally:
                tracemalloc.stop()

    def slope(self, metric: str, call, blocks: int, rounds: tuple, reps: int) -> None:
        """ns per block-round: the growth of call(rounds) time per added round."""
        lo, hi = rounds
        t = {}
        with self.tracer.span(metric):
            for r in rounds:
                name = f"{metric}.r{r}"
                self.time(name, lambda: call(r), reps, 1.0)
                t[r] = self.values.pop(name)
        self.values[metric] = (t[hi] - t[lo]) / ((hi - lo) * blocks) * 1e9

    def python(self, code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, capture_output=True,
                              text=True, timeout=120, check=True)
        return proc.stdout


def probe_layers(seed: int, sizes: Sizes, root: Path, workdir: Path, tracer) -> tuple[dict, list]:
    """Returns (per-layer metric values, failures of the checks made on the way)."""
    p = Probes(tracer, root)
    reps, big_reps = sizes.reps, sizes.big_reps
    rng = np.random.default_rng(derive_seed(seed, PROBE_CYCLE))
    aes = sk.SBox(8, np.array(sk.AES_SBOX))
    mid = sk.SBox(sizes.mid_n, rng.permutation(1 << sizes.mid_n))
    big = sk.SBox(sizes.big_n, rng.permutation(1 << sizes.big_n))
    fails = []

    # metrics
    p.time("metrics.lat_ms.n8", lambda: sk.compute_lat(aes), reps, 1e3)
    p.alloc("metrics.lat_alloc_kb.n8", lambda: sk.compute_lat(aes), 1024)
    p.time("metrics.ddt_ms.n8", lambda: sk.compute_ddt(aes), reps, 1e3)
    p.time("metrics.sac_ms.n8", lambda: sk.dsac(aes), reps, 1e3)
    p.time("metrics.bic_ms.n8", lambda: sk.dbic(aes), reps, 1e3)
    p.time("metrics.full_report_ms.n8", lambda: sk.full_report(aes), reps, 1e3)
    p.time("metrics.lat_ms.n12", lambda: sk.compute_lat(big), big_reps, 1e3)
    p.time("metrics.ddt_ms.n12", lambda: sk.compute_ddt(big), big_reps, 1e3)
    p.alloc("metrics.lat_alloc_mb.n12", lambda: sk.compute_lat(big), 1 << 20)
    p.alloc("metrics.ddt_alloc_mb.n12", lambda: sk.compute_ddt(big), 1 << 20)

    # search
    p.time("search.generate_us", lambda: random_permutation(rng, 256), 10 * reps, 1e6)
    for name, spec in builtin_cycle_specs().items():
        p.time(f"search.generate_cycles_us.{name}", lambda: random_permutation_with_cycles(rng, spec),
               5 * reps, 1e6)
    # run_search and its replay alternate, so drifts in machine speed hit both alike.  The
    # replay scores with raw_metric_value, as run_search does: the public report functions
    # cost more than run_search's whole loop, which would hide its overhead.
    replayed, searched = defaultdict(list), defaultdict(list)
    for _ in range(REPLAY_ROUNDS):
        for name, cfg in search_configs(seed, PROBE_CYCLE, sizes).items():
            cfg = replace(cfg, tries=max(1, cfg.tries // REPLAY_ROUNDS))
            with tracer.span("search.replay"):
                since = len(tracer.spans)
                result = run_search(cfg)
                _, best, raw_mean = replay(cfg, tracer, lambda s: raw_metric_value(s.table, s.n, cfg.metric))
            replayed[name].append(sum(tracer.durations("search.generate", since)
                                      + tracer.durations("metrics.evaluate", since)))
            searched[name].append(result.elapsed)
            scale = 1 << cfg.n if cfg.metric in VECTOR_METRICS else 1
            if (best, raw_mean / scale) != (result.best_sbox, result.mean_value):
                fails.append(f"raw replay of {cfg.metric} seed {cfg.seed} disagrees with run_search")
    p.values["search.overhead_ratio"] = (sum(map(statistics.median, searched.values()))
                                         / sum(map(statistics.median, replayed.values())))
    pool_cfg = SearchConfig(n=8, metric="du", tries=sizes.pool_tries, seed=derive_seed(seed, PROBE_CYCLE, 1))
    with tracer.span("search.pool"):
        one = run_search(pool_cfg)
        two = run_search(replace(pool_cfg, workers=2))
    p.values["search.pool_speedup"] = one.elapsed / two.elapsed

    # anf
    p.time("anf.degree_ms.n8", lambda: anf.algebraic_degree(aes), reps, 1e3)
    p.time("anf.ai_ms.n8", lambda: anf.sbox_algebraic_immunity(aes), reps, 1e3)
    p.time("anf.degree_ms.n12", lambda: anf.algebraic_degree(big), big_reps, 1e3)
    p.time("anf.ai_ms.n10", lambda: anf.sbox_algebraic_immunity(mid), big_reps, 1e3)

    # core
    aes_text = sk.format_sbox(aes)
    p.time("core.power_map_ms.n12", lambda: inverse_map(sizes.big_n), big_reps, 1e3)
    p.time("core.cycles_ms.n8", lambda: sk.cycle_decomposition(aes), reps, 1e3)
    parsed = p.time("core.parse_ms.n8", lambda: sk.parse_sbox(aes_text), reps, 1e3)
    if parsed[0] != aes:
        fails.append("parse_sbox(format_sbox(AES)) is not AES")

    # heatmap
    heat_dir = workdir / "probe-heatmaps"
    heat_dir.mkdir(exist_ok=True)
    p.time("heatmap.render_ms.n8", lambda: heatmap_job(aes, heat_dir, tracer), reps, 1e3)

    # cli: a fresh interpreter, and a fresh `import sboxkit` timed inside one
    cli_reps = max(1, reps // 4)
    p.time("cli.interpreter_s", lambda: p.python("pass"), cli_reps, 1.0)
    imports = p.time("cli.import_s", lambda: float(p.python(IMPORT_TIMER)), cli_reps, 1.0)
    p.values["cli.import_s"] = statistics.median(imports)  # as the child timed it

    # spn
    keys = rng.integers(0, 2 ** 64, size=sizes.spn_large_blocks, dtype=np.uint64)
    pts = rng.integers(0, 2 ** 64, size=sizes.spn_large_blocks, dtype=np.uint64)
    small = sizes.spn_small_blocks

    def cipher(rounds):
        return spn.SpnConfig(sbox=aes, rounds=rounds)

    p.time("spn.table_build_ms", lambda: spn.encrypt_blocks(pts[:1], keys[:1], cipher(0)), reps, 1e3)
    p.slope("spn.encrypt_ns_per_block_round.small",
            lambda r: spn.encrypt_blocks(pts[:small], keys[:small], cipher(r)), small, (2, 6), big_reps)
    p.slope("spn.encrypt_ns_per_block_round.large",
            lambda r: spn.encrypt_blocks(pts, keys, cipher(r)), len(pts), (1, 3), big_reps)
    p.slope("spn.decrypt_ns_per_block_round",
            lambda r: spn.decrypt_blocks(pts[:small], keys[:small], cipher(r)), small, (2, 6), big_reps)
    del pts, keys
    pairs = spn.generate_pairs(sizes.large_trials, derive_seed(seed, PROBE_CYCLE, 2))
    p.alloc("spn.avalanche_alloc_mb.large", lambda: spn.avalanche_experiment(cipher(4), pairs=pairs), 1 << 20)
    path = workdir / "probe-pairs.bin"

    def pairs_io():
        spn.save_pairs(path, pairs)
        return spn.load_pairs(path)

    reloaded = p.time("spn.pairs_io_ms.large", pairs_io, big_reps, 1e3)
    if not np.array_equal(reloaded[-1], pairs):
        fails.append("load_pairs(save_pairs(pairs)) differs from pairs")
    return p.values, fails
