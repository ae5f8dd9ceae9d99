"""The benchmark's three workloads: search, analyze and avalanche.

Each workload builds its inputs from the seed in `__init__` (that is its
set-up, warm-up calls included) and then offers a fixed cycle of
operations.  The runner calls the operations one at a time in a closed
loop, so sboxkit only ever sees one call in flight.  Every operation has a
class: `small` and `large` split each workload by working-set size, and
`cli` is one `sboxkit` subprocess.  Every operation carries a check of its
output, and `gate` runs the checks that need a whole cycle.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import sboxkit as sk
from sboxkit import heatmap, spn
from sboxkit.search import (
    SearchConfig,
    builtin_cycle_specs,
    random_permutation,
    random_permutation_with_cycles,
    run_search,
)
from tracing import NullTracer

DEFAULT_SEED = 2024  # the seed the files in expected/ were recorded at
# cycle numbers for search configs outside the timed loop
WARMUP_CYCLE = 1 << 32
REPLAY_CYCLE = WARMUP_CYCLE + 1
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"


@dataclass(frozen=True)
class Sizes:
    mode: str
    table_tries: int  # candidates per call for du, max_bias, nl
    vector_tries: int  # candidates per call for dsac, dbic and the cycle specs
    replay_tries: int  # candidates per config in the untraced replay check
    mid_n: int  # analyze: the larger n that still gets algebraic immunity
    big_n: int  # analyze: the largest n
    small_trials: int  # avalanche: the criterion-8 trial count
    large_trials: int
    roundtrip_blocks: int
    reps: int  # layer probes: repetitions of a cheap call
    big_reps: int  # layer probes: repetitions of an expensive call
    spn_small_blocks: int
    spn_large_blocks: int
    pool_tries: int


FULL = Sizes(mode="full", table_tries=100, vector_tries=500, replay_tries=8, mid_n=10, big_n=12,
             small_trials=10_000, large_trials=100_000, roundtrip_blocks=100_000, reps=21, big_reps=3,
             spn_small_blocks=650_000, spn_large_blocks=2_600_000, pool_tries=1200)
SMOKE = Sizes(mode="smoke", table_tries=3, vector_tries=10, replay_tries=3, mid_n=9, big_n=10,
              small_trials=200, large_trials=1000, roundtrip_blocks=100, reps=3, big_reps=1,
              spn_small_blocks=6500, spn_large_blocks=26_000, pool_tries=20)


@dataclass
class Op:
    name: str
    cls: str  # "small", "large", "cli", or "setup" for the runner's set-up samples
    units: int  # work items: candidates, reports or block-rounds
    fn: Callable  # fn(tracer) -> output
    check: Callable  # check(output, outputs of this cycle so far) -> list of failures


def derive_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0])


def run_cli(tracer, root: Path, args: list[str]) -> str:
    with tracer.span("cli.subprocess"):
        proc = subprocess.run([sys.executable, "-m", "sboxkit.cli", *args], cwd=root,
                              capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"sboxkit {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _expected_failures(actual: dict, path: Path) -> list[str]:
    expected = json.loads(path.read_text())
    return [f"{path.name}: {key} differs from the recorded output"
            for key in sorted(set(expected) | set(actual)) if expected.get(key) != actual.get(key)]


# ---------------------------------------------------------------------------
# search

TABLE_METRICS = ("du", "max_bias", "nl")  # 2^(2n)-entry DDT or LAT per candidate
VECTOR_METRICS = ("dsac", "dbic")  # n * 2^n work per candidate
CYCLE_SCORES = {"64x4": "dsac", "16x16": "dbic", "4x64": "dsac", "256x1": "dbic", "rijndael": "dsac"}

# a metric's value as SearchResult reports it, through the public API only
PUBLIC_METRIC = {
    "du": lambda s: sk.differential_uniformity(sk.compute_ddt(s)),
    "max_bias": lambda s: sk.max_bias(sk.compute_lat(s)),
    "nl": lambda s: sk.nonlinearity(s).nl,
    "dsac": lambda s: sk.dsac(s).max_norm,
    "dbic": lambda s: sk.dbic(s).max_norm,
}


def search_configs(seed: int, cycle: int, sizes: Sizes) -> dict[str, SearchConfig]:
    specs = builtin_cycle_specs()
    out = {}
    for i, metric in enumerate(TABLE_METRICS + VECTOR_METRICS):
        tries = sizes.table_tries if metric in TABLE_METRICS else sizes.vector_tries
        out[metric] = SearchConfig(n=8, metric=metric, tries=tries, seed=derive_seed(seed, cycle, i))
    for j, (spec, metric) in enumerate(CYCLE_SCORES.items(), start=len(out)):
        out[f"cycles.{spec}"] = SearchConfig(n=8, metric=metric, tries=sizes.vector_tries,
                                             seed=derive_seed(seed, cycle, j), cycle_spec=specs[spec])
    return out


def result_json(result) -> str:
    """The result as `sboxkit search -o` writes it, minus the `elapsed` key."""
    doc = result.to_dict()
    del doc["elapsed"]
    return json.dumps(doc, indent=2) + "\n"


def check_search_result(result) -> list[str]:
    cfg = result.config
    best = result.best_sbox
    fails = []
    if not sk.is_bijective(best):
        fails.append("best candidate is not a permutation")
    elif PUBLIC_METRIC[cfg.metric](best) != result.best_value:
        fails.append(f"best {cfg.metric} does not re-evaluate to {result.best_value}")
    if (result.mean_value > result.best_value) if cfg.maximize else (result.mean_value < result.best_value):
        fails.append(f"mean {result.mean_value} beats best {result.best_value}")
    if cfg.cycle_spec is not None and sk.is_bijective(best):
        if sk.cycle_decomposition(best).lengths != tuple(sorted(cfg.cycle_spec.lengths)):
            fails.append("best candidate does not have the requested cycle type")
    return fails


def replay(cfg: SearchConfig, tracer, evaluate=None):
    """Redraw run_search's worker-0 stream (workers=1) through public calls.

    Each candidate is scored by `evaluate`, by default the public metric
    functions of PUBLIC_METRIC.  Returns (best value, best S-box, exact
    mean); ties keep the earliest candidate, as run_search does.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.workers)[0])
    evaluate = evaluate or PUBLIC_METRIC[cfg.metric]
    best = best_sbox = None
    total = Fraction(0)
    for _ in range(cfg.tries):
        with tracer.span("search.generate"):
            if cfg.cycle_spec is None:
                s = random_permutation(rng, 1 << cfg.n)
            else:
                s = random_permutation_with_cycles(rng, cfg.cycle_spec)
        with tracer.span("metrics.evaluate"):
            value = evaluate(s)
        total += value
        if best is None or (value > best if cfg.maximize else value < best):
            best, best_sbox = value, s
    return best, best_sbox, total / cfg.tries


def replay_failures(cfg: SearchConfig, result, replayed) -> list[str]:
    best, best_sbox, mean = replayed
    if (best, best_sbox, mean) != (result.best_value, result.best_sbox, result.mean_value):
        return [f"replay of {cfg.metric} seed {cfg.seed} disagrees with run_search"]
    return []


class Search:
    """n=8 run_search at workers=1 over every metric and every builtin cycle spec."""

    name = "search"

    def __init__(self, seed: int, sizes: Sizes, root: Path, workdir: Path):
        self.seed, self.sizes, self.root, self.workdir = seed, sizes, root, workdir
        for cfg in search_configs(seed, WARMUP_CYCLE, sizes).values():  # warm-up, one call per kernel
            run_search(replace(cfg, tries=2))

    def ops(self, cycle: int) -> list[Op]:
        configs = search_configs(self.seed, cycle, self.sizes)
        ops = [Op(name, "large" if cfg.metric in TABLE_METRICS else "small", cfg.tries,
                  self._searcher(cfg), lambda result, _: check_search_result(result))
               for name, cfg in configs.items()]
        cli = Op("cli.search", "cli", configs["dsac"].tries, self._cli(configs["dsac"]), self._check_cli)
        unconstrained = len(TABLE_METRICS + VECTOR_METRICS)
        return ops[:unconstrained] + [cli] + ops[unconstrained:] + [cli]

    @staticmethod
    def _searcher(cfg):
        def fn(tracer):
            with tracer.span("search.run_search"):
                return run_search(cfg)
        return fn

    def _cli(self, cfg):
        out = self.workdir / "cli-search.json"

        def fn(tracer):
            run_cli(tracer, self.root, ["search", "--metric", cfg.metric, "--tries", str(cfg.tries),
                                        "--seed", str(cfg.seed), "-o", str(out)])
            doc = json.loads(out.read_text())
            del doc["elapsed"]
            return json.dumps(doc, indent=2) + "\n"
        return fn

    @staticmethod
    def _check_cli(text, cycle):
        if text != result_json(cycle["dsac"]):
            return ["CLI search JSON differs from run_search"]
        return []

    def record(self, first: dict) -> dict:
        return {name: result_json(r) for name, r in first.items() if not name.startswith("cli")}

    def gate(self, first: dict, tracer) -> list[str]:
        fails = []
        if self.seed == DEFAULT_SEED:  # each value is a result file's exact text
            fails += _expected_failures(self.record(first), EXPECTED / self.sizes.mode / "search.json")
        for cfg in search_configs(self.seed, REPLAY_CYCLE, self.sizes).values():
            cfg = replace(cfg, tries=self.sizes.replay_tries)
            fails += replay_failures(cfg, run_search(cfg), replay(cfg, tracer))
        return fails


# ---------------------------------------------------------------------------
# analyze

AES_ROW = "aes,4,16,0.0625,0.0703125,112"
SMALL_REPEATS = 3


def heatmap_job(s, directory: Path, tracer):
    """AES-style DDT and LAT heatmaps: values, render, PPM and CSV."""
    extremes = {}
    for kind in ("ddt", "lat"):
        with tracer.span("heatmap.render"):
            values = heatmap.heatmap_values(s, kind)
            rgb, info = heatmap.render_heatmap(values, heatmap.HeatmapSpec(kind=kind))
            heatmap.write_ppm(directory / f"{kind}.ppm", rgb)
            heatmap.write_matrix_csv(directory / f"{kind}.csv", values)
        extremes[kind] = info["max_abs"]
    return extremes


def inverse_map(n: int):
    """x -> x^(2^n - 2), the field inverse, bijective for every n."""
    return sk.build_monomial_sbox(sk.default_context(n), "raw", e=(1 << n) - 2)


def table_invariant_failures(s) -> list[str]:
    """Even entries, row sums and Parseval on the DDT and LAT of s."""
    size = s.size
    fails = []
    counts = sk.compute_ddt(s).counts
    if (counts % 2).any() or (counts.sum(axis=1) != size).any():
        fails.append(f"n={s.n} DDT has an odd entry or a row sum other than {size}")
    del counts
    sums = sk.compute_lat(s).sums
    if (sums % 2).any() or ((sums * sums).sum(axis=0) != size * size).any():
        fails.append(f"n={s.n} LAT has an odd entry or breaks Parseval")
    return fails


class Analyze:
    """full_report, degree and AI on a few S-boxes from n=7 to n=12, heatmaps and the CLI."""

    name = "analyze"

    def __init__(self, seed: int, sizes: Sizes, root: Path, workdir: Path):
        self.seed, self.sizes, self.root, self.workdir = seed, sizes, root, workdir
        rng = np.random.default_rng(seed)
        aes = sk.SBox(8, np.array(sk.AES_SBOX))
        ctx8 = sk.default_context(8)
        mid, big = sizes.mid_n, sizes.big_n
        # name -> (S-box, class, with_ai); AI only up to mid_n, where it still costs < 0.2 s
        self.jobs = {
            "aes": (aes, "small", True),
            "gold8": (sk.build_monomial_sbox(ctx8, "gold", i=1), "small", True),
            "kasami8": (sk.build_monomial_sbox(ctx8, "kasami", i=3), "small", True),
            "inverse8": (inverse_map(8), "small", True),
            "inverse7": (sk.build_monomial_sbox(sk.default_context(7), "inverse"), "small", True),
            f"random{mid}": (sk.SBox(mid, rng.permutation(1 << mid)), "large", True),
            f"inverse{mid}": (inverse_map(mid), "large", True),
            f"random{big}": (sk.SBox(big, rng.permutation(1 << big)), "large", False),
            f"inverse{big}": (inverse_map(big), "large", False),
        }
        self.aes_path = workdir / "aes.txt"
        self.aes_path.write_text(sk.format_sbox(aes))
        self.heatmap_dir = workdir / "heatmaps"
        self.heatmap_dir.mkdir()
        sk.full_report(aes, with_degree=True, with_ai=True)  # warm-up, one call per kernel
        heatmap_job(aes, self.heatmap_dir, NullTracer())

    def ops(self, cycle: int) -> list[Op]:
        heat = Op("heatmap.aes", "small", 1,
                  lambda tracer: heatmap_job(self.jobs["aes"][0], self.heatmap_dir, tracer),
                  lambda ext, _: [] if ext == {"ddt": 4, "lat": 16} else [f"AES heatmap extremes {ext}"])
        reports = {cls: [Op(f"report.{name}", cls, 1, self._reporter(s, ai), self._check_report(name))
                         for name, (s, c, ai) in self.jobs.items() if c == cls]
                   for cls in ("small", "large")}
        cli = Op("cli.analyze", "cli", 1, self._cli, self._check_cli)
        # the n<=8 jobs take milliseconds, so they repeat to get as many samples as the rest
        return ([heat] + reports["small"]) * SMALL_REPEATS + [cli] + reports["large"] + [cli]

    @staticmethod
    def _reporter(s, with_ai):
        def fn(tracer):
            with tracer.span("metrics.full_report"):
                return sk.full_report(s, with_degree=True, with_ai=with_ai)
        return fn

    @staticmethod
    def _check_report(name):
        def check(report, cycle):
            if name == "aes" and (report.csv_row("aes"), report.degree, report.ai) != (AES_ROW, 7, 4):
                return [f"AES report {report.csv_row('aes')} degree {report.degree} ai {report.ai}"]
            if name in ("gold8", "inverse7") and report.du != 2:
                return [f"{name} has DU {report.du}, not 2"]
            return []
        return check

    def _cli(self, tracer):
        return run_cli(tracer, self.root, ["analyze", str(self.aes_path), "--with-degree", "--with-ai",
                                           "--name", "aes"])

    @staticmethod
    def _check_cli(text, cycle):
        return [] if text == cycle["report.aes"].to_json("aes") else ["CLI analyze JSON differs from full_report"]

    def record(self, first: dict) -> dict:
        return {name: out.to_dict() for name, out in first.items() if name.startswith("report.")}

    def gate(self, first: dict, tracer) -> list[str]:
        fails = []
        if self.seed == DEFAULT_SEED:
            fails += _expected_failures(self.record(first), EXPECTED / self.sizes.mode / "analyze.json")
        fails += table_invariant_failures(self.jobs[f"random{self.sizes.big_n}"][0])
        return fails


# ---------------------------------------------------------------------------
# avalanche

AVALANCHE_ROUNDS = (4, 6, 12)
LARGE_ROUNDS = 4
BLOCKS_PER_TRIAL = 65  # the baseline block and its 64 one-bit variants


class Avalanche:
    """The toy SPN: avalanche over one stored pair set per trial count, and a bulk round trip."""

    name = "avalanche"

    def __init__(self, seed: int, sizes: Sizes, root: Path, workdir: Path):
        self.seed, self.sizes, self.root, self.workdir = seed, sizes, root, workdir
        rng = np.random.default_rng(seed)
        self.boxes = {
            "aes": sk.SBox(8, np.array(sk.AES_SBOX)),
            "random1": sk.SBox(8, rng.permutation(256)),
            "random2": sk.SBox(8, rng.permutation(256)),
        }
        self.small_pairs = spn.generate_pairs(sizes.small_trials, seed)
        self.large_pairs = spn.generate_pairs(sizes.large_trials, seed)
        self.small_path = workdir / "pairs-small.bin"
        self.large_path = workdir / "pairs-large.bin"
        spn.save_pairs(self.small_path, self.small_pairs)
        self.reloaded_small = spn.load_pairs(self.small_path)
        self.aes_path = workdir / "aes.txt"
        self.aes_path.write_text(sk.format_sbox(self.boxes["aes"]))
        self.blocks = rng.integers(0, 2 ** 64, size=(2, sizes.roundtrip_blocks), dtype=np.uint64)
        self.cipher = spn.SpnConfig(sbox=self.boxes["aes"], rounds=max(AVALANCHE_ROUNDS))
        # warm-up, one call per kernel
        spn.avalanche_experiment(spn.SpnConfig(sbox=self.boxes["aes"], rounds=1), pairs=self.small_pairs[:8])
        spn.decrypt_blocks(spn.encrypt_blocks(self.blocks[0, :8], self.blocks[1, :8], self.cipher),
                           self.blocks[1, :8], self.cipher)

    def ops(self, cycle: int) -> list[Op]:
        small, large = self.sizes.small_trials, self.sizes.large_trials
        ops = [Op(f"avalanche.{box}.r{r}", "small", small * BLOCKS_PER_TRIAL * r,
                  self._experiment(box, r, self.small_pairs), self._check_ordering(box, r))
               for box in self.boxes for r in AVALANCHE_ROUNDS]
        ops.append(Op("roundtrip", "small", 2 * self.sizes.roundtrip_blocks * self.cipher.rounds,
                      self._roundtrip, self._check_roundtrip))
        cli = Op("cli.avalanche", "cli", small * BLOCKS_PER_TRIAL * 4, self._cli, self._check_cli)
        # at 100k trials one call takes seconds, so only AES runs at the large count
        return ops + [cli,
                      Op("pairs_io.large", "large", 0, self._pairs_io, self._check_pairs_io),
                      Op(f"avalanche.aes.r{LARGE_ROUNDS}.large", "large", large * BLOCKS_PER_TRIAL * LARGE_ROUNDS,
                         self._experiment("aes", LARGE_ROUNDS, self.large_pairs), self._check_large),
                      cli]

    def _experiment(self, box, rounds, pairs):
        cfg = spn.SpnConfig(sbox=self.boxes[box], rounds=rounds)

        def fn(tracer):
            with tracer.span("spn.avalanche_experiment"):
                return spn.avalanche_experiment(cfg, pairs=pairs)
        return fn

    def _roundtrip(self, tracer):
        pts, keys = self.blocks
        with tracer.span("spn.encrypt_blocks"):
            cts = spn.encrypt_blocks(pts, keys, self.cipher)
        with tracer.span("spn.decrypt_blocks"):
            back = spn.decrypt_blocks(cts, keys, self.cipher)
        return cts, back

    def _check_roundtrip(self, output, cycle):
        cts, back = output
        pts, keys = self.blocks
        fails = [] if np.array_equal(back, pts) else ["decrypt_blocks(encrypt_blocks(p)) != p"]
        for i in (0, 1, len(pts) - 1):
            scalar = spn.encrypt_block(spn.int_to_block(pts[i]), spn.int_to_block(keys[i]), self.cipher)
            if spn.block_to_int(scalar) != int(cts[i]):
                fails.append(f"block {i}: encrypt_blocks disagrees with encrypt_block")
        return fails

    @staticmethod
    def _check_large(report, cycle):
        # both pair sets sample the same distance, whose standard error is about
        # 0.6 / sqrt(trials); allow ten of them at the smaller count
        small = cycle[f"avalanche.aes.r{LARGE_ROUNDS}"]
        if abs(report.distance_from_32 - small.distance_from_32) > 6 / small.trials ** 0.5:
            return [f"AES distance at the large count {report.distance_from_32} is far from {small.distance_from_32}"]
        return []

    def _pairs_io(self, tracer):
        with tracer.span("spn.save_pairs"):
            spn.save_pairs(self.large_path, self.large_pairs)
        with tracer.span("spn.load_pairs"):
            return spn.load_pairs(self.large_path)

    def _check_pairs_io(self, reloaded, cycle):
        ok = np.array_equal(reloaded, self.large_pairs) and np.array_equal(self.reloaded_small, self.small_pairs)
        return [] if ok else ["reloaded pairs differ from the generated pairs"]

    def _check_ordering(self, box, rounds):
        # At 10k trials the 6- vs 12-round gap is at sampling-noise level
        # (it reverses on about half of all seeds), so on other seeds only
        # the 4-round distance is required to exceed the later ones.
        def check(report, cycle):
            if box != "aes" or rounds != max(AVALANCHE_ROUNDS):
                return []
            d4, d6, d12 = (cycle[f"avalanche.aes.r{r}"].distance_from_32 for r in AVALANCHE_ROUNDS)
            ok = d4 > d6 > d12 if self.seed == DEFAULT_SEED else d4 > max(d6, d12)
            return [] if ok else [f"AES distances out of order: r4 {d4} r6 {d6} r12 {d12}"]
        return check

    def _cli(self, tracer):
        return run_cli(tracer, self.root, ["avalanche", str(self.aes_path), "--rounds", "4",
                                           "--pairs", str(self.small_path), "--name", "aes"])

    @staticmethod
    def _check_cli(text, cycle):
        doc = {"name": "aes", **cycle["avalanche.aes.r4"].to_dict()}
        return [] if text == json.dumps(doc, indent=2) + "\n" else ["CLI avalanche JSON differs from the library"]

    def record(self, first: dict) -> dict:
        return {name: out.to_dict() for name, out in first.items() if name.startswith("avalanche.")}

    def gate(self, first: dict, tracer) -> list[str]:
        if self.seed != DEFAULT_SEED:
            return []
        return _expected_failures(self.record(first), EXPECTED / self.sizes.mode / "avalanche.json")


WORKLOADS = {w.name: w for w in (Search, Analyze, Avalanche)}
