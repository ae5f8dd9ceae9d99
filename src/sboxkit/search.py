"""Seeded random permutation generation and metric-driven search.

Candidate streams come from numpy's PCG64 (period 2^128); the master seed
is split into one child stream per worker, but never more streams than
candidates, via SeedSequence.spawn, so a run is reproducible for a fixed
(seed, workers) pair without any coordination between workers.  Streams
share a process pool no larger than the CPU count.  Means are accumulated as
exact integer sums.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SBox, MIN_N, MAX_N
from .metrics import METRICS, lookup_metric, raw_metric_value
from .util import exact_decimal

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class CycleSpec:
    """A requested multiset of cycle lengths."""

    lengths: tuple

    def __post_init__(self):
        lens = tuple(int(v) for v in self.lengths)
        if not lens or any(v < 1 for v in lens):
            raise ValueError("cycle lengths must be positive integers")
        object.__setattr__(self, "lengths", lens)

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @classmethod
    def parse(cls, text: str) -> "CycleSpec":
        try:
            return cls(tuple(int(tok) for tok in text.replace(",", " ").split()))
        except ValueError as exc:
            raise ValueError(f"bad cycle list {text!r}: {exc}") from None


def builtin_cycle_specs() -> dict[str, CycleSpec]:
    """The five named 8-bit cycle structures used throughout the search runs."""
    return {
        "64x4": CycleSpec((4,) * 64),
        "16x16": CycleSpec((16,) * 16),
        "4x64": CycleSpec((64,) * 4),
        "256x1": CycleSpec((256,)),
        "rijndael": CycleSpec((59, 81, 87, 27, 2)),
    }


@dataclass(frozen=True)
class SearchConfig:
    n: int
    metric: str
    tries: int
    seed: int
    cycle_spec: CycleSpec | None = None
    workers: int = 1

    def __post_init__(self):
        if not MIN_N <= self.n <= MAX_N:
            raise ValueError(f"n={self.n} outside supported range [{MIN_N}, {MAX_N}]")
        lookup_metric(self.metric)
        if self.tries < 1:
            raise ValueError("tries must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.cycle_spec is not None and self.cycle_spec.total != 1 << self.n:
            raise ValueError(
                f"cycle lengths sum to {self.cycle_spec.total}, need {1 << self.n}"
            )

    @property
    def maximize(self) -> bool:
        return METRICS[self.metric].maximize


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    best_sbox: SBox
    best_value: int | Fraction
    mean_value: Fraction
    generator_name: str
    elapsed: float

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "generator": self.generator_name,
            "n": cfg.n,
            "metric": cfg.metric,
            "tries": cfg.tries,
            "seed": cfg.seed,
            "workers": cfg.workers,
            "cycle_spec": list(cfg.cycle_spec.lengths) if cfg.cycle_spec else None,
            "best_value": exact_decimal(Fraction(self.best_value)),
            "mean_value": exact_decimal(self.mean_value),
            "best_sbox": [int(v) for v in self.best_sbox.table],
            "elapsed": self.elapsed,
        }


def random_permutation(rng: np.random.Generator, size: int) -> SBox:
    """Uniform random permutation of [0, size) from the given stream."""
    if size < 4 or size > 4096 or size & (size - 1):
        raise ValueError(f"size {size} is not a power of two in [4, 4096]")
    return SBox(size.bit_length() - 1, rng.permutation(size))


def _ring_table(rng: np.random.Generator, spec: CycleSpec) -> np.ndarray:
    """One shuffled pool supplies every cycle's elements in drawn order; each
    chunk is linked into a ring, which forces the requested decomposition."""
    pool = rng.permutation(spec.total)
    table = np.empty(spec.total, dtype=np.int64)
    pos = 0
    for length in spec.lengths:
        ring = pool[pos : pos + length]
        pos += length
        table[ring] = np.roll(ring, -1)
    return table


def random_permutation_with_cycles(rng: np.random.Generator, spec: CycleSpec) -> SBox:
    """Random permutation whose cycle type matches spec exactly."""
    size = spec.total
    if size < 4 or size > 4096 or size & (size - 1):
        raise ValueError(f"cycle lengths must sum to a power of two in [4, 4096], got {size}")
    return SBox(size.bit_length() - 1, _ring_table(rng, spec))


def _run_worker(child, count, config, inject_tables, want_log):
    """Evaluate `count` candidates from one stream; returns summary tuple.

    inject_tables (a list of entry lists) replaces the first candidates of
    this stream without consuming generator draws; they still count toward
    tries and the mean.  Used by tests to force known tables into the run.
    """
    rng = np.random.default_rng(child)
    n = config.n
    size = 1 << n
    spec = config.cycle_spec
    best_raw = None
    best_table = None
    total = 0
    log = [] if want_log else None
    for it in range(count):
        if it < len(inject_tables):
            table = np.asarray(inject_tables[it], dtype=np.int64)
        elif spec is None:
            table = rng.permutation(size)
        else:
            table = _ring_table(rng, spec)
        raw = raw_metric_value(table, n, config.metric)
        total += raw
        if want_log:
            log.append(raw)
        if best_raw is None or (raw > best_raw if config.maximize else raw < best_raw):
            best_raw = raw
            best_table = table.copy()
    return best_raw, None if best_table is None else best_table.tolist(), total, log


def pool_size(workers: int, cpus: int | None) -> int:
    """Processes that run `workers` streams: one each, but no more than `cpus`."""
    return min(workers, cpus or 1)


def run_search(config: SearchConfig, inject=(), value_log: list | None = None) -> SearchResult:
    """Algorithm: generate `tries` candidates, track the strict best, sum values.

    Ties keep the earlier candidate in (worker index, iteration) order, so
    results are deterministic for a fixed (seed, workers) pair.  `inject`
    prepends known S-boxes as worker 0's first candidates (test hook); when
    `value_log` is a list it receives every candidate's raw value in
    enumeration order.
    """
    t0 = time.perf_counter()
    # streams past `tries` would get no candidates; spawn children keep their index
    streams = min(config.workers, config.tries)
    children = np.random.SeedSequence(config.seed).spawn(streams)
    base, extra = divmod(config.tries, streams)
    counts = [base + (1 if w < extra else 0) for w in range(streams)]
    inject_tables = [[int(v) for v in s.table] for s in inject]
    want_log = value_log is not None

    jobs = []
    for w in range(streams):
        jobs.append((children[w], counts[w], config, inject_tables if w == 0 else [], want_log))
    processes = pool_size(streams, os.cpu_count())
    if processes == 1:
        outcomes = [_run_worker(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(_run_worker, *job) for job in jobs]
            outcomes = [f.result() for f in futures]  # reduce in worker-index order

    best_raw = None
    best_table = None
    grand_total = 0
    for w, (raw, table, total, log) in enumerate(outcomes):
        grand_total += total
        if want_log and log:
            value_log.extend(log)
        if raw is None:
            continue
        if best_raw is None or (raw > best_raw if config.maximize else raw < best_raw):
            best_raw = raw
            best_table = table

    scale = 1 << config.n if METRICS[config.metric].per_size else 1
    return SearchResult(
        config=config,
        best_sbox=SBox(config.n, np.array(best_table, dtype=np.int64)),
        best_value=Fraction(best_raw, scale) if scale > 1 else best_raw,
        mean_value=Fraction(grand_total, config.tries * scale),
        generator_name=GENERATOR_NAME,
        elapsed=time.perf_counter() - t0,
    )


def save_search_result(result: SearchResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")


def load_search_result(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
