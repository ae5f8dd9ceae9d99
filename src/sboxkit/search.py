"""Seeded random permutation generation and metric-driven search.

Candidate streams come from numpy's PCG64 (period 2^128); the master seed
is split into one child stream per worker, but never more streams than
candidates: stream w is SeedSequence(seed, spawn_key=(w,)), the w-th child
SeedSequence.spawn would give, so a run is reproducible for a fixed
(seed, workers) pair without any coordination between workers.  Each
process of a pool no larger than the CPU count runs one contiguous range of
streams.  Every candidate, in a search or from the public generators, comes
from one draw step, `_draw`.  Means are accumulated as exact integer sums.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SBox, check_int, check_seed, check_width, cpu_count, width_of
from .metrics import METRICS, lookup_metric
from .util import exact_decimal

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class CycleSpec:
    """A requested multiset of cycle lengths."""

    lengths: tuple

    def __post_init__(self):
        lens = tuple(check_int(v, "cycle lengths must be positive integers", 1) for v in self.lengths)
        if not lens:
            raise ValueError("cycle lengths must be positive integers, got ()")
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
        object.__setattr__(self, "n", check_width(self.n))
        lookup_metric(self.metric)
        object.__setattr__(self, "tries", check_int(self.tries, "tries must be an integer >= 1", 1))
        object.__setattr__(self, "workers", check_int(self.workers, "workers must be an integer >= 1", 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
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
    return SBox(width_of(size, "size"), _draw(rng, size, None))


def _ring_table(rng: np.random.Generator, spec: CycleSpec) -> np.ndarray:
    """One shuffled pool supplies every cycle's elements in drawn order, and
    one gather links each chunk into a ring: position i's successor is i + 1,
    except at a chunk's last position, which points back to the chunk's first.
    table[pool] = pool[successor] is then the requested decomposition."""
    pool = rng.permutation(spec.total)
    lengths = np.array(spec.lengths)
    ends = np.cumsum(lengths)
    nxt = np.arange(1, spec.total + 1)
    nxt[ends - 1] = ends - lengths
    table = np.empty(spec.total, dtype=np.int64)
    table[pool] = pool[nxt]
    return table


def _draw(rng: np.random.Generator, size: int, spec: CycleSpec | None) -> np.ndarray:
    """The one draw step: a fresh uniform permutation of [0, size), or one of
    exactly spec's cycle type when a spec is set."""
    return rng.permutation(size) if spec is None else _ring_table(rng, spec)


def random_permutation_with_cycles(rng: np.random.Generator, spec: CycleSpec) -> SBox:
    """Random permutation whose cycle type matches spec exactly."""
    return SBox(width_of(spec.total, "cycle length total"), _draw(rng, spec.total, spec))


def _run_streams(ws, streams, config):
    """Evaluate the candidates of streams `ws` (a contiguous range of the
    run's `streams`); returns their raw values in enumeration order and the
    table of the first best one.  The tries are dealt out over all
    `streams`, the first ones taking one extra."""
    n = config.n
    metric = lookup_metric(config.metric)
    base, extra = divmod(config.tries, streams)
    values = []
    best_raw = best_table = None
    for w in ws:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(w,)))
        for _ in range(base + (w < extra)):
            table = _draw(rng, 1 << n, config.cycle_spec)
            raw = metric.raw(table, n)
            if not values or metric.best((best_raw, raw)) != best_raw:  # strictly better
                best_raw, best_table = raw, table
            values.append(raw)
    return values, best_table


def run_search(config: SearchConfig, value_log: list | None = None) -> SearchResult:
    """Algorithm: generate `tries` candidates; the best is the metric's best
    over all their raw values and the mean their exact sum over `tries`.

    Ties keep the earlier candidate in (worker index, iteration) order, so
    results are deterministic for a fixed (seed, workers) pair.  When
    `value_log` is a list it receives every candidate's raw value in
    enumeration order.
    """
    t0 = time.perf_counter()
    # streams past `tries` would get no candidates; each keeps its index as spawn key
    streams = min(config.workers, config.tries)
    processes = min(streams, cpu_count())

    # one job per process over a contiguous, nonempty range of streams, so job order is stream order
    bounds = [streams * k // processes for k in range(processes + 1)]
    jobs = [(range(lo, hi), streams, config) for lo, hi in zip(bounds, bounds[1:])]
    if processes == 1:
        outcomes = [_run_streams(*job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: only pooled runs pay for its import

        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(_run_streams, *job) for job in jobs]
            outcomes = [f.result() for f in futures]

    metric = lookup_metric(config.metric)
    values = [v for job_values, _ in outcomes for v in job_values]
    best_raw = metric.best(values)
    best_table = next(table for job_values, table in outcomes if best_raw in job_values)
    if value_log is not None:
        value_log.extend(values)
    return SearchResult(
        config=config,
        best_sbox=SBox(config.n, best_table),
        best_value=metric.value(best_raw, config.n),
        mean_value=metric.value(Fraction(sum(values), config.tries), config.n),
        generator_name=GENERATOR_NAME,
        elapsed=time.perf_counter() - t0,
    )
