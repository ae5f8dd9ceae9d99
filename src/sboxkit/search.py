"""Seeded random permutation generation and metric-driven search.

Candidate streams come from numpy's PCG64 (period 2^128); the master seed
is split into one child stream per worker, but never more streams than
candidates: stream w is SeedSequence(seed, spawn_key=(w,)), the w-th child
SeedSequence.spawn would give, so a run is reproducible for a fixed
(seed, workers) pair without any coordination between workers.
`core.even_ranges` splits the streams over the processes of a pool; one
range runs in the caller.  Every candidate, in a search or from the public
generators, comes from one draw step, `_draw`, which draws a stack of
candidates at once: the same tables, in the same order, as one draw at a
time.  A search draws and scores its candidates in blocks of
`metrics.block_height(n)` (32 at n = 8), so the flip metrics cost one
flip-count step of byte-field sums per block; it keeps only an exact
integer sum of the raw values and the first best table, so its memory does
not grow with `tries` unless a value log is asked for.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _TOKENS, SBox, check_int, check_seed, check_width, even_ranges, read_only, width_of
from .metrics import METRICS, block_height, lookup_metric
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
        """Lengths from whitespace/comma separated tokens of ASCII digits, as `parse_sbox`
        reads base 10: no sign, underscore or other digit."""
        tokens = text.replace(",", " ").split()
        try:
            for tok in tokens:
                if not _TOKENS[10].fullmatch(tok):
                    raise ValueError(f"token {tok!r} is not a base-10 integer")
            return cls(tuple(map(int, tokens)))
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
    elapsed: float
    generator_name = GENERATOR_NAME  # a class constant, not a field

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
    return SBox(width_of(size, "size"), _draw(rng, size, None, 1)[0])


@functools.cache
def _ring_successors(lengths: tuple) -> np.ndarray:
    """Position i's successor in a pool cut into chunks of `lengths`: i + 1,
    except at a chunk's last position, which points back to the chunk's first."""
    lens = np.array(lengths)
    ends = np.cumsum(lens)
    nxt = np.arange(1, ends[-1] + 1)
    nxt[ends - 1] = ends - lens
    return read_only(nxt)


def _draw(rng: np.random.Generator, size: int, spec: CycleSpec | None, count: int) -> np.ndarray:
    """The one draw step: a (count, size) int64 stack of fresh uniform
    permutations of [0, size), or, when a spec is set, of permutations of
    exactly spec's cycle type.  Each row is shuffled in turn, so the stack holds
    the tables of `count` one-row draws, in order, and leaves rng in the same
    state.

    For a spec each row is a shuffled pool that supplies every cycle's elements
    in drawn order, and one gather through the cached successor index links
    each chunk into a ring: table[pool] = pool[successor]."""
    pools = np.empty((count, size), dtype=np.int64)
    pools[:] = np.arange(size)
    rng.permuted(pools, axis=1, out=pools)
    if spec is None:
        return pools
    tables = np.empty_like(pools)
    tables[np.arange(count)[:, np.newaxis], pools] = pools[:, _ring_successors(spec.lengths)]
    return tables


def random_permutation_with_cycles(rng: np.random.Generator, spec: CycleSpec) -> SBox:
    """Random permutation whose cycle type matches spec exactly."""
    return SBox(width_of(spec.total, "cycle length total"), _draw(rng, spec.total, spec, 1)[0])


def _run_streams(ws, streams, config, keep_values=False):
    """Evaluate the candidates of streams `ws` (a contiguous range of the
    run's `streams`), drawn and scored a block at a time; returns the exact
    sum of their raw values, the first best raw value, its table, and, when
    `keep_values`, every raw value in enumeration order (else None).  The tries
    are dealt out over all `streams`, the first ones taking one extra."""
    n = config.n
    metric = lookup_metric(config.metric)
    height = block_height(n)
    base, extra = divmod(config.tries, streams)
    total = 0
    best_raw = best_table = None
    values = [] if keep_values else None
    for w in ws:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(w,)))
        left = base + (w < extra)
        while left:
            tables = _draw(rng, 1 << n, config.cycle_spec, min(left, height))
            left -= len(tables)
            raws = metric.raw(tables, n)
            i = metric.best(raws)
            if best_table is None or metric.best((best_raw, raws[i])):  # strictly better
                best_raw, best_table = int(raws[i]), tables[i].copy()
            total += int(raws.sum())
            if keep_values:
                values += raws.tolist()
    return total, best_raw, best_table, values


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
    # one job per process over a contiguous, nonempty range of streams, so job order is stream order
    jobs = [(ws, streams, config, value_log is not None) for ws in even_ranges(streams, streams)]
    if len(jobs) == 1:
        outcomes = [_run_streams(*jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: only pooled runs pay for its import

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(_run_streams, *job) for job in jobs]
            outcomes = [f.result() for f in futures]

    metric = lookup_metric(config.metric)
    # jobs are in stream order, so the first job holding the best value holds the first best candidate
    _, best_raw, best_table, _ = outcomes[metric.best([outcome[1] for outcome in outcomes])]
    if value_log is not None:
        value_log.extend(v for *_, job_values in outcomes for v in job_values)
    return SearchResult(
        config=config,
        best_sbox=SBox(config.n, best_table),
        best_value=metric.value(best_raw, config.n),
        mean_value=metric.value(Fraction(sum(outcome[0] for outcome in outcomes), config.tries), config.n),
        elapsed=time.perf_counter() - t0,
    )
