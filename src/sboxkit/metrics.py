"""Difference, linear and avalanche-criterion metrics from three kernels.

DDT blocks: with v(x) = (x << n) | S(x), each pair x < y is counted once at
its code v(x) xor v(y) = ((x xor y) << n) | (S(x) xor S(y)), so the blocks
hold exactly half the DDT.  x runs in chunks of w consecutive values and each
block of w rows is one bincount of at most 2^15 pair codes into at most 2^16
bins (512 KB): one block up to n = 8, 64 rows at n = 10 and 16 at n = 12; only
`compute_ddt` holds the whole table.  Walsh blocks: columns of the LAT at
most 2^18 values (1 MB) at a time, the sign rows of each gathered from a cached
Hadamard matrix and transformed by two stacks of small float32 products, by
the Kronecker factorisation H_n = H_hi (x) H_lo; `_walsh_stats` reduces max
bias and NLs together, block by block, and only `compute_lat` holds the whole
table.  Flip histograms: per input bit i, the histogram over d of the x with
bit i clear and S(x) xor S(x xor 2^i) = d, exactly half of DDT row 2^i, all n
of every table in a stack of any height from one `_flip_hist` bincount; SAC
and BIC are each a float32 product of the histograms with cached 0/2 weights
of the difference bits and of their pairwise products.  Every float32 sum is
an integer of magnitude at most 2^n <= 4096 < 2^24 (a flip sum at most
2^(n-1) <= 2048, doubled), so float32 holds it exactly in any summation order.

Products and threads.  OpenBLAS runs a float32 product of at most 2^18
multiply-adds (m n k) on the calling thread; a larger one wakes worker threads
that spin on for about 0.1 s after it (one n = 12 BIC product, 12 x 4096 x 66,
cost 135 ms of CPU during a 300 ms sleep on a 2-CPU host).  So `_flip_sums`
contracts over d in chunks of at most 2^18, and the Walsh products are at most
2^18 but for one n = 11 stage of 2^19, which woke no worker.  `full_report`,
`compute_ddt`, `compute_lat` and `nonlinearity` split a kernel's blocks into
at most `_RANGES` = 2 contiguous ranges, one per CPU and thread of
`core.run_ranges`, and merge them exactly: the largest range DU with the
counts of the ranges that reach it, the largest range bias, the NL columns in
range order, or disjoint slices of one table.  XOR, take, bincount and matmul
release the GIL.  Kernels of one block (all up to n = 8) start no thread, and
the raw search kernels stay serial: a search runs on processes.

`METRICS` defines each of the five search metrics once: its raw integer kernel,
its direction, its scaling (DSAC and DBIC count units of 1/2^n, scaled to exact
Fractions) and its `MetricReport` field and CSV column.  `CSV_HEADER`,
`MetricReport.csv_row`, the SAC/BIC reports, `run_search` and the CLI read it.
A raw kernel scores a (B, 2^n) stack of candidate tables at once, one int64
value per row: the flip metrics in one histogram of the whole stack, the DDT
and Walsh metrics one row at a time.  `run_search` hands them blocks of
`block_height(n)` candidates, the most whose flip codes fit the DDT block's
budget of 2^15 pairs (2^16 bins, 512 KB): 32 at n = 8, 1 at n = 12.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable

import numpy as np

from . import anf
from .core import CycleStructure, SBox, cpu_count, cycle_decomposition, is_bijective, read_only, run_ranges
from .util import exact_decimal

_PAIR_BUDGET = 1 << 15  # pairs per DDT block: 2^16 bins, 512 KB
_BLAS_SERIAL = 1 << 18  # multiply-adds of a float32 product that OpenBLAS runs on the calling thread
_RANGES = 2  # threads per whole-S-box kernel call, the only count measured


@functools.cache
def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix h[i, j] = (-1)^(i.j), float32."""
    v = np.arange(1 << k)
    return read_only(1 - 2 * (np.bitwise_count(np.bitwise_and.outer(v, v)) & 1).astype(np.float32))


def _walsh_width(n: int) -> int:
    """k, with 2^k output masks per Walsh block: min(n, 8, 18 - n) keeps a block at
    2^18 values (1 MB), one block up to n = 8, 256 masks at n = 9, 10, 128 at
    n = 11 and 64 at n = 12."""
    return min(n, 8, 18 - n)


def _walsh_base(table: np.ndarray, n: int) -> np.ndarray:
    """base[x, j] = (-1)^(j.S(x)) = H_k[S(x) mod 2^k, j], the sign rows of Walsh
    block 0, float32: as H is symmetric, one row gather of H_k."""
    k = _walsh_width(n)
    return np.take(_hadamard(k), np.asarray(table, dtype=np.intp) & ((1 << k) - 1), axis=0)


def _walsh_blocks(table: np.ndarray, n: int, blocks: range | None = None, base: np.ndarray | None = None):
    """Yield (start, block), block[a, j] = W(a, start + j) = sum over x of
    (-1)^((start + j).S(x) xor a.x), 2^k output masks per block, exact in float32,
    for the block numbers c in `blocks`, every block by default; the caller may
    overwrite a block, a buffer the next one reuses.

    `base` is `_walsh_base(table, n)`, made here unless given, so ranges of blocks
    run side by side share one; with one block (k = n) it is dead after its lo
    stage and takes the output.  With b = c 2^k + j, (-1)^(b.S(x)) =
    H_k[S(x) mod 2^k, j] H_(n-k)[c, S(x) >> k], so block c multiplies the sign
    rows of block 0 by the column H_(n-k)[c, S(x) >> k].  With
    x = x_hi 2^lo + x_lo, H_n = H_hi (x) H_lo is applied down x as stacks of
    products: H_lo over each x_hi, then H_hi over each x_lo, each product at most
    2^18 multiply-adds but for the 2^19 of H_hi at n = 11.
    """
    size = 1 << n
    k = _walsh_width(n)
    lo = n // 2
    t = np.asarray(table, dtype=np.intp)
    base = _walsh_base(t, n) if base is None else base
    h_lo, h_hi, h_c = _hadamard(lo), _hadamard(n - lo), _hadamard(n - k)
    half = np.empty((size >> lo, 1 << lo, 1 << k), dtype=np.float32)  # (x_hi, a_lo, j)
    out = base.reshape(half.shape) if k == n else np.empty_like(half)
    block = out.reshape(size, 1 << k)
    for c in range(1 << (n - k)) if blocks is None else blocks:
        signs = base if c == 0 else np.multiply(base, h_c[c, t >> k][:, np.newaxis], out=block)
        np.matmul(h_lo, signs.reshape(half.shape), out=half)
        np.matmul(h_hi, half.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
        yield c << k, block


def _walsh_stats(blocks, n: int) -> tuple[int, np.ndarray]:
    """From (start, block) Walsh blocks, made absolute in place: the max bias,
    half the extreme over a != 0, b != 0, and per output mask b != 0 the
    component nonlinearity, 2^(n-1) less half the extreme over every a.  Every
    Walsh sum is even, so the halving is exact; the NLs, and any sum of them
    (< 2^(2n-1) <= 2^23), stay exact in float32."""
    top = 0
    columns = []
    for start, block in blocks:
        block = np.abs(block, out=block)
        rest = block[1:].max(axis=0)  # a != 0
        column = np.maximum(rest, block[0])
        if start == 0:
            rest, column = rest[1:], column[1:]
        top = max(top, int(rest.max()))
        columns.append(column)
    return top // 2, (1 << (n - 1)) - 0.5 * np.concatenate(columns)


@functools.cache
def _pair_index(n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(shifted, tri) for `_ddt_blocks` at width n and chunk width w: the
    x << n in the code dtype (uint16 up to n = 8, uint32 above), and the flat
    positions i w + j, i < j, of the upper triangle of a w x w table."""
    shifted = np.arange(1 << n, dtype=np.uint16 if n <= 8 else np.uint32) << n
    i = np.arange(w)
    return read_only(shifted), read_only(np.flatnonzero(np.less.outer(i, i)))


def _ddt_width(n: int) -> int:
    """w, the rows of a DDT block and the x of a chunk: min(2^n, _PAIR_BUDGET / 2^(n-1))."""
    return min(1 << n, _PAIR_BUDGET >> (n - 1))


def _ddt_chunks(table: np.ndarray, n: int) -> np.ndarray:
    """chunks[c, i] = v(c w + i), v(x) = (x << n) | S(x) in the code dtype, one
    chunk of w consecutive x per DDT block."""
    w = _ddt_width(n)
    shifted = _pair_index(n, w)[0]
    return read_only((shifted | np.asarray(table).astype(shifted.dtype)).reshape(-1, w))


def _ddt_blocks(table: np.ndarray, n: int, blocks: range | None = None, chunks: np.ndarray | None = None):
    """Yield (start, block), block[i, b] = DDT[start + i, b] / 2, for the block
    numbers s in `blocks`, every block by default: one bincount of at most
    2^(n-1) w pair codes into w 2^n bins per block of w rows.

    With v(x) = (x << n) | S(x), v(x) xor v(y) is the (a, b) code of the pair
    {x, y}, a = x xor y.  Each pair is counted once, from x < y, so a block is
    exactly half the DDT for any map, and row 0 reads 2^(n-1).  x runs in
    `chunks` of w = `_ddt_width(n)` consecutive values, made here unless given,
    so ranges of blocks run side by side share one; a < w exactly when x and y
    share a chunk: block 0 is the upper triangle of each chunk's w x w XOR
    table.  Block s >= 1 is the full XOR of each chunk c, c < c xor s, with
    chunk c xor s, less (s w) << n.  A block holds at most 2^16 bins (512 KB):
    one block up to n = 8, 64 rows at n = 10 and 16 at n = 12.
    """
    size = 1 << n
    chunks = _ddt_chunks(table, n) if chunks is None else chunks
    w = chunks.shape[1]
    blocks = range(len(chunks)) if blocks is None else blocks
    codes = np.empty((len(chunks) >> (blocks[0] > 0), w, w), dtype=chunks.dtype)  # half unless block 0 runs
    for s in blocks:
        if s == 0:
            np.bitwise_xor(chunks[:, :, np.newaxis], chunks[:, np.newaxis, :], out=codes)
            tri = _pair_index(n, w)[1]
            block = np.bincount(np.take(codes.reshape(len(chunks), -1), tri, axis=1).ravel(), minlength=w << n)
            block[0] = size >> 1
            codes = codes[: len(chunks) >> 1]
        else:
            h = s.bit_length() - 1
            split = chunks.reshape(-1, 2, 1 << h, w)  # bit h of the chunk number clear / set
            low = split[:, 0] ^ ((s * w) << n)
            high = split[:, 1][:, np.arange(1 << h) ^ (s ^ 1 << h)]  # chunk c xor s beside chunk c
            np.bitwise_xor(low[..., np.newaxis], high[..., np.newaxis, :], out=codes.reshape(low.shape + (w,)))
            block = np.bincount(codes.ravel(), minlength=w << n)
        yield s * w, block.reshape(w, size)


def _du_stats(blocks, with_count: bool = True) -> tuple[int, int]:
    """DU and how many entries reach it (0 unless with_count), from (start, rows)
    half-count DDT blocks, row 0 excluded."""
    top = count = 0
    for start, block in blocks:
        rows = block[1:] if start == 0 else block
        block_top = int(rows.max())
        if block_top > top:
            top, count = block_top, 0
        if with_count and block_top == top:
            count += int(np.count_nonzero(rows == top))
    return 2 * top, count


def _split(count: int, kernel, reduce) -> list:
    """[reduce(kernel(blocks))] for each range `blocks` of the block numbers
    range(count), in range order, on at most _RANGES threads and no more than
    there are CPUs or blocks.  A kernel of one block runs in the caller without
    `run_ranges`: its set-up and the CPU count made n = 7 and 8 reports 6% slower.
    A range runs to its end even when another raises, so that no
    reduction sees a cut range; at n = 12 a range takes tens of milliseconds."""
    if count == 1:
        return [reduce(kernel(range(1)))]
    return run_ranges(count, min(_RANGES, cpu_count(), count), lambda lo, hi, _: reduce(kernel(range(lo, hi))))


def _ddt_ranges(table: np.ndarray, n: int, reduce) -> list:
    """`_split` of the DDT blocks, the ranges sharing one `_ddt_chunks`."""
    chunks = _ddt_chunks(table, n)
    return _split(len(chunks), lambda blocks: _ddt_blocks(table, n, blocks, chunks), reduce)


def _walsh_ranges(table: np.ndarray, n: int, reduce) -> list:
    """`_split` of the Walsh blocks, the ranges sharing one `_walsh_base`."""
    base = _walsh_base(table, n)
    return _split(1 << (n - _walsh_width(n)), lambda blocks: _walsh_blocks(table, n, blocks, base), reduce)


def _du(table: np.ndarray, n: int) -> tuple[int, int]:
    """DU and how many entries reach it: the largest range DU and the sum of the
    counts of the ranges that reach it."""
    parts = _ddt_ranges(table, n, _du_stats)
    du = max(d for d, _ in parts)
    return du, sum(c for d, c in parts if d == du)


def _walsh(table: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """`_walsh_stats` of the whole table: the largest range bias, and the ranges'
    NL columns in range order."""
    parts = _walsh_ranges(table, n, lambda blocks: _walsh_stats(blocks, n))
    return max(b for b, _ in parts), np.concatenate([nls for _, nls in parts])


@functools.cache
def _flip_index(n: int) -> tuple:
    """(ends, sac_weights, bic_weights, pairs) for `_flip_hist` and its readers
    at width n: ends[0, i] the 2^(n-1) x with bit i clear and ends[1, i] those
    x xor 2^i, shape (2, n, 2^(n-1)); per difference d,
    sac_weights[d, a] = 2 * bit a of d and
    bic_weights[d, p] = 2 * (bits j and k of d) for the p-th output-bit pair
    j < k, float32; and the pairs in row-major order (0, 1), (0, 2), ...,
    (n - 2, n - 1)."""
    i = np.arange(n)[:, np.newaxis]
    y = np.arange(1 << (n - 1))
    low = (y >> i << (i + 1)) | (y & ((1 << i) - 1))  # y with a 0 inserted at bit i
    bits = 2 * (np.arange(1 << n)[:, np.newaxis] >> np.arange(n) & 1).astype(np.float32)
    j, k = np.triu_indices(n, 1)
    return (read_only(np.stack([low, low | 1 << i])), read_only(bits), read_only(bits[:, j] * bits[:, k] / 2),
            tuple(zip(j.tolist(), k.tolist())))


def block_height(n: int) -> int:
    """Candidates per search block at width n: the most B with B n 2^(n-1) flip
    pairs within `_PAIR_BUDGET`, so `_flip_hist` bins at most 2^16 codes (512 KB)."""
    return max(1, _PAIR_BUDGET // (n << (n - 1)))


def _flip_hist(tables: np.ndarray, n: int) -> np.ndarray:
    """hist[b, i, d] = #{x with bit i clear : S_b(x) xor S_b(x xor 2^i) = d} for
    the rows S_b of a (B, 2^n) stack, exactly half of row 2^i of S_b's DDT, int64,
    shape (B, n, 2^n): one bincount of the codes ((b n + i) << n) | d.

    The pair ends are gathered as uint16 (uint32 above n = 8) with the tables
    along the last axis, and the row number b n + i is shifted whole: OR-ing
    b n 2^n into (i << n) | d would collide unless n is a power of two.  The
    codes are intp, which bincount reads without a copy, and the gathers are
    freed before the bins are made.  A 32-table block at n = 8 then holds at
    most 800 KB at once, and the allocator reuses its pages; gathering both
    ends at once into int32 codes held 1 MB and faulted in about 240 fresh
    pages on every block."""
    stack = np.asarray(tables).astype(np.uint16 if n <= 8 else np.uint32)
    count = len(stack)
    rows = np.arange(count * n).reshape(count, n).T[:, np.newaxis] << n  # rows[i, 0, b] = (b n + i) << n
    pairs = np.take(stack.T, _flip_index(n)[0], axis=0)  # pairs[e, i, x, b] = S_b(ends[e, i, x])
    diff = np.bitwise_xor(pairs[0], pairs[1], out=pairs[0])
    codes = np.bitwise_or(diff, rows)
    del pairs, diff
    return np.bincount(codes.ravel(), minlength=count * n << n).reshape(count, n, 1 << n)


def _flip_sums(hist: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """hist @ weights as int64, for `_flip_hist` of one table or a stack and
    weights of `_flip_index`: contracted over d in chunks, one stacked product of
    at most _BLAS_SERIAL multiply-adds per chunk, summed in float32, exact as every
    sum is an integer of at most 2^n."""
    n, size = hist.shape[-2:]
    width = min(size, 1 << (_BLAS_SERIAL // (n * weights.shape[1])).bit_length() - 1)
    parts = hist.astype(np.float32).reshape(*hist.shape[:-1], size // width, width).swapaxes(-3, -2)
    return (parts @ weights.reshape(size // width, width, -1)).sum(axis=-3).astype(np.int64)


def _sac_deviations(hist: np.ndarray, n: int) -> np.ndarray:
    """Raw |flips of output bit a under input bit i - 2^(n-1)| from `_flip_hist`,
    for one table or a stack: the flips are the doubled hist @ bits, each <= 2^n."""
    return np.abs(_flip_sums(hist, _flip_index(n)[1]) - (1 << (n - 1)))


def _bic_deviations(hist: np.ndarray, n: int):
    """Raw |2^n/4 - joint flip count| for every input bit and output pair j<k,
    from `_flip_hist`, for one table or a stack: the joint counts
    #{x : bits j and k of the difference are both 1} are the doubled
    hist @ pair products."""
    weights, pairs = _flip_index(n)[2:]
    return np.abs((1 << n) // 4 - _flip_sums(hist, weights)), pairs


@dataclass(frozen=True)
class Metric:
    """`raw(tables, n)` is the integer kernel search compares, one int64 value
    per row of a (B, 2^n) stack of tables; `field` is the `MetricReport`
    attribute holding that raw value; `column` its CSV heading."""

    raw: Callable[[np.ndarray, int], np.ndarray]
    column: str
    field: str
    maximize: bool = False
    per_size: bool = False  # raw counts units of 1/2^n

    def value(self, raw, n: int):
        """The reported value of `raw` (an int or a Fraction) at width n."""
        return Fraction(raw, 1 << n) if self.per_size else raw

    def best(self, values) -> int:
        """The index of the best of `values`, the first of equal ones winning."""
        return int((np.argmax if self.maximize else np.argmin)(values))


def _per_row(kernel):
    """A stack kernel from a one-table kernel: its value for each row, int64."""
    return lambda tables, n: np.array([kernel(t, n) for t in tables], dtype=np.int64)


# in CSV column order
METRICS = {
    "du": Metric(_per_row(lambda t, n: _du_stats(_ddt_blocks(t, n), with_count=False)[0]), "DU", "du"),
    "max_bias": Metric(_per_row(lambda t, n: _walsh_stats(_walsh_blocks(t, n), n)[0]), "MAX BIAS", "max_bias"),
    "dsac": Metric(lambda t, n: _sac_deviations(_flip_hist(t, n), n).max(axis=(1, 2)), "DSAC", "dsac.max_raw",
                   per_size=True),
    "dbic": Metric(lambda t, n: _bic_deviations(_flip_hist(t, n), n)[0].max(axis=(1, 2)), "DBIC",
                   "dbic.max_raw", per_size=True),
    "nl": Metric(_per_row(lambda t, n: _walsh_stats(_walsh_blocks(t, n), n)[1].min()), "NL", "nl", maximize=True),
}

CSV_HEADER = ",".join(["name", *(m.column for m in METRICS.values())])


def lookup_metric(name: str) -> Metric:
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; choose from {tuple(METRICS)}") from None


def raw_metric_value(table: np.ndarray, n: int, metric: str) -> int:
    """The raw value of one table, checked as SBox checks it: row 0 of the metric's kernel on a
    one-row stack."""
    s = SBox(n, table)
    return int(lookup_metric(metric).raw(s.table[np.newaxis], s.n)[0])


@dataclass(frozen=True, eq=False)
class DDT:
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", read_only(self.counts))


@dataclass(frozen=True, eq=False)
class LAT:
    sums: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sums", read_only(self.sums))


@dataclass(frozen=True)
class SacReport:
    """Per (input bit, output bit) deviations from the ideal half rate."""

    deviations: np.ndarray  # raw ||A_ij| - 2^(n-1)|, shape (n, n)
    max_raw: int
    max_norm: Fraction
    mean_norm: Fraction


@dataclass(frozen=True)
class BicReport:
    deviations: np.ndarray  # raw counts, shape (n, n*(n-1)/2)
    pairs: tuple
    max_raw: int
    max_norm: Fraction


@dataclass(frozen=True)
class NonlinearityStats:
    nl: int  # the minimum over components
    component_max: int
    component_avg: Fraction


@dataclass(frozen=True)
class MetricReport:
    """`bijective`, `ai_scope` and the JSON's `walsh_max` and `nl_component_min` are derived, not stored."""

    n: int
    du: int
    du_count: int
    max_bias: int
    nl: int
    nl_component_max: int
    nl_component_avg: Fraction
    dsac: SacReport
    dbic: BicReport
    cycles: CycleStructure | None
    degree: int | None = None
    ai: int | None = None

    @property
    def bijective(self) -> bool:
        return self.cycles is not None  # full_report decomposes exactly the permutations

    @property
    def ai_scope(self) -> str | None:
        return None if self.ai is None else "coordinates"

    def to_dict(self) -> dict:
        """Key-ordered plain dict; rationals as exact decimal strings."""
        out = {
            "n": self.n,
            "bijective": self.bijective,
            "du": self.du,
            "du_count": self.du_count,
            "max_bias": self.max_bias,
            "walsh_max": 2 * self.max_bias,
            "nl": self.nl,
            "nl_component_min": self.nl,
            "nl_component_max": self.nl_component_max,
            "nl_component_avg": exact_decimal(self.nl_component_avg),
            "dsac_max_raw": self.dsac.max_raw,
            "dsac_max": exact_decimal(self.dsac.max_norm),
            "dsac_mean": exact_decimal(self.dsac.mean_norm),
            "dbic_max_raw": self.dbic.max_raw,
            "dbic_max": exact_decimal(self.dbic.max_norm),
        }
        if self.cycles is not None:
            out["cycle_lengths"] = list(self.cycles.lengths)
            out["fixed_points"] = self.cycles.fixed_points
            out["opposite_fixed_points"] = self.cycles.opposite_fixed_points
        if self.degree is not None:
            out["degree"] = self.degree
        if self.ai is not None:
            out["ai"] = self.ai
            out["ai_scope"] = self.ai_scope
        return out

    def to_json(self, name: str | None = None) -> str:
        body = {"name": name, **self.to_dict()} if name else self.to_dict()
        return json.dumps(body, indent=2) + "\n"

    def csv_row(self, name: str) -> str:
        """One row under `CSV_HEADER`: each metric's value read from its field."""
        values = (m.value(attrgetter(m.field)(self), self.n) for m in METRICS.values())
        return ",".join([name, *map(exact_decimal, values)])


def compute_ddt(s: SBox) -> DDT:
    """counts[a][b] = #{x : S(x) xor S(x xor a) = b}, twice the half counts.

    Up to n = 8 the one block is the whole table, doubled in place; above, each
    range's doubled blocks fill their rows of one new table."""
    if _ddt_width(s.n) == s.size:
        ((_, counts),) = _ddt_blocks(s.table, s.n)
        return DDT(np.multiply(counts, 2, out=counts))
    counts = np.empty((s.size, s.size), dtype=np.int64)

    def fill(blocks):
        for start, block in blocks:
            np.multiply(block, 2, out=counts[start : start + len(block)])

    _ddt_ranges(s.table, s.n, fill)
    return DDT(counts)


def differential_uniformity(d: DDT) -> int:
    """Largest count over nonzero input differences (row 0 excluded)."""
    return _du_stats([(0, d.counts)])[0] // 2  # full counts, which _du_stats would double


def du_max_count(d: DDT) -> int:
    return _du_stats([(0, d.counts)])[1]


def compute_lat(s: SBox) -> LAT:
    """sums[a][b] = sum over x of (-1)^(b.S(x) xor a.x)."""
    sums = np.empty((s.size, s.size), dtype=np.int64)

    def fill(blocks):
        for start, block in blocks:
            sums[:, start : start + block.shape[1]] = block

    _walsh_ranges(s.table, s.n, fill)
    return LAT(sums)


def max_bias(l: LAT) -> int:
    """Half the extreme |Walsh sum| outside row/column zero."""
    return _walsh_stats([(0, l.sums.copy())], len(l.sums).bit_length() - 1)[0]


def _nl_stats(comps: np.ndarray) -> NonlinearityStats:
    nl = int(comps.min())  # the minimum over components is the S-box's NL
    return NonlinearityStats(nl, int(comps.max()), Fraction(int(comps.sum()), comps.size))


def nonlinearity(s: SBox) -> NonlinearityStats:
    """Minimum component nonlinearity, plus min/max/avg over all 2^n - 1
    nonzero output masks."""
    return _nl_stats(_walsh(s.table, s.n)[1])


def _sac_report(hist: np.ndarray, n: int) -> SacReport:
    devs = _sac_deviations(hist, n)
    mx = int(devs.max())
    scale = METRICS["dsac"].value
    return SacReport(devs, mx, scale(mx, n), scale(Fraction(int(devs.sum()), devs.size), n))


def _bic_report(hist: np.ndarray, n: int) -> BicReport:
    devs, pairs = _bic_deviations(hist, n)
    mx = int(devs.max())
    return BicReport(devs, pairs, mx, METRICS["dbic"].value(mx, n))


def dsac(s: SBox) -> SacReport:
    return _sac_report(_flip_hist(s.table[np.newaxis], s.n)[0], s.n)


def dbic(s: SBox) -> BicReport:
    return _bic_report(_flip_hist(s.table[np.newaxis], s.n)[0], s.n)


def full_report(s: SBox, with_degree: bool = False, with_ai: bool = False) -> MetricReport:
    """Everything at once, one pass of each kernel: DDT, Walsh and flip histograms.

    Degree and algebraic immunity are opt-in: they cost far more than the
    table metrics and are never wanted in bulk search loops.
    """
    du, du_count = _du(s.table, s.n)
    bias, nls = _walsh(s.table, s.n)
    nl_stats = _nl_stats(nls)
    hist = _flip_hist(s.table[np.newaxis], s.n)[0]
    return MetricReport(
        n=s.n,
        du=du,
        du_count=du_count,
        max_bias=bias,
        nl=nl_stats.nl,
        nl_component_max=nl_stats.component_max,
        nl_component_avg=nl_stats.component_avg,
        dsac=_sac_report(hist, s.n),
        dbic=_bic_report(hist, s.n),
        cycles=cycle_decomposition(s) if is_bijective(s) else None,
        degree=anf.algebraic_degree(s) if with_degree else None,
        ai=anf.sbox_algebraic_immunity(s) if with_ai else None,
    )
