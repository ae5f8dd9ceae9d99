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
table.  Flip counts: per input bit i, over the x with bit i clear, how many
differences d = S(x) xor S(x xor 2^i) have output bit a set (SAC) or output
bits j and k both set (BIC), each at most 2^(n-1), for every table of a stack
of any height in one `_flip_counts` step at every width: each d maps through a
cached table of uint64 words holding one byte field per output bit or bit pair,
and the words are summed over runs of at most 255 x, the most ones a byte holds,
no field carrying into the next; each run's fields are added into int64
totals, and up to n = 8 all 2^(n-1) <= 128 x are one run.

Products and threads.  OpenBLAS runs a float32 product of at most 2^18
multiply-adds (m n k) on the calling thread; a larger one wakes worker threads
that spin on for about 0.1 s after it (one n = 12 product of 12 x 4096 x 66
cost 135 ms of CPU during a 300 ms sleep on a 2-CPU host).  So the Walsh
products are at most 2^18 but for one n = 11 stage of 2^19, which woke no
worker.  `full_report`, `compute_ddt`, `compute_lat` and `nonlinearity` split a
kernel's block numbers by `core.run_ranges` with a cap of `_RANGES` = 2, and
merge the ranges exactly: the largest range DU with the counts of the ranges
that reach it, the largest range bias, the NL columns in range order, or
disjoint slices of one table.  Each range makes its own DDT chunks and Walsh
sign rows.  XOR, take, bincount and matmul release the GIL.  Kernels of one
block (all up to n = 8) run in the caller, and the raw search kernels stay
serial: a search runs on processes.

`METRICS` defines each of the five search metrics once: its raw integer kernel,
its direction, its scaling (DSAC and DBIC count units of 1/2^n, scaled to exact
Fractions) and its `MetricReport` field and CSV column.  `CSV_HEADER`,
`MetricReport.csv_row`, the SAC/BIC reports, `run_search` and the CLI read it.
A raw kernel scores a (B, 2^n) stack of candidate tables at once, one int64
value per row: the flip metrics in one `_flip_counts` step for the whole
stack, the DDT and Walsh metrics one row at a time.  `run_search` hands them
blocks of `block_height(n)` candidates, the most whose flip pairs fit the DDT
block's budget of 2^15 pairs: 32 at n = 8, 1 at n = 12.
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
from .core import CycleStructure, SBox, csv_row, cycle_decomposition, exact_decimal, is_bijective, read_only, run_ranges

_PAIR_BUDGET = 1 << 15  # pairs per DDT block: 2^16 bins, 512 KB
_RANGES = 2  # threads per whole-S-box kernel call, the only count measured
_FIELD_BYTES = 1 << 18  # bytes of words and their indices one `_flip_counts` gather holds
_RUN = 255  # x per byte-field read-back of `_flip_counts`, the most ones a byte holds
_SAC, _BIC = 0, 1  # the kinds of flip count, per output bit and per output-bit pair


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


def _walsh_blocks(table: np.ndarray, n: int, blocks: range | None = None):
    """Yield (start, block), block[a, j] = W(a, start + j) = sum over x of
    (-1)^((start + j).S(x) xor a.x), 2^k output masks per block, exact in float32,
    for the block numbers c in `blocks`, every block by default; the caller may
    overwrite a block, a buffer the next one reuses.

    base[x, j] = (-1)^(j.S(x)) = H_k[S(x) mod 2^k, j], the sign rows of block 0,
    are one row gather of H_k, as H is symmetric; with one block (k = n) they are
    dead after its lo stage and take the output.  With b = c 2^k + j, (-1)^(b.S(x)) =
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
    base = np.take(_hadamard(k), t & ((1 << k) - 1), axis=0)
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


def _ddt_blocks(table: np.ndarray, n: int, blocks: range | None = None):
    """Yield (start, block), block[i, b] = DDT[start + i, b] / 2, for the block
    numbers s in `blocks`, every block by default: one bincount of at most
    2^(n-1) w pair codes into w 2^n bins per block of w rows.

    With v(x) = (x << n) | S(x), v(x) xor v(y) is the (a, b) code of the pair
    {x, y}, a = x xor y.  Each pair is counted once, from x < y, so a block is
    exactly half the DDT for any map, and row 0 reads 2^(n-1).  x runs in
    chunks of w = `_ddt_width(n)` consecutive values, chunks[c, i] = v(c w + i)
    in the code dtype; a < w exactly when x and y share a chunk: block 0 is the
    upper triangle of each chunk's w x w XOR table.  Block s >= 1 is the full
    XOR of each chunk c, c < c xor s, with chunk c xor s, less (s w) << n.  A
    block holds at most 2^16 bins (512 KB): one block up to n = 8, 64 rows at
    n = 10 and 16 at n = 12.
    """
    size = 1 << n
    w = _ddt_width(n)
    shifted, tri = _pair_index(n, w)
    chunks = (shifted | np.asarray(table).astype(shifted.dtype)).reshape(-1, w)
    blocks = range(len(chunks)) if blocks is None else blocks
    codes = np.empty((len(chunks) >> (blocks[0] > 0), w, w), dtype=chunks.dtype)  # half unless block 0 runs
    for s in blocks:
        if s == 0:
            np.bitwise_xor(chunks[:, :, np.newaxis], chunks[:, np.newaxis, :], out=codes)
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


def _ddt_ranges(table: np.ndarray, n: int, reduce) -> list:
    """[reduce(DDT blocks)] for each `run_ranges` range of block numbers; a range runs to its
    end even when another raises, so no reduction sees a cut one (at n = 12 it takes ~10 ms)."""
    count = (1 << n) // _ddt_width(n)
    return run_ranges(count, _RANGES, lambda lo, hi, _: reduce(_ddt_blocks(table, n, range(lo, hi))))


def _walsh_ranges(table: np.ndarray, n: int, reduce) -> list:
    """`_ddt_ranges` for the Walsh blocks."""
    count = 1 << (n - _walsh_width(n))
    return run_ranges(count, _RANGES, lambda lo, hi, _: reduce(_walsh_blocks(table, n, range(lo, hi))))


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
    """(ends, sac_words, bic_words, pairs) for `_flip_counts` at width n: the
    pair ends with x leading, ends[0, x, i] the x-th of the 2^(n-1) inputs with
    bit i clear and ends[1, x, i] = ends[0, x, i] xor 2^i, shape (2, 2^(n-1), n);
    per difference d, little-endian uint64 words whose byte f is bit f of d
    (SAC) or 1 when bits j and k of d are both set for the f-th output-bit pair
    j < k (BIC), shapes (2^n, ceil(n/8)) and (2^n, ceil(n(n-1)/16)), unused
    bytes 0; and the pairs in row-major order (0, 1), (0, 2), ..., (n - 2, n - 1)."""
    i = np.arange(n)[:, np.newaxis]
    y = np.arange(1 << (n - 1))
    low = (y >> i << (i + 1)) | (y & ((1 << i) - 1))  # y with a 0 inserted at bit i
    bits = (np.arange(1 << n)[:, np.newaxis] >> np.arange(n) & 1).astype(np.uint8)
    j, k = np.triu_indices(n, 1)
    words = []
    for flags in (bits, bits[:, j] & bits[:, k]):
        fields = np.zeros((1 << n, -(-flags.shape[1] // 8) * 8), dtype=np.uint8)
        fields[:, : flags.shape[1]] = flags
        words.append(fields.view("<u8"))
    ends = np.ascontiguousarray(np.stack([low, low | 1 << i]).transpose(0, 2, 1))
    return (*map(read_only, (ends, *words)), tuple(zip(j.tolist(), k.tolist())))


def block_height(n: int) -> int:
    """Candidates per search block at width n: the most B with B n 2^(n-1) flip
    pairs within `_PAIR_BUDGET`, so one `_flip_counts` step reads at most 2^15
    differences, as one DDT block bins at most 2^15 pair codes."""
    return max(1, _PAIR_BUDGET // (n << (n - 1)))


def _flip_counts(tables: np.ndarray, n: int, kinds=(_SAC, _BIC)) -> list[np.ndarray]:
    """For each kind in `kinds`, the doubled flip counts of the rows S_b of a
    (B, 2^n) stack, int64, shape (B, n, m): for _SAC and the m = n output bits a,
    2 #{x with bit i clear : bit a of S_b(x) xor S_b(x xor 2^i) is 1}, and for
    _BIC and the m = n(n-1)/2 output-bit pairs j < k, 2 #{... : bits j and k both 1}.

    The differences d[x, i, b] of the pair ends, gathered from the stack in the
    narrowest unsigned type that holds 2^n - 1, map through `_flip_index` words,
    which are summed over x into uint64, no byte field carrying into the next:
    a run of at most _RUN x, the most ones a byte holds, is read back a byte
    field each and added into an int64 total.  Up to n = 8 all 2^(n-1) <= 128 x
    are one run.

    x leads, so each sum adds rows of all n B words of a difference row, 8 n B
    bytes and more: with the input bits leading, a one-table BIC added rows of 4
    words and took 35 against 19 us.  A gather takes a run of x whose words and
    the intp copy of their indices that take makes hold at most _FIELD_BYTES (a
    32-table block at n = 8 in two gathers for SAC, six for BIC): with 256 KB of
    each, glibc trimmed the heap and faulted 96 pages back in on every SAC block
    of a fresh process.  Every d < 2^n, so the gather is clipped, not
    bounds-checked."""
    ends, *words, pairs = _flip_index(n)
    stack = np.asarray(tables).astype(np.min_scalar_type((1 << n) - 1))
    values = np.take(stack.T, ends, axis=0)  # values[e, x, i, b] = S_b(ends[e, x, i])
    diff = np.bitwise_xor(values[0], values[1], out=values[0])
    out = []
    for kind in kinds:
        table = words[kind]
        step = max(1, _FIELD_BYTES // (diff[0].size * (8 + table[0].nbytes)))  # rows of x: words, intp indices
        fields = []  # fields[r][i, b, f], per run r
        for run in (diff[lo : lo + _RUN] for lo in range(0, len(diff), _RUN)):
            sums = sum(np.sum(np.take(table, run[lo : lo + step], axis=0, mode="clip"), axis=0, dtype=np.uint64)
                       for lo in range(0, len(run), step))  # sums[i, b, word]
            fields.append(sums.astype("<u8", copy=False).view(np.uint8)[..., : (n, len(pairs))[kind]])
        out.append(2 * sum(fields[1:], fields[0].astype(np.int64)).transpose(1, 0, 2))
    return out


def _sac_deviations(flips: np.ndarray, n: int) -> np.ndarray:
    """Raw |flips of output bit a under input bit i - 2^(n-1)| from the _SAC
    `_flip_counts`, each <= 2^n, for one table or a stack."""
    return np.abs(flips - (1 << (n - 1)))


def _bic_deviations(joint: np.ndarray, n: int):
    """Raw |2^n/4 - joint flip count| for every input bit and output pair j<k,
    from the _BIC `_flip_counts`, for one table or a stack, and the pairs."""
    return np.abs((1 << n) // 4 - joint), _flip_index(n)[3]


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
    "dsac": Metric(lambda t, n: _sac_deviations(*_flip_counts(t, n, (_SAC,)), n).max(axis=(1, 2)), "DSAC",
                   "dsac.max_raw", per_size=True),
    "dbic": Metric(lambda t, n: _bic_deviations(*_flip_counts(t, n, (_BIC,)), n)[0].max(axis=(1, 2)), "DBIC",
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
        return csv_row(name, values)


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


def _sac_report(flips: np.ndarray, n: int) -> SacReport:
    devs = _sac_deviations(flips, n)
    mx = int(devs.max())
    scale = METRICS["dsac"].value
    return SacReport(devs, mx, scale(mx, n), scale(Fraction(int(devs.sum()), devs.size), n))


def _bic_report(joint: np.ndarray, n: int) -> BicReport:
    devs, pairs = _bic_deviations(joint, n)
    mx = int(devs.max())
    return BicReport(devs, pairs, mx, METRICS["dbic"].value(mx, n))


def dsac(s: SBox) -> SacReport:
    (flips,) = _flip_counts(s.table[np.newaxis], s.n, (_SAC,))
    return _sac_report(flips[0], s.n)


def dbic(s: SBox) -> BicReport:
    (joint,) = _flip_counts(s.table[np.newaxis], s.n, (_BIC,))
    return _bic_report(joint[0], s.n)


def full_report(s: SBox, with_degree: bool = False, with_ai: bool = False) -> MetricReport:
    """Everything at once, one pass of each kernel: DDT, Walsh and flip counts.

    Degree and algebraic immunity are opt-in: they cost far more than the
    table metrics and are never wanted in bulk search loops.
    """
    du, du_count = _du(s.table, s.n)
    bias, nls = _walsh(s.table, s.n)
    nl_stats = _nl_stats(nls)
    flips, joint = _flip_counts(s.table[np.newaxis], s.n)
    return MetricReport(
        n=s.n,
        du=du,
        du_count=du_count,
        max_bias=bias,
        nl=nl_stats.nl,
        nl_component_max=nl_stats.component_max,
        nl_component_avg=nl_stats.component_avg,
        dsac=_sac_report(flips[0], s.n),
        dbic=_bic_report(joint[0], s.n),
        cycles=cycle_decomposition(s) if is_bijective(s) else None,
        degree=anf.algebraic_degree(s) if with_degree else None,
        ai=anf.sbox_algebraic_immunity(s) if with_ai else None,
    )
