"""Difference, linear and avalanche-criterion metrics from three kernels.

DDT blocks: rows of the DDT a block at a time, a bincount each; only
`compute_ddt` holds the whole table.  Walsh: the LAT, max bias and NL share
two small float32 matrix products per sign matrix, by the Kronecker
factorisation H_n = H_hi (x) H_lo.  Flip counts: one stacked float32 product
of the one-bit-flip output differences with themselves; SAC is its diagonal,
BIC its upper triangle.  Every float32 sum is an integer of magnitude at most
2^n <= 4096 < 2^24, so float32 holds it exactly in any summation order.
Normalized quantities are exact Fractions with power-of-two denominators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import CycleStructure, SBox, cycle_decomposition, is_bijective
from .util import exact_decimal

CSV_HEADER = "name,DU,MAX BIAS,DSAC,DBIC,NL"

_HADAMARD_CACHE: dict[int, np.ndarray] = {}
_DDT_BLOCK = 256  # input differences per bincount
_XOR_INDEX_CACHE: dict[int, np.ndarray] = {}


def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix h[i, j] = (-1)^(i.j), float32."""
    h = _HADAMARD_CACHE.get(k)
    if h is None:
        v = np.arange(1 << k)
        h = 1 - 2 * (np.bitwise_count(np.bitwise_and.outer(v, v)) & 1).astype(np.float32)
        _HADAMARD_CACHE[k] = h
    return h


def _walsh(table: np.ndarray, n: int, absolute: bool = False) -> np.ndarray:
    """walsh[b, a] = sum over x of (-1)^(b.S(x) xor a.x), exact in float32.

    Sign row b + 2^k is row b times (-1)^(bit k of S(x)).  With x = x_hi 2^lo
    + x_lo, each row's (2^hi, 2^lo) block gets H_lo on the right and H_hi on
    the left, as stacks of products too small for BLAS to spread over threads.
    """
    size = 1 << n
    lo = n // 2
    hi = n - lo
    m = np.empty((size, size), dtype=np.float32)
    m[0] = 1
    for k in range(n):
        h = 1 << k
        np.multiply(m[:h], 1 - 2 * ((table >> k) & 1).astype(np.float32), out=m[h : 2 * h])
    blocks = m.reshape(size, 1 << hi, 1 << lo)
    np.matmul(_hadamard(hi), blocks @ _hadamard(lo), out=blocks)
    return np.abs(m, out=m) if absolute else m


def _ddt_blocks(table: np.ndarray, n: int):
    """Yield (start, block), block[i, b] = #{x : S(x) xor S(x xor (start + i)) = b},
    by one bincount over (i << n) | b codes: uint16 at n <= 8, one block.  As
    start is a multiple of the block size, (start + i) xor x = i xor (x xor start)."""
    size = 1 << n
    rows = min(_DDT_BLOCK, size)
    x = np.arange(size, dtype=np.int32)
    if n not in _XOR_INDEX_CACHE:
        _XOR_INDEX_CACHE[n] = np.bitwise_xor.outer(x[:rows], x)
    t = table.astype(np.uint16 if n <= 8 else np.int32)
    keyed = t | np.arange(rows, dtype=t.dtype)[:, np.newaxis] << n  # (i << n) | S(x)
    for start in range(0, size, rows):
        dy = np.take(t[x ^ start], _XOR_INDEX_CACHE[n])
        dy ^= keyed
        yield start, np.bincount(dy.ravel(), minlength=rows * size).reshape(rows, size)


def _du_stats(blocks) -> tuple[int, int]:
    """DU and how many entries reach it, over (start, rows) DDT blocks, row 0 excluded."""
    du = count = 0
    for start, block in blocks:
        rows = block[1:] if start == 0 else block
        top = int(rows.max())
        if top >= du:
            du, count = top, (count if top == du else 0) + int(np.count_nonzero(rows == top))
    return du, count


def _flip_counts(table: np.ndarray, n: int) -> np.ndarray:
    """J[i, a, b] = #{x : bits a and b of S(x) xor S(x xor 2^i) are both 1},
    as one stacked float32 bits @ bits^T, exact as every count is <= 2^n."""
    t = table.astype(np.uint16)  # n <= 12 bits
    shifts = np.arange(n, dtype=np.uint16)[:, np.newaxis]
    diff = t ^ t[np.arange(1 << n) ^ (1 << shifts)]  # row i flips input bit i
    bits = ((diff[:, np.newaxis] >> shifts) & 1).astype(np.float32)  # (n, n, 2^n)
    return (bits @ bits.transpose(0, 2, 1)).astype(np.int64)


def _sac_deviations(table: np.ndarray, n: int) -> np.ndarray:
    """Raw |flips of output bit j under input bit i - 2^(n-1)|: diag(J)."""
    return np.abs(np.diagonal(_flip_counts(table, n), axis1=1, axis2=2) - (1 << (n - 1)))


def _bic_deviations(table: np.ndarray, n: int):
    """Raw |2^n/4 - joint flip count| for every input bit and output pair j<k."""
    j, k = np.triu_indices(n, 1)  # row-major: (0, 1), (0, 2), ..., (n - 2, n - 1)
    joint = _flip_counts(table, n)[:, j, k]
    return np.abs((1 << n) // 4 - joint), tuple(zip(j.tolist(), k.tolist()))


def _walsh_max(walsh_abs: np.ndarray) -> int:
    """Extreme |Walsh sum| outside row and column zero: twice the max bias."""
    return int(walsh_abs[1:, 1:].max())


def _component_nl(walsh_abs: np.ndarray, n: int) -> np.ndarray:
    # per component b != 0 the max |sum| runs over every a, including a = 0
    return (1 << (n - 1)) - walsh_abs[1:].max(axis=1).astype(np.int64) // 2


@dataclass(frozen=True, eq=False)
class DDT:
    n: int
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True, eq=False)
class LAT:
    n: int
    sums: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sums)
        s.flags.writeable = False
        object.__setattr__(self, "sums", s)


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
    nl: int
    component_min: int
    component_max: int
    component_avg: Fraction


@dataclass(frozen=True)
class MetricReport:
    n: int
    bijective: bool
    du: int
    du_count: int
    max_bias: int
    walsh_max: int  # raw |LAT| extreme over a != 0, b != 0
    nl: int
    nl_component_min: int
    nl_component_max: int
    nl_component_avg: Fraction
    dsac: SacReport
    dbic: BicReport
    cycles: CycleStructure | None
    degree: int | None = None
    ai: int | None = None
    ai_scope: str | None = None

    def to_dict(self) -> dict:
        """Key-ordered plain dict; rationals as exact decimal strings."""
        out = {
            "n": self.n,
            "bijective": self.bijective,
            "du": self.du,
            "du_count": self.du_count,
            "max_bias": self.max_bias,
            "walsh_max": self.walsh_max,
            "nl": self.nl,
            "nl_component_min": self.nl_component_min,
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
        """One row in the `CSV_HEADER` column order."""
        return ",".join(
            [
                name,
                str(self.du),
                str(self.max_bias),
                exact_decimal(self.dsac.max_norm),
                exact_decimal(self.dbic.max_norm),
                str(self.nl),
            ]
        )


def compute_ddt(s: SBox) -> DDT:
    """counts[a][b] = #{x : S(x) xor S(x xor a) = b}."""
    counts = np.empty((s.size, s.size), dtype=np.int64)
    for start, block in _ddt_blocks(s.table, s.n):
        counts[start : start + len(block)] = block
    return DDT(s.n, counts)


def differential_uniformity(d: DDT) -> int:
    """Largest count over nonzero input differences (row 0 excluded)."""
    return _du_stats([(0, d.counts)])[0]


def du_max_count(d: DDT) -> int:
    return _du_stats([(0, d.counts)])[1]


def compute_lat(s: SBox) -> LAT:
    """sums[a][b] = sum over x of (-1)^(b.S(x) xor a.x)."""
    return LAT(s.n, _walsh(s.table, s.n).T.astype(np.int64))


def max_bias(l: LAT) -> int:
    """Half the extreme |Walsh sum| outside row/column zero.

    Entries are even, so halving is exact; the raw extreme is 2x this.
    """
    return _walsh_max(np.abs(l.sums)) // 2


def _nl_stats(walsh_abs: np.ndarray, n: int) -> NonlinearityStats:
    comps = _component_nl(walsh_abs, n)
    nl = int(comps.min())  # the minimum over components is the S-box's NL
    return NonlinearityStats(nl, nl, int(comps.max()), Fraction(int(comps.sum()), comps.size))


def nonlinearity(s: SBox) -> NonlinearityStats:
    """Minimum component nonlinearity, plus min/max/avg over all 2^n - 1
    nonzero output masks."""
    return _nl_stats(_walsh(s.table, s.n, absolute=True), s.n)


def dsac(s: SBox) -> SacReport:
    devs = _sac_deviations(s.table, s.n)
    size = s.size
    mx = int(devs.max())
    return SacReport(
        deviations=devs,
        max_raw=mx,
        max_norm=Fraction(mx, size),
        mean_norm=Fraction(int(devs.sum()), devs.size * size),
    )


def dbic(s: SBox) -> BicReport:
    devs, pairs = _bic_deviations(s.table, s.n)
    mx = int(devs.max())
    return BicReport(deviations=devs, pairs=pairs, max_raw=mx, max_norm=Fraction(mx, s.size))


def full_report(s: SBox, with_degree: bool = False, with_ai: bool = False) -> MetricReport:
    """Everything at once, one DDT and one LAT evaluation total.

    Degree and algebraic immunity are opt-in: they cost far more than the
    table metrics and are never wanted in bulk search loops.
    """
    du, du_count = _du_stats(_ddt_blocks(s.table, s.n))
    walsh = _walsh(s.table, s.n, absolute=True)
    walsh_max = _walsh_max(walsh)
    nl_stats = _nl_stats(walsh, s.n)
    del walsh
    bijective = is_bijective(s)
    degree = ai = ai_scope = None
    if with_degree or with_ai:
        from . import anf  # deferred: anf pulls no extra deps but keeps import light

        if with_degree:
            degree = anf.algebraic_degree(s)
        if with_ai:
            ai = anf.sbox_algebraic_immunity(s)
            ai_scope = "coordinates"
    return MetricReport(
        n=s.n,
        bijective=bijective,
        du=du,
        du_count=du_count,
        max_bias=walsh_max // 2,
        walsh_max=walsh_max,
        nl=nl_stats.nl,
        nl_component_min=nl_stats.component_min,
        nl_component_max=nl_stats.component_max,
        nl_component_avg=nl_stats.component_avg,
        dsac=dsac(s),
        dbic=dbic(s),
        cycles=cycle_decomposition(s) if bijective else None,
        degree=degree,
        ai=ai,
        ai_scope=ai_scope,
    )


@dataclass(frozen=True)
class Metric:
    """Search loops compare `raw(table, n)` values directly and rescale once
    at the end; a `per_size` raw value counts units of 1/2^n."""

    raw: Callable[[np.ndarray, int], int]
    maximize: bool = False
    per_size: bool = False


# in `CSV_HEADER` column order
METRICS = {
    "du": Metric(lambda t, n: _du_stats(_ddt_blocks(t, n))[0]),
    "max_bias": Metric(lambda t, n: _walsh_max(_walsh(t, n, absolute=True)) // 2),
    "dsac": Metric(lambda t, n: int(_sac_deviations(t, n).max()), per_size=True),
    "dbic": Metric(lambda t, n: int(_bic_deviations(t, n)[0].max()), per_size=True),
    "nl": Metric(lambda t, n: int(_component_nl(_walsh(t, n, absolute=True), n).min()), maximize=True),
}


def lookup_metric(name: str) -> Metric:
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; choose from {tuple(METRICS)}") from None


def raw_metric_value(table: np.ndarray, n: int, metric: str) -> int:
    return lookup_metric(metric).raw(table, n)
