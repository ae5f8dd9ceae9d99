"""S-box containers, GF(2^n) arithmetic, power-map builders, cycle structure.

Field elements are ints whose bit i holds the coefficient of x^i, so field
addition is plain XOR and no translation layer is needed anywhere.  Integer
arguments pass through `check_int`, and array arguments through `check_int_array`:
every entry an integer in the caller's [lo, hi], checked before any cast.
"""

from __future__ import annotations

import math
import os
import re
import threading
from dataclasses import dataclass

import numpy as np

from .data import IRREDUCIBLE


class SboxParseError(ValueError):
    """Raised when S-box text input cannot be parsed."""


class NotBijectiveError(ValueError):
    """Raised when an operation requires a permutation and the table is not one."""


class MonomialConditionError(ValueError):
    """Raised when a power-map family's parameter condition fails."""


MIN_N = 2
MAX_N = 12  # DDT/LAT are O(2^(2n)); 12 caps the largest table at 16M entries
_NEVER = threading.Event()  # the `stop` of a one-range `run_ranges` call, never set


def check_int(value, rule: str, lo: int, hi: int | None = None, error: type[ValueError] = ValueError) -> int:
    """`value` as a plain int if it is a Python or numpy integer in [lo, hi] (hi None: no
    bound), else error("<rule>, got <value!r>"); bool, float, None and str are refused."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and lo <= value and (hi is None or value <= hi)):
        raise error(f"{rule}, got {value!r}")
    return int(value)


def check_width(n) -> int:
    """n as an int when MIN_N <= n <= MAX_N."""
    return check_int(n, f"bit width n={n!r} must be an integer in [{MIN_N}, {MAX_N}]", MIN_N, MAX_N)


def check_seed(seed) -> int:
    """seed as an int in [0, 2^64); None, which would draw OS entropy, is refused."""
    return check_int(seed, "seed must be a 64-bit unsigned integer", 0, 2**64 - 1)


def check_int_array(values, rule: str, lo: int, hi: int, dtype=np.int64) -> np.ndarray:
    """values as a `dtype` array if every entry is an integer in [lo, hi], checked before the cast;
    else ValueError("<rule>, got dtype <d>") for a float, bool, object or str array, or "<rule>, got
    <entry> at index <i>" for the first bad entry.  An array is scanned only when its dtype can leave
    [lo, hi] and is not copied when it has `dtype`; anything else, such as a list, is read entry by
    entry, so Python ints past 2^63 stay exact and a bool among them is refused."""
    if isinstance(values, np.ndarray):
        a = values
        if a.dtype.kind not in "iu":
            raise ValueError(f"{rule}, got dtype {a.dtype}")
        info = np.iinfo(a.dtype)
        scan = a.size and ((info.min < lo and a.min() < lo) or (info.max > hi and a.max() > hi))
        bad = np.flatnonzero((a < lo) | (a > hi)) if scan else []
    else:
        a = np.array(values, dtype=object)
        bad = [k for k, v in enumerate(a.flat) if not isinstance(v, (int, np.integer)) or isinstance(v, bool)
               or not lo <= v <= hi]
    if len(bad):
        where = bad[0] if a.ndim == 1 else tuple(int(i) for i in np.unravel_index(bad[0], a.shape))
        raise ValueError(f"{rule}, got {a.flat[bad[0]]} at index {where}")
    return a.astype(dtype, copy=False)


def cpu_count() -> int:
    """The CPUs a run may use: os.cpu_count(), or 1 when that is unknown; only
    `even_ranges` reads it, for every split of the search, the SPN and the metrics."""
    return os.cpu_count() or 1


def even_ranges(total: int, most: int) -> list[range]:
    """The even, contiguous ranges of range(total), in order, their sizes
    differing by at most 1: as many as `most`, the CPUs and `total` allow, and
    at least one.  When `most` or `total` alone allows one range, the CPU count
    is not read."""
    count = 1 if most <= 1 or total <= 1 else min(most, total, cpu_count())
    return [range(total * k // count, total * (k + 1) // count) for k in range(count)]


def run_ranges(total: int, most: int, work) -> list:
    """[work(lo, hi, stop) for each range [lo, hi) of `even_ranges(total, most)`], in range order.

    One range runs at once in the calling thread and starts no thread or Event (their set-up
    and the CPU count made n = 7 and 8 reports 6% slower).  Otherwise the calling thread runs
    the first range and each other range a thread of its own; `stop` is a threading.Event set
    when a range raises or a thread cannot start, at which work may return early.  The first
    exception in range order is raised once every started thread is done.
    """
    ranges = even_ranges(total, most)
    if len(ranges) == 1:
        return [work(0, total, _NEVER)]
    stop = threading.Event()
    results = [None] * len(ranges)
    failures = [None] * len(ranges)

    def run(k):
        try:
            results[k] = work(ranges[k].start, ranges[k].stop, stop)
        except BaseException as exc:  # re-raised in the calling thread
            failures[k] = exc
            stop.set()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(ranges))]
    try:
        for t in threads:
            t.start()
        run(0)
    except BaseException:  # a thread that could not start
        stop.set()
        raise
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    for exc in failures:
        if exc is not None:
            raise exc
    return results


def read_only(a) -> np.ndarray:
    """A read-only view of a, which itself stays as writable as it was."""
    v = np.asarray(a).view()
    v.flags.writeable = False
    return v


def width_of(count, what: str, error: type[ValueError] = ValueError) -> int:
    """n for a table of `count` = 2^n entries, MIN_N <= n <= MAX_N; else `error`."""
    rule = f"{what} must be a power of two in [{1 << MIN_N}, {1 << MAX_N}]"
    n = check_int(count, rule, 1 << MIN_N, 1 << MAX_N, error).bit_length() - 1
    if count != 1 << n:
        raise error(f"{rule}, got {count!r}")
    return n


@dataclass(frozen=True, eq=False)
class SBox:
    """An n-bit substitution table, not necessarily bijective.

    The table is held as a read-only int64 numpy array; mutation attempts
    raise. Equality compares width and contents.
    """

    n: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", check_width(self.n))
        size = 1 << self.n
        tab = check_int_array(self.table, f"table entries must be integers in [0, {size})", 0, size - 1)
        if tab.shape != (size,):
            raise ValueError(f"table must have exactly 2^{self.n} = {size} entries, got shape {tab.shape}")
        object.__setattr__(self, "table", read_only(tab.copy()))

    @property
    def size(self) -> int:
        return 1 << self.n

    def __len__(self):
        return self.size

    def __getitem__(self, x) -> int:
        return int(self.table[x])

    def __eq__(self, other):
        if not isinstance(other, SBox):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __repr__(self):
        head = ", ".join(str(int(v)) for v in self.table[:6])
        return f"SBox(n={self.n}, table=[{head}, ...])"


def _poly_mod(a: int, b: int) -> int:
    """Remainder of a divided by b, both GF(2) polynomial masks."""
    top = b.bit_length()
    while a.bit_length() >= top:
        a ^= b << (a.bit_length() - top)
    return a


@dataclass(frozen=True)
class GFContext:
    """A binary field GF(2^n) fixed by its irreducible modulus mask."""

    n: int
    irreducible: int

    def __post_init__(self):
        object.__setattr__(self, "n", check_width(self.n))
        rule = f"modulus must be a non-negative integer of degree exactly n={self.n}"
        object.__setattr__(self, "irreducible", check_int(self.irreducible, rule, 1 << self.n, (2 << self.n) - 1))
        # a reducible modulus has a factor of degree <= n/2; masks 2.. are x, x+1, ...
        for d in range(2, 1 << (self.n // 2 + 1)):
            if _poly_mod(self.irreducible, d) == 0:
                raise ValueError(f"modulus 0x{self.irreducible:x} is reducible: 0x{d:x} divides it")

    @property
    def size(self) -> int:
        return 1 << self.n


def default_context(n: int) -> GFContext:
    """The shipped GF(2^n) context for MIN_N <= n <= MAX_N (n=8 is the AES field)."""
    return GFContext(n, IRREDUCIBLE[check_width(n)])


@dataclass(frozen=True)
class CycleStructure:
    cycles: tuple
    lengths: tuple
    fixed_points: int
    opposite_fixed_points: int


# the ASCII tokens int(text, base) reads; 0: decimal or 0x, 0b and 0o digits, as the CLI's --irreducible
_TOKENS = {10: re.compile("[0-9]+"), 16: re.compile("(0[xX])?[0-9a-fA-F]+"),
           0: re.compile("0[xX][0-9a-fA-F]+|0[bB][01]+|0[oO][0-7]+|0+|[1-9][0-9]*")}


def parse_sbox(text: str, base: int = 10) -> SBox:
    """Parse whitespace/comma separated integer tokens into an SBox.

    A base-10 token is ASCII digits; a base-16 token is hex digits with an optional 0x or 0X
    prefix; no sign, underscore or other digit is read.  The token count must be a power of
    two 2^n, MIN_N <= n <= MAX_N; bijectivity is not required.
    """
    token = _TOKENS.get(check_int(base, "base must be 10 or 16", 10, 16, SboxParseError))
    if token is None:
        raise SboxParseError(f"base must be 10 or 16, got {base}")
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.replace(",", " ").split():
            tokens.append((lineno, tok))
    count = len(tokens)
    n = width_of(count, "token count", SboxParseError)
    values = []
    for lineno, tok in tokens:
        if not token.fullmatch(tok):
            raise SboxParseError(f"line {lineno}: token {tok!r} is not a base-{base} integer")
        v = int(tok, base)
        if not 0 <= v < count:
            raise SboxParseError(
                f"line {lineno}: value {v} outside [0, {count})"
            )
        values.append(v)
    return SBox(n, np.array(values, dtype=np.int64))


def format_sbox(s: SBox) -> str:
    """Decimal 0-indexed listing, 16 entries per row."""
    rows = [", ".join(str(int(v)) for v in s.table[i : i + 16]) for i in range(0, s.size, 16)]
    return "\n".join(rows) + "\n"


def is_bijective(s: SBox) -> bool:
    return bool(np.array_equal(np.bincount(s.table, minlength=s.size), np.ones(s.size, dtype=np.int64)))


def inverse_sbox(s: SBox) -> SBox:
    if not is_bijective(s):
        raise NotBijectiveError("cannot invert a non-bijective S-box")
    inv = np.empty(s.size, dtype=np.int64)
    inv[s.table] = np.arange(s.size)
    return SBox(s.n, inv)


def _gf_mul_array(ctx: GFContext, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
    """a * b in ctx, elementwise on int64 arrays or on plain ints: n shift/XOR/reduce steps, one per bit of b."""
    r = a & 0
    for j in range(ctx.n):
        r ^= a * ((b >> j) & 1)
        a = a << 1
        a ^= ctx.irreducible * (a >> ctx.n)
    return r


def _gf_pow_array(ctx: GFContext, x: np.ndarray | int, e: int) -> np.ndarray | int:
    """x^e in ctx by square-and-multiply, on what `_gf_mul_array` takes: one product per bit of e and per set bit."""
    r = x ** 0
    while e:
        if e & 1:
            r = _gf_mul_array(ctx, r, x)
        x = _gf_mul_array(ctx, x, x)
        e >>= 1
    return r


def gf_mul(ctx: GFContext, a: int, b: int) -> int:
    """a * b in ctx: `_gf_mul_array` on one element, a plain int."""
    rule = f"field elements must be integers in [0, {ctx.size})"
    a, b = check_int(a, rule, 0, ctx.size - 1), check_int(b, rule, 0, ctx.size - 1)
    return _gf_mul_array(ctx, a, b)


def gf_pow(ctx: GFContext, x: int, e: int) -> int:
    """x^e in ctx, x^0 = 1 for every x and 0^e = 0 for e > 0: `_gf_pow_array` on one element, a plain int."""
    e = check_int(e, "exponent must be a non-negative integer", 0)
    x = check_int(x, f"field elements must be integers in [0, {ctx.size})", 0, ctx.size - 1)
    return _gf_pow_array(ctx, x, e)


FAMILIES = ("gold", "kasami", "welch", "niho", "dobbertin", "inverse", "raw")
_PARAMETERS = {"gold": "i", "kasami": "i", "raw": "e"}  # the one parameter a family takes, if any


def _monomial_exponent(ctx: GFContext, family: str, i, e) -> int:
    if family not in FAMILIES:
        raise MonomialConditionError(f"unknown family {family!r}; choose from {FAMILIES}")
    for name, value in (("i", i), ("e", e)):
        if value is not None and _PARAMETERS.get(family) != name:
            raise MonomialConditionError(f"{family} takes no parameter {name}")
    n = ctx.n
    if family in ("gold", "kasami"):
        i = check_int(i, f"{family} requires parameter i, an integer i >= 1", 1, error=MonomialConditionError)
        if math.gcd(i, n) != 1:
            raise MonomialConditionError(
                f"{family} requires gcd(i, n) = 1; gcd({i}, {n}) = {math.gcd(i, n)}"
            )
        return (1 << i) + 1 if family == "gold" else (1 << (2 * i)) - (1 << i) + 1
    if family in ("welch", "niho", "inverse"):
        if n % 2 == 0:
            hint = ""
            if family == "inverse":
                hint = f"; the field inverse x^(2^n - 2) is raw with e = {ctx.size - 2} (gen raw --e {ctx.size - 2})"
            raise MonomialConditionError(f"{family} requires odd n = 2t + 1, got n={n}{hint}")
        t = (n - 1) // 2
        if family == "welch":
            return (1 << t) + 3
        if family == "inverse":
            return (1 << (2 * t)) - 1
        if t % 2 == 0:
            return (1 << t) + (1 << (t // 2)) - 1
        return (1 << t) + (1 << ((3 * t + 1) // 2)) - 1
    if family == "dobbertin":
        if n % 5 != 0:
            raise MonomialConditionError(f"dobbertin requires n = 5i, got n={n}")
        k = n // 5
        return (1 << (4 * k)) + (1 << (3 * k)) + (1 << (2 * k)) + (1 << k) - 1
    return check_int(e, "raw requires parameter e, an integer exponent e >= 1", 1, error=MonomialConditionError)


def build_monomial_sbox(ctx: GFContext, family: str, i: int | None = None, e: int | None = None) -> SBox:
    """Power map S(x) = x^e over ctx, exponent chosen by family.

    gold:      e = 2^i + 1,          gcd(i, n) = 1
    kasami:    e = 2^(2i) - 2^i + 1, gcd(i, n) = 1
    welch:     e = 2^t + 3,          n = 2t + 1
    niho:      e = 2^t + 2^(t/2) - 1 (t even) or 2^t + 2^((3t+1)/2) - 1 (t odd), n = 2t + 1
    dobbertin: e = 2^(4k) + 2^(3k) + 2^(2k) + 2^k - 1, n = 5k
    inverse:   e = 2^(2t) - 1,       n = 2t + 1
    raw:       e given directly, e >= 1

    Condition violations raise MonomialConditionError naming the condition,
    as does a parameter the family does not take, at every n.
    S(0) = 0 always (e >= 1 in every family).
    """
    exp = _monomial_exponent(ctx, family, i, e)
    return SBox(ctx.n, _gf_pow_array(ctx, np.arange(ctx.size, dtype=np.int64), exp))


def cycle_decomposition(s: SBox) -> CycleStructure:
    """Disjoint cycles of a permutation, each led by its smallest element.

    Cycles are ordered by that leading element; lengths come back as a
    sorted tuple so multiset comparisons are direct.
    """
    if not is_bijective(s):
        raise NotBijectiveError("cycle decomposition requires a permutation")
    size = s.size
    tab = s.table
    seen = bytearray(size)
    cycles = []
    for start in range(size):
        if seen[start]:
            continue
        cur = start
        cyc = []
        while not seen[cur]:
            seen[cur] = 1
            cyc.append(cur)
            cur = int(tab[cur])
        cycles.append(tuple(cyc))
    idx = np.arange(size)
    return CycleStructure(
        cycles=tuple(cycles),
        lengths=tuple(sorted(len(c) for c in cycles)),
        fixed_points=int(np.count_nonzero(tab == idx)),
        opposite_fixed_points=int(np.count_nonzero(tab == (idx ^ (size - 1)))),
    )
