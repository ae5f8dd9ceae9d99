"""S-box containers, GF(2^n) arithmetic, power-map builders, cycle structure.

Field elements are ints whose bit i holds the coefficient of x^i, so field
addition is plain XOR and no translation layer is needed anywhere.  Integer
arguments pass through `check_int`, integer tables through `check_int_array`.
"""

from __future__ import annotations

import math
import os
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


def check_int_array(values, what: str) -> np.ndarray:
    """values as an int64 array; a float or bool dtype, which the cast would garble, is refused."""
    a = np.asarray(values)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


def cpu_count() -> int:
    """The CPUs a run may use: os.cpu_count(), or 1 when that is unknown.
    It bounds both the search's processes and the SPN's block threads."""
    return os.cpu_count() or 1


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
        tab = check_int_array(self.table, "table entries").copy()
        size = 1 << self.n
        if tab.shape != (size,):
            raise ValueError(f"table must have exactly 2^{self.n} = {size} entries, got shape {tab.shape}")
        if tab.size and (tab.min() < 0 or tab.max() >= size):
            bad = int(np.argmax((tab < 0) | (tab >= size)))
            raise ValueError(f"table entry {int(tab[bad])} at index {bad} outside [0, {size})")
        tab.flags.writeable = False
        object.__setattr__(self, "table", tab)

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


def parse_sbox(text: str, base: int = 10) -> SBox:
    """Parse whitespace/comma separated integer tokens into an SBox.

    Accepts base 10 or 16 (hex tokens may carry a 0x prefix).  The token
    count must be a power of two 2^n, MIN_N <= n <= MAX_N; bijectivity is not required.
    """
    if check_int(base, "base must be 10 or 16", 10, 16, SboxParseError) not in (10, 16):
        raise SboxParseError(f"base must be 10 or 16, got {base}")
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.replace(",", " ").split():
            tokens.append((lineno, tok))
    count = len(tokens)
    n = width_of(count, "token count", SboxParseError)
    values = []
    for lineno, tok in tokens:
        body = tok[2:] if base == 16 and tok.lower().startswith("0x") else tok
        try:
            v = int(body, base)
        except ValueError:
            raise SboxParseError(
                f"line {lineno}: token {tok!r} is not a base-{base} integer"
            ) from None
        if not 0 <= v < count:
            raise SboxParseError(
                f"line {lineno}: value {v} outside [0, {count})"
            )
        values.append(v)
    return SBox(n, np.array(values, dtype=np.int64))


def format_sbox(s: SBox, per_line: int = 16) -> str:
    """Decimal 0-indexed listing, `per_line` entries per row."""
    per_line = check_int(per_line, "per_line must be an integer >= 1", 1)
    rows = []
    for i in range(0, s.size, per_line):
        rows.append(", ".join(str(int(v)) for v in s.table[i : i + per_line]))
    return "\n".join(rows) + "\n"


def is_bijective(s: SBox) -> bool:
    return bool(np.array_equal(np.bincount(s.table, minlength=s.size), np.ones(s.size, dtype=np.int64)))


def inverse_sbox(s: SBox) -> SBox:
    if not is_bijective(s):
        raise NotBijectiveError("cannot invert a non-bijective S-box")
    inv = np.empty(s.size, dtype=np.int64)
    inv[s.table] = np.arange(s.size)
    return SBox(s.n, inv)


def hamming_distance(x: int, y: int, n: int) -> int:
    top = (1 << check_int(n, "n must be an integer >= 0", 0)) - 1
    rule = f"operands must be integers in [0, 2^{n})"
    return (check_int(x, rule, 0, top) ^ check_int(y, rule, 0, top)).bit_count()


def gf_mul(ctx: GFContext, a: int, b: int) -> int:
    """Carry-less product of a and b reduced by ctx.irreducible."""
    size = ctx.size
    rule = f"field elements must be integers in [0, {size})"
    a, b = check_int(a, rule, 0, size - 1), check_int(b, rule, 0, size - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & size:
            a ^= ctx.irreducible
    return r


def _gf_mul_array(ctx: GFContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gf_mul over whole arrays: n shift/XOR/reduce steps, one per bit of b."""
    r = np.zeros_like(a)
    for j in range(ctx.n):
        r ^= a * ((b >> j) & 1)
        a = a << 1
        a ^= ctx.irreducible * (a >> ctx.n)
    return r


def gf_pow(ctx: GFContext, x: int, e: int) -> int:
    """Square-and-multiply. x^0 = 1 for every x by convention, 0^e = 0 for e > 0."""
    e = check_int(e, "exponent must be a non-negative integer", 0)
    x = check_int(x, f"field elements must be integers in [0, {ctx.size})", 0, ctx.size - 1)
    result = 1
    base = x
    while e:
        if e & 1:
            result = gf_mul(ctx, result, base)
        base = gf_mul(ctx, base, base)
        e >>= 1
    return result


def trace(ctx: GFContext, x: int) -> int:
    """Tr(x) = x + x^2 + x^4 + ... + x^(2^(n-1)), always 0 or 1."""
    acc = 0
    cur = x
    for _ in range(ctx.n):
        acc ^= cur
        cur = gf_mul(ctx, cur, cur)
    return acc


FAMILIES = ("gold", "kasami", "welch", "niho", "dobbertin", "inverse", "raw")


def _monomial_exponent(ctx: GFContext, family: str, i, e) -> int:
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
            raise MonomialConditionError(f"{family} requires odd n = 2t + 1, got n={n}")
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
    if family == "raw":
        return check_int(e, "raw requires parameter e, an integer exponent e >= 1", 1, error=MonomialConditionError)
    raise MonomialConditionError(f"unknown family {family!r}; choose from {FAMILIES}")


def build_monomial_sbox(ctx: GFContext, family: str, i: int | None = None, e: int | None = None) -> SBox:
    """Power map S(x) = x^e over ctx, exponent chosen by family.

    gold:      e = 2^i + 1,          gcd(i, n) = 1
    kasami:    e = 2^(2i) - 2^i + 1, gcd(i, n) = 1
    welch:     e = 2^t + 3,          n = 2t + 1
    niho:      e = 2^t + 2^(t/2) - 1 (t even) or 2^t + 2^((3t+1)/2) - 1 (t odd), n = 2t + 1
    dobbertin: e = 2^(4k) + 2^(3k) + 2^(2k) + 2^k - 1, n = 5k
    inverse:   e = 2^(2t) - 1,       n = 2t + 1
    raw:       e given directly, e >= 1

    Condition violations raise MonomialConditionError naming the condition.
    S(0) = 0 always (e >= 1 in every family).
    """
    exp = _monomial_exponent(ctx, family, i, e)
    table = np.ones(ctx.size, dtype=np.int64)
    base = np.arange(ctx.size, dtype=np.int64)
    while exp:
        if exp & 1:
            table = _gf_mul_array(ctx, table, base)
        base = _gf_mul_array(ctx, base, base)
        exp >>= 1
    return SBox(ctx.n, table)


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
