"""Algebraic normal form, degree, and annihilator-based immunity.

Immunity (Meier-Pasalic-Carlet) is the least d at which f or f xor 1 has a
nonzero annihilator g of degree <= d: g vanishes on the support of f.  The
test for one d works on an information set (Armknecht et al.): the points of
weight <= d fix g, and at a point c above weight d
g(c) = sum of A[c, z] g(z) over the points z of weight <= d, with
A[c, z] = [z in c] [(d - |z|) in (|c| - |z| - 1)] ("in" between bit masks;
Lucas's theorem on sum_{j <= k} C(N, j) = C(N - 1, k) mod 2).  The unknowns
are g's values at the weight-<=d points off the support, each support point
above weight d is one constraint, and g exists iff A restricted to those has
rank below the number of unknowns.  Having an annihilator is monotone in d,
so the tests step down from the cap, and each next component of an S-box is
tested only below the lowest immunity found so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SBox, check_int


def _bit_vector(obj, field: str, what: str) -> None:
    """Stores obj.n as an int and obj.<field> as a read-only uint8 copy, checked
    to be 2^n zeros and ones before the cast, which would wrap 256 to 0 and -1 to 255."""
    n = check_int(obj.n, "n must be an integer >= 0", 0)
    v = np.asarray(getattr(obj, field))
    if v.shape != (1 << n,):
        raise ValueError(f"{what} must have 2^{n} entries")
    if not ((v == 0) | (v == 1)).all():
        raise ValueError(f"{what} entries must be 0 or 1")
    b = v.astype(np.uint8)
    b.flags.writeable = False
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, field, b)


@dataclass(frozen=True, eq=False)
class TruthTable:
    n: int
    bits: np.ndarray

    def __post_init__(self):
        _bit_vector(self, "bits", "truth table")


@dataclass(frozen=True, eq=False)
class AnfCoefficients:
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _bit_vector(self, "coeffs", "coefficient vector")


def _mobius(vec: np.ndarray) -> np.ndarray:
    """XOR butterfly over each bit position; its own inverse.

    Works on a single table or a stack of them (last axis = 2^n entries).
    """
    out = vec.astype(np.uint8).reshape(-1)  # astype copies, reshape is a view
    size = vec.shape[-1]
    step = 1
    while step < size:
        view = out.reshape(-1, 2, step)  # blocks never straddle rows: step < size
        view[:, 1, :] ^= view[:, 0, :]
        step *= 2
    return out.reshape(vec.shape)


def component_truth_table(s: SBox, mask: int) -> TruthTable:
    """Truth table of x -> parity(mask & S(x))."""
    mask = check_int(mask, f"mask must be an integer in [0, {s.size})", 0, s.size - 1)
    vals = (s.table & mask).astype(np.uint64)
    return TruthTable(s.n, (np.bitwise_count(vals) & 1).astype(np.uint8))


def mobius_transform(t: TruthTable) -> AnfCoefficients:
    """Truth table -> ANF coefficients. Applying it twice returns the input."""
    return AnfCoefficients(t.n, _mobius(t.bits))


def evaluate_anf(a: AnfCoefficients) -> TruthTable:
    """ANF coefficients -> truth table (the same butterfly, other direction)."""
    return TruthTable(a.n, _mobius(a.coeffs))


def anf_monomials(a: AnfCoefficients) -> list[int]:
    """Masks of the monomials present, ordered numerically."""
    return [int(m) for m in np.flatnonzero(a.coeffs)]


def _coordinate_anfs(s: SBox) -> np.ndarray:
    """Row j = the ANF coefficients of coordinate j, x -> bit j of S(x)."""
    return _mobius((s.table >> np.arange(s.n)[:, np.newaxis]) & 1)


def algebraic_degree(s: SBox) -> int:
    """Max monomial size over the ANFs of all 2^n - 1 nonzero components.

    The zero function has degree 0.  The ANF is linear, so deg(b.S) <= max_j
    deg(S_j), and the coordinates S_j are components: the same maximum.
    """
    coeffs = _coordinate_anfs(s)
    return int(np.bitwise_count(np.flatnonzero(coeffs.any(axis=0))).max(initial=0))


def dump_anf(s: SBox) -> str:
    """One line per nonzero component: '<component mask>: <monomial masks>', hex.

    The ANF is linear, so component b's is the XOR of the coordinate ANFs of
    b's set bits: the components are built by doubling over the coordinates.
    """
    comps = np.zeros((1, s.size), dtype=np.uint8)
    for coord in _coordinate_anfs(s):
        comps = np.concatenate([comps, comps ^ coord])  # row b | 2^j = row b xor coordinate j
    hexes = [f"{m:x}" for m in range(s.size)]
    lines = [f"{hexes[b]}: " + " ".join([hexes[m] for m in np.flatnonzero(c).tolist()])
             for b, c in enumerate(comps[1:], 1)]
    return "\n".join(lines) + "\n"


def _has_annihilator(on: np.ndarray, d: int) -> bool:
    """Whether a nonzero g of degree <= d vanishes wherever `on` is set: the
    rank test of the module docstring.

    Each unknown z is a bit-packed row over the constraints, with the smallest
    constraint as its top bit, and rows enter in descending z order.  A[c, z]
    is zero unless c >= z, so this order keeps the elimination close to
    triangular: 3-7x fewer XORs than with both orders ascending, on random
    and inverse maps at n = 8..12.
    """
    # the narrowest type that holds every point: A's temporaries are unknowns x constraints
    points = np.arange(on.size, dtype=np.min_scalar_type(on.size - 1))
    weight = np.bitwise_count(points)
    low = weight <= d
    free = points[low & ~on][::-1, np.newaxis]
    fixed = points[~low & on]
    if free.size == 0:
        return False  # g vanishes on the information set, so g = 0
    if free.size > fixed.size:
        return True
    k = d - weight[free]
    rows = np.packbits(((free & fixed) == free) & ((k & (weight[fixed] - weight[free] - 1)) == k), axis=1)
    pivots: dict[int, int] = {}  # highest set bit -> the reduced row that owns it
    for row in rows:
        r = int.from_bytes(row.tobytes(), "big")
        while r and (h := r.bit_length() - 1) in pivots:
            r ^= pivots[h]
        if not r:
            return True
        pivots[h] = r
    return False


def algebraic_immunity(t: TruthTable, max_degree: int) -> int | None:
    """Smallest d <= max_degree with a nonzero degree-<=d annihilator of f
    or of f xor 1; None when no such d exists.

    g annihilates f when it vanishes on the support of f.  Having one is
    monotone in d, so the tests start at max_degree and step down while one
    of the two sides still has an annihilator.
    """
    max_degree = check_int(max_degree, f"max_degree must be an integer in [0, {t.n}]", 0, t.n)
    on = t.bits.astype(bool)
    best = None
    for d in range(max_degree, -1, -1):
        if not (_has_annihilator(on, d) or _has_annihilator(~on, d)):
            break
        best = d
    return best


def sbox_algebraic_immunity(s: SBox, all_components: bool = False) -> int:
    """Minimum immunity over the n coordinate functions (or, with
    all_components, over every nonzero component).

    Every function's immunity is at most ceil(n/2), so that bounds the
    minimum; each next function is tested only below the minimum so far.
    """
    best = (s.n + 1) // 2
    masks = range(1, s.size) if all_components else [1 << j for j in range(s.n)]
    for mask in masks:
        if best == 0:
            break
        ai = algebraic_immunity(component_truth_table(s, mask), best - 1)
        if ai is not None:
            best = ai
    return best
