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

from .core import SBox, check_int, check_int_array, read_only


@dataclass(frozen=True, eq=False)
class TruthTable:
    n: int
    bits: np.ndarray

    def __post_init__(self):
        n = check_int(self.n, "n must be an integer >= 0", 0)
        bits = check_int_array(self.bits, "truth table entries must be 0 or 1", 0, 1, np.uint8)
        if bits.shape != (1 << n,):
            raise ValueError(f"truth table must have 2^{n} entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", read_only(bits.copy()))


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


def algebraic_degree(s: SBox) -> int:
    """Max monomial size over the ANFs of all 2^n - 1 nonzero components.

    The zero function has degree 0.  The ANF is linear, so deg(b.S) <= max_j
    deg(S_j), and the coordinates S_j are components: the same maximum.
    """
    coeffs = _mobius((s.table >> np.arange(s.n)[:, np.newaxis]) & 1)  # row j: coordinate j's ANF
    return int(np.bitwise_count(np.flatnonzero(coeffs.any(axis=0))).max(initial=0))


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
