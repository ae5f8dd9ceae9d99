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
rank below the number of unknowns.  A's rows are built once per (n, d), over
every point above weight d, and each test masks them by the support.  Having
an annihilator is monotone in d, so the tests step down from the cap.  An
S-box's immunity is the minimum over its n coordinate functions, each tested
only below the lowest found so far.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import SBox, read_only


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


def _coordinates(s: SBox) -> np.ndarray:
    """Row j: the truth table of the coordinate function S_j, bit j of S(x)."""
    return ((s.table >> np.arange(s.n)[:, np.newaxis]) & 1).astype(bool)


def algebraic_degree(s: SBox) -> int:
    """Max monomial size over the ANFs of all 2^n - 1 nonzero components.

    The zero function has degree 0.  The ANF is linear, so deg(b.S) <= max_j
    deg(S_j), and the coordinates S_j are components: the same maximum.
    """
    coeffs = _mobius(_coordinates(s))  # row j: coordinate j's ANF
    return int(np.bitwise_count(np.flatnonzero(coeffs.any(axis=0))).max(initial=0))


@functools.cache
def _annihilator_rows(n: int, d: int) -> tuple:
    """(rows, low, high) at width n and degree d: low and high mark the points of
    weight <= d and above it, and rows[i] is A's column at the i-th low point z,
    an int over every high point c, with the smallest c as its top bit."""
    points = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    weight = np.bitwise_count(points)
    low = weight <= d
    c = points[~low]
    rows = []
    for z in np.split(points[low, np.newaxis], range(256, np.count_nonzero(low), 256)):  # bounds temporaries
        k = d - weight[z]
        bits = np.packbits(((z & c) == z) & ((k & (weight[c] - weight[z] - 1)) == k), axis=1)
        rows += (int.from_bytes(row.tobytes(), "big") for row in bits)
    return tuple(rows), read_only(low), read_only(~low)


def _has_annihilator(on: np.ndarray, d: int) -> bool:
    """Whether a nonzero g of degree <= d vanishes wherever `on` is set: the
    rank test of the module docstring.

    Each unknown z is its cached row of A masked by the support, so that only
    the constraints stay set, and rows enter in descending z order.  A[c, z]
    is zero unless c >= z, so this order keeps the elimination close to
    triangular: 3-7x fewer XORs than with both orders ascending, on random
    and inverse maps at n = 8..12.
    """
    rows, low, high = _annihilator_rows(on.size.bit_length() - 1, d)
    free = np.flatnonzero(~on[low])[::-1]
    fixed = on[high]
    if free.size == 0:
        return False  # g vanishes on the information set, so g = 0
    if free.size > np.count_nonzero(fixed):
        return True
    support = int.from_bytes(np.packbits(fixed).tobytes(), "big")
    pivots: dict[int, int] = {}  # highest set bit -> the reduced row that owns it
    for i in free.tolist():
        r = rows[i] & support
        while r and (h := r.bit_length() - 1) in pivots:
            r ^= pivots[h]
        if not r:
            return True
        pivots[h] = r
    return False


def _immunity(on: np.ndarray, cap: int) -> int | None:
    """Smallest d <= cap at which the function that is set on `on`, or its
    complement, has a nonzero degree-<=d annihilator; None when no such d
    exists.  The tests step down from the cap while one side still has one.
    """
    best = None
    for d in range(cap, -1, -1):
        if not (_has_annihilator(on, d) or _has_annihilator(~on, d)):
            break
        best = d
    return best


def sbox_algebraic_immunity(s: SBox) -> int:
    """Minimum immunity over the n coordinate functions S_j.

    Every function's immunity is at most ceil(n/2), so that bounds the
    minimum; each next coordinate is tested only below the minimum so far.
    """
    best = (s.n + 1) // 2
    for on in _coordinates(s):
        ai = _immunity(on, best - 1)
        if ai is not None:
            best = ai
    return best
