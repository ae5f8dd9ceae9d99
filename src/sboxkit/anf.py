"""Algebraic normal form, degree, and annihilator-based immunity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SBox


@dataclass(frozen=True, eq=False)
class TruthTable:
    n: int
    bits: np.ndarray

    def __post_init__(self):
        b = np.array(self.bits, dtype=np.uint8, copy=True)
        if b.shape != (1 << self.n,):
            raise ValueError(f"truth table must have 2^{self.n} entries")
        if b.size and b.max() > 1:
            raise ValueError("truth table entries must be 0 or 1")
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)


@dataclass(frozen=True, eq=False)
class AnfCoefficients:
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.uint8, copy=True)
        if c.shape != (1 << self.n,):
            raise ValueError(f"coefficient vector must have 2^{self.n} entries")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


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
    if not 0 <= mask < s.size:
        raise ValueError(f"mask must lie in [0, {s.size})")
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


def algebraic_degree(s: SBox) -> int:
    """Max monomial size over the ANFs of all 2^n - 1 nonzero components.

    The zero function has degree 0.  The ANF is linear, so deg(b.S) <= max_j
    deg(S_j), and the coordinates S_j are components: the same maximum.
    """
    coeffs = _mobius((s.table >> np.arange(s.n)[:, np.newaxis]) & 1)
    return int(np.bitwise_count(np.flatnonzero(coeffs.any(axis=0))).max(initial=0))


def dump_anf(s: SBox) -> str:
    """One line per nonzero component: '<component mask>: <monomial masks>', hex."""
    lines = []
    for b in range(1, s.size):
        coeffs = mobius_transform(component_truth_table(s, b))
        masks = " ".join(f"{m:x}" for m in anf_monomials(coeffs))
        lines.append(f"{b:x}: {masks}")
    return "\n".join(lines) + "\n"


def _monomials_by_degree(n: int) -> tuple[np.ndarray, list[int]]:
    """All masks sorted by (weight, value) and the cumulative count per degree."""
    masks = np.arange(1 << n, dtype=np.int64)
    weight = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    order = np.argsort(weight * (1 << n) + masks)  # composite key is unique
    sorted_masks = masks[order]
    cum = [int(np.count_nonzero(weight <= d)) for d in range(n + 1)]
    return sorted_masks, cum


def _gf2_rank(rows: list[int], ncols: int) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            h = r.bit_length() - 1
            other = pivots.get(h)
            if other is None:
                pivots[h] = r
                rank += 1
                break
            r ^= other
        if rank == ncols:
            break
    return rank


def _packed_rows(support: np.ndarray, monomials: np.ndarray) -> list[int]:
    # row per support point: bit m set iff monomial m covers the point
    hits = (support[:, np.newaxis] & monomials[np.newaxis, :]) == monomials[np.newaxis, :]
    packed = np.packbits(hits.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def algebraic_immunity(t: TruthTable, max_degree: int) -> int | None:
    """Smallest d <= max_degree with a nonzero degree-<=d annihilator of f
    or of f xor 1; None when no such d exists.

    A degree-d annihilator of f is any g vanishing on the support of f, so
    the check is a GF(2) rank computation of the monomial evaluation matrix
    restricted to that support: rank < monomial count means a kernel vector
    (a nonzero g) exists.
    """
    if not 0 <= max_degree <= t.n:
        raise ValueError(f"max_degree must lie in [0, {t.n}]")
    monomials, cum = _monomials_by_degree(t.n)
    support_one = np.flatnonzero(t.bits).astype(np.int64)
    support_zero = np.flatnonzero(t.bits ^ 1).astype(np.int64)
    for d in range(max_degree + 1):
        k = cum[d]
        for support in (support_one, support_zero):
            if len(support) < k:
                return d
            if _gf2_rank(_packed_rows(support, monomials[:k]), k) < k:
                return d
    return None


def sbox_algebraic_immunity(s: SBox, all_components: bool = False) -> int:
    """Minimum immunity over the n coordinate functions (or, with
    all_components, over every nonzero component).

    Searches up to ceil(n/2), which is an upper bound on any function's
    immunity, so the minimum is always found.
    """
    cap = (s.n + 1) // 2
    masks = range(1, s.size) if all_components else [1 << j for j in range(s.n)]
    best = cap
    for mask in masks:
        ai = algebraic_immunity(component_truth_table(s, mask), cap)
        assert ai is not None  # ceil(n/2) bound
        if ai < best:
            best = ai
            if best == 0:
                break
    return best
