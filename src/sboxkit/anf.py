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


def _annihilator_degree(support: np.ndarray, n: int, max_degree: int) -> int | None:
    """Degree of the lowest-degree nonzero g of degree <= max_degree that
    vanishes on `support`; None when there is none.

    Each monomial is a row: the bit-packed vector of its values on the
    support.  Rows enter in (degree, mask) order and are reduced against the
    pivots kept from the rows before them, so raising the degree only adds
    rows.  The first row that reduces to zero is a sum of monomials of degree
    at most its own that vanishes on the support: that g.
    """
    masks = np.arange(1 << n)
    weight = np.bitwise_count(masks)
    pivots: dict[int, int] = {}  # highest set bit -> the reduced row that owns it
    for d in range(max_degree + 1):
        monomials = masks[weight == d, np.newaxis]
        rows = np.packbits((monomials & support) == monomials, axis=1, bitorder="little")
        for row in rows:
            r = int.from_bytes(row.tobytes(), "little")
            while r and (h := r.bit_length() - 1) in pivots:
                r ^= pivots[h]
            if not r:
                return d
            pivots[h] = r
    return None


def algebraic_immunity(t: TruthTable, max_degree: int) -> int | None:
    """Smallest d <= max_degree with a nonzero degree-<=d annihilator of f
    or of f xor 1; None when no such d exists.

    g annihilates f when it vanishes on the support of f, so each side is
    one incremental GF(2) elimination over the monomials evaluated on that
    support.  The side of f xor 1 searches only below the answer for f.
    """
    if not 0 <= max_degree <= t.n:
        raise ValueError(f"max_degree must lie in [0, {t.n}]")
    best = None
    for support in (np.flatnonzero(t.bits), np.flatnonzero(t.bits ^ 1)):
        d = _annihilator_degree(support, t.n, max_degree if best is None else best - 1)
        if d is not None:
            best = d
    return best


def sbox_algebraic_immunity(s: SBox, all_components: bool = False) -> int:
    """Minimum immunity over the n coordinate functions (or, with
    all_components, over every nonzero component).

    Searches up to ceil(n/2), which is an upper bound on any function's
    immunity, so the minimum is always found.
    """
    cap = (s.n + 1) // 2
    masks = range(1, s.size) if all_components else [1 << j for j in range(s.n)]
    return min(algebraic_immunity(component_truth_table(s, mask), cap) for mask in masks)
