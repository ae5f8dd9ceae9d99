"""Slow reference implementations used as oracles.

Everything here is written with plain loops and dicts, deliberately sharing
no code path with the library, so agreement actually means something.  The
exceptions are whole-table numpy so that they reach n=12: `walsh_butterfly`
runs in-place int32 butterflies, where the library multiplies float32
matrices, and `degree_all_components` transforms all 2^n - 1 components,
where the library transforms the n coordinates.  `lane_lookup_shifts`
extracts bytes by shift and mask, where the library gathers through a byte
view, and `avalanche_unblocked` encrypts every trial's 65 states in one
public `encrypt_blocks` call and sums whole arrays, where the library
encrypts fixed blocks of trials and reduces each into a histogram;
`avalanche_scalar` shares nothing with either but the scalar cipher.
`immunity_rank_per_degree` is an earlier library algorithm, kept so that
immunity can be checked at n = 8..11, where the dense `immunity_brute` is too
slow: its rows are support points (bit m set iff monomial m covers the
point), rebuilt and ranked from scratch at every degree.
`immunity_incremental` is the library algorithm that followed it: its rows
are monomials, added one degree at a time to a single elimination per
support.  The library eliminates over the free values of an annihilator on
the points of weight <= d instead, one degree at a time from the top.
`ring_table_loop` is the earlier cycle-constrained generator, one `np.roll`
per cycle, where the library links every ring with a single gather.
`monomial_table` is the earlier power-map builder, one `gf_pow` per field
element, and its own `gf_mul` and `gf_pow` are the earlier public scalars,
loops over plain ints; the library runs one array kernel, on whole tables
and, in its public `gf_mul`/`gf_pow`, on one element.  `ddt_bincount`
counts every ordered pair with one bincount per block of rows, checked
against the Counter loops of `ddt_brute`.  `ddt_bincount`, `walsh_butterfly`
and `walsh_stats_brute` run once per (n, table) for the session and return
read-only arrays, within a byte budget.  `read_ppm` reads
back the binary PPM the library writes.  `savetxt_csv` and `render_masked`
are the earlier heatmap output paths: `np.savetxt`, where the library writes
row blocks of byte fields, and a palette painted through boolean masks,
where the library takes each channel from one fade array with `np.maximum`.
`decimal_text` writes a rational through the `decimal` module, where the
library reads its digits off one integer division.  `gl2_matrix` and
`affine_map` draw and apply the invertible GF(2) matrices of the
affine-equivalence checks, with `gf2_rank_dense` as the rank test.
"""

import decimal
import functools
from collections import Counter
from fractions import Fraction

import numpy as np

from sboxkit import heatmap, spn

_MEMO_BYTES = 512 << 20  # past this, `_memoised` drops its least recently used results
_memo = {}  # (oracle, n, table values) -> result, least recently used first


def _memoised(oracle):
    """oracle(table, n), run once per (n, table values) for the session and its
    arrays made read-only: the n = 12 oracle tables take seconds, and several
    tests check the same maps.  A result is kept while the results used since
    it hold at most _MEMO_BYTES."""
    @functools.wraps(oracle)
    def cached(table, n):
        key = (oracle.__name__, n, np.asarray(table, dtype=np.int64).tobytes())
        if key not in _memo:
            result = oracle(table, n)
            if isinstance(result, np.ndarray):
                result.flags.writeable = False
            _memo[key] = result
        _memo[key] = _memo.pop(key)  # now the most recently used
        while sum(getattr(r, "nbytes", 0) for r in _memo.values()) > _MEMO_BYTES:
            del _memo[next(iter(_memo))]
        return _memo[key]
    return cached


def oracle_maps(n):
    """The maps the oracles are checked on at width n: a random permutation,
    a random non-bijective map and a constant map."""
    size = 1 << n
    rng = np.random.default_rng(100 + n)
    return {
        "permutation": rng.permutation(size),
        "random": rng.integers(0, size, size=size),
        "constant": np.full(size, size - 1),
    }


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def lat_entry(table, n, a, b) -> int:
    """Direct Walsh sum for one (input mask, output mask) pair."""
    total = 0
    for x in range(1 << n):
        total += 1 if parity(b & int(table[x])) ^ parity(a & x) == 0 else -1
    return total


def lat_full(table, n):
    size = 1 << n
    return [[lat_entry(table, n, a, b) for b in range(size)] for a in range(size)]


@_memoised
def walsh_butterfly(table, n):
    """Every LAT sum at once, sums[a][b], by in-place int32 Walsh-Hadamard
    butterflies over the sign vectors x -> (-1)^(b.S(x)), one row per output
    mask b.  int32 is exact: every partial sum is bounded by 2^n <= 2^12."""
    size = 1 << n
    tab = np.asarray(table, dtype=np.uint64)
    mat = np.empty((size, size), dtype=np.int32)
    for b in range(size):
        mat[b] = 1 - 2 * (np.bitwise_count(tab & np.uint64(b)) & 1).astype(np.int32)
    h = 1
    while h < size:
        pairs = mat.reshape(size, size // (2 * h), 2, h)
        lo, hi = pairs[:, :, 0, :], pairs[:, :, 1, :]
        lo += hi  # (lo, hi) -> (lo + hi, lo - hi) with no temporary
        hi *= -2
        hi += lo
        h *= 2
    return mat.T


@_memoised
def walsh_stats_brute(table, n):
    """(max |W(a, b)| over a, b != 0, (max over every a of |W(a, b)| for b = 1..2^n - 1))
    from the whole `walsh_butterfly` table."""
    walsh = np.abs(walsh_butterfly(table, n))
    return int(walsh[1:, 1:].max()), tuple(walsh[:, 1:].max(axis=0).tolist())


def ddt_row(table, n, a):
    """Difference counts for one input difference a, via a Counter."""
    size = 1 << n
    counts = Counter(int(table[x]) ^ int(table[x ^ a]) for x in range(size))
    return [counts.get(b, 0) for b in range(size)]


def ddt_brute(table, n):
    return [ddt_row(table, n, a) for a in range(1 << n)]


@_memoised
def ddt_bincount(table, n):
    """`ddt_brute` by bincounts: the int32 code (a << n) | S(x) xor S(x xor a)
    of every ordered pair (a, x), a block of 256 input differences at a time,
    each counted into its rows of one int64 result.  The library instead
    counts each pair {x, x xor a} once."""
    size, rows = 1 << n, 256
    t = np.asarray(table, dtype=np.int32)
    x = np.arange(size, dtype=np.int32)
    counts = np.empty((size, size), dtype=np.int64)
    for start in range(0, size, rows):
        a = x[start : start + rows, np.newaxis]
        codes = t[x ^ a]
        codes ^= t
        codes |= (a - start) << n  # codes relative to the block's first row
        counts[start : start + len(a)] = np.bincount(codes.ravel(), minlength=len(a) << n).reshape(-1, size)
    return counts


def flip_counts_brute(table, n, bits):
    """joint[a][b] = #{x : bits a and b of S(x) xor S(x xor 2^i) are both 1},
    one n x n list per input bit i in `bits`, over the set bits of each difference."""
    out = []
    for i in bits:
        joint = [[0] * n for _ in range(n)]
        for x in range(1 << n):
            diff = int(table[x]) ^ int(table[x ^ (1 << i)])
            ones = [a for a in range(n) if diff >> a & 1]
            for a in ones:
                for b in ones:
                    joint[a][b] += 1
        out.append(joint)
    return out


def anf_brute(bits, n):
    """c_a = XOR of f over the subcube below a (quadratic-time subset sum)."""
    size = 1 << n
    coeffs = []
    for a in range(size):
        acc = 0
        for x in range(size):
            if x & a == x:
                acc ^= int(bits[x])
        coeffs.append(acc)
    return coeffs


def degree_all_components(table, n):
    """Max monomial weight over the ANFs of every nonzero component b.S: one
    uint8 Mobius butterfly over the whole (2^n - 1, 2^n) truth-table stack."""
    size = 1 << n
    masks = np.arange(1, size, dtype=np.uint64)
    tab = np.asarray(table, dtype=np.uint64)
    stack = (np.bitwise_count(masks[:, np.newaxis] & tab) & 1).astype(np.uint8)
    h = 1
    while h < size:
        pairs = stack.reshape(size - 1, size // (2 * h), 2, h)
        pairs[:, :, 1, :] ^= pairs[:, :, 0, :]
        h *= 2
    weight = np.bitwise_count(np.arange(size, dtype=np.uint64))
    return int((stack * weight).max())


def gf2_rank_dense(rows):
    """Gaussian elimination over GF(2) on lists of 0/1, for cross-checking."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [x ^ y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def immunity_brute(bits, n, max_degree):
    """Annihilator search by dense rank, monomials enumerated by weight."""
    size = 1 << n
    monomials = sorted(range(size), key=lambda m: (bin(m).count("1"), m))
    for d in range(max_degree + 1):
        chosen = [m for m in monomials if bin(m).count("1") <= d]
        for target in (1, 0):
            support = [x for x in range(size) if int(bits[x]) == target]
            rows = [[1 if x & m == m else 0 for m in chosen] for x in support]
            if gf2_rank_dense(rows) < len(chosen):
                return d
    return None


def immunity_rank_per_degree(bits, n, max_degree):
    """Annihilator search by packed-row rank, the support x monomial matrix
    rebuilt for each degree d and each of the supports of f and f xor 1."""
    masks = np.arange(1 << n, dtype=np.int64)
    weight = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    monomials = masks[np.argsort(weight * (1 << n) + masks)]  # (weight, mask) order
    bits = np.asarray(bits, dtype=np.uint8)
    supports = (np.flatnonzero(bits), np.flatnonzero(bits ^ 1))
    for d in range(max_degree + 1):
        chosen = monomials[: int(np.count_nonzero(weight <= d))]
        k = len(chosen)
        for support in supports:
            hits = (support[:, np.newaxis] & chosen) == chosen
            packed = np.packbits(hits.astype(np.uint8), axis=1, bitorder="little")
            pivots = {}
            for row in packed:
                r = int.from_bytes(row.tobytes(), "little")
                while r:
                    h = r.bit_length() - 1
                    if h not in pivots:
                        pivots[h] = r
                        break
                    r ^= pivots[h]
                if len(pivots) == k:
                    break
            if len(pivots) < k:
                return d
    return None


def annihilator_degree_incremental(support, n, max_degree):
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
    pivots = {}  # highest set bit -> the reduced row that owns it
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


def immunity_incremental(bits, n, max_degree):
    """Annihilator search by one incremental elimination per support, of f
    and then of f xor 1; the side of f xor 1 searches only below the answer
    for f."""
    bits = np.asarray(bits, dtype=np.uint8)
    best = None
    for support in (np.flatnonzero(bits), np.flatnonzero(bits ^ 1)):
        d = annihilator_degree_incremental(support, n, max_degree if best is None else best - 1)
        if d is not None:
            best = d
    return best


def ring_table_loop(rng, spec):
    """One shuffled pool cut into chunks of spec.lengths in order; each chunk is
    linked into a ring by rolling it, one cycle at a time."""
    pool = rng.permutation(spec.total)
    table = np.empty(spec.total, dtype=np.int64)
    pos = 0
    for length in spec.lengths:
        ring = pool[pos : pos + length]
        pos += length
        table[ring] = np.roll(ring, -1)
    return table


def lane_lookup_shifts(st, tabs):
    """XOR over lanes i of tabs[i][byte i of st], bytes taken by shift and mask."""
    acc = np.zeros_like(st)
    for i in range(8):
        sh = np.uint64(8 * (7 - i))
        acc ^= tabs[i][((st >> sh) & np.uint64(0xFF)).astype(np.int64)]
    return acc


def _avalanche_report(cfg, trials, dist):
    """AvalancheReport from a (trials, 64) array of flip counts."""
    events = trials * 64
    return spn.AvalancheReport(
        trials=trials,
        rounds=cfg.rounds,
        mean_flips=Fraction(int(dist.sum()), events),
        mean_abs_deviation=Fraction(int(np.abs(dist - 32).sum()), events),
        per_input_bit_means=tuple(Fraction(int(c), trials) for c in dist.sum(axis=0)),
    )


def avalanche_unblocked(cfg, pairs):
    """The avalanche over all trials at once: one (trials, 65) state through
    `encrypt_blocks`, each master repeated over its 65 blocks, whole-array sums."""
    pairs = np.asarray(pairs, dtype=np.uint64)
    pts = pairs[:, 0]
    flippers = np.uint64(1) << (np.uint64(63) - np.arange(64, dtype=np.uint64))
    states = np.concatenate([pts[:, np.newaxis], pts[:, np.newaxis] ^ flippers[np.newaxis, :]], axis=1)
    ct = spn.encrypt_blocks(states.ravel(), np.repeat(pairs[:, 1], 65), cfg).reshape(states.shape)
    dist = np.bitwise_count(ct[:, 1:] ^ ct[:, 0:1]).astype(np.int64)
    return _avalanche_report(cfg, len(pairs), dist)


def avalanche_scalar(cfg, pairs):
    """The avalanche from the scalar cipher, one block and one int.bit_count at a time."""
    dist = []
    for pt, master in np.asarray(pairs, dtype=np.uint64).tolist():
        key = spn.int_to_block(master)
        base = spn.block_to_int(spn.encrypt_block(spn.int_to_block(pt), key, cfg))
        dist.append([(spn.block_to_int(spn.encrypt_block(spn.int_to_block(pt ^ (1 << (63 - j))), key, cfg))
                      ^ base).bit_count() for j in range(64)])
    return _avalanche_report(cfg, len(dist), np.array(dist, dtype=np.int64))


def gf_mul(ctx, a, b):
    """Carry-less product of the ints a and b reduced by ctx.irreducible, one bit of b at a time."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & ctx.size:
            a ^= ctx.irreducible
    return r


def gf_pow(ctx, x, e):
    """x^e by square-and-multiply on ints: x^0 = 1 for every x, 0^e = 0 for e > 0."""
    result = 1
    while e:
        if e & 1:
            result = gf_mul(ctx, result, x)
        x = gf_mul(ctx, x, x)
        e >>= 1
    return result


def monomial_table(ctx, e):
    """x -> x^e over ctx, one scalar `gf_pow` per element."""
    return np.array([gf_pow(ctx, x, e) for x in range(ctx.size)], dtype=np.int64)


def read_ppm(path):
    """A binary (P6) PPM file as an (h, w, 3) uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P6"):
        raise ValueError("not a binary PPM file")
    parts = blob.split(b"\n", 3)
    w, h = (int(v) for v in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w, 3)


def savetxt_csv(path, values):
    """The matrix as `%d` entries, `,` between them, one row per line, by `np.savetxt`."""
    np.savetxt(path, np.asarray(values, dtype=np.int64), fmt="%d", delimiter=",")


def render_masked(values, spec):
    """`heatmap.render_heatmap`'s (rgb, info), each palette side and the markers
    painted through boolean masks over an int64 |value| copy."""
    vals = np.asarray(values, dtype=np.int64)
    interior = np.abs(vals[1:, 1:])
    max_abs = int(interior.max()) if interior.size else 0
    scale = spec.scale if spec.scale is not None else max_abs
    if scale < max_abs:
        raise ValueError(f"scale {scale} is below the matrix extreme {max_abs}")
    scale = max(scale, 1)

    t = np.clip(vals / scale, -1.0, 1.0)
    fade = np.round(255 * (1 - np.abs(t))).astype(np.uint8)
    rgb = np.full(vals.shape + (3,), 255, dtype=np.uint8)
    pos = t > 0
    neg = t < 0
    rgb[pos, 1] = fade[pos]
    rgb[pos, 2] = fade[pos]
    rgb[neg, 0] = fade[neg]
    rgb[neg, 1] = fade[neg]

    markers = np.zeros(vals.shape, dtype=bool)
    if max_abs > 0:
        markers[1:, 1:] = np.abs(vals[1:, 1:]) == max_abs
        rgb[markers] = heatmap.MARKER_COLOR
    info = {
        "scale": scale,
        "max_abs": max_abs,
        "marker_count": int(markers.sum()),
        "markers": markers,
    }
    return rgb, info


def decimal_text(value):
    """A rational as its exact decimal, trailing zeros dropped, or "p/q" in
    lowest terms when it has none: one `decimal` division with Inexact trapped,
    at a precision that holds every digit of a terminating quotient."""
    fr = Fraction(value)
    p, q = fr.numerator, fr.denominator
    ctx = decimal.Context(prec=len(str(abs(p))) + q.bit_length() + 2, traps=[decimal.Inexact])
    try:
        quotient = ctx.divide(decimal.Decimal(p), decimal.Decimal(q))
    except decimal.Inexact:
        return f"{p}/{q}"
    return format(quotient.normalize(ctx), "f")


def gl2_matrix(rng, n):
    """An invertible n x n matrix over GF(2) as its n columns (ints), drawn
    from rng until `gf2_rank_dense` finds full rank."""
    while True:
        columns = [int(v) for v in rng.integers(0, 1 << n, size=n)]
        if gf2_rank_dense([[c >> i & 1 for i in range(n)] for c in columns]) == n:
            return columns


def affine_map(columns, x, c):
    """M.x xor c for every entry of the int array x, M given by its columns."""
    out = np.full_like(x, c)
    for j, col in enumerate(columns):
        out ^= (x >> j & 1) * col
    return out
