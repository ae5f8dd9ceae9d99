"""A 64-bit toy SPN and its avalanche experiment.

Round = bytewise S-box, byte shuffle, bit permutation, round-key XOR; no
whitening key and no special last round.  Bit 0 is the most significant
bit of byte 0, and permutations are destination <- source: output position
i takes input position p[i].

Two implementations share the test surface: a straight scalar encryption
on 8-byte `bytes` (the independent reference, whose `key_schedule(master,
cfg)` returns the cfg.rounds round keys as a plain tuple), and a vectorized
cipher on uint64 arrays that folds S-box plus both permutations of one byte
lane into a single 8x256 table of 64-bit masks, so a round is eight gathers
and a XOR.  Every bulk step (round, inverse permutation, inverse S-box, key
nibble S-box) is such a lane table, built by `_lane_tables` and applied by
`_lane_lookup`; only the S-box varies, so the key and inverse-permutation
tables are module constants.  `decrypt_block` is `decrypt_blocks` on one element.

The avalanche experiment has one input, a (trials, 2) array of (plaintext,
master) pairs: `generate_pairs(trials, seed)` draws one and `save_pairs` /
`load_pairs` store it, so every S-box compared runs on the same trials.

Every bulk call runs in blocks of `_BLOCK_WORDS` uint64 state words (32,768
blocks, or 504 avalanche trials of 65 states) with round keys yielded one
at a time by `_round_keys`.  Each avalanche block is reduced into an exact
65-bin histogram of flip counts and per-input-bit sums, so its memory is
the 16 B per trial of the pairs plus a constant per thread.

`_run_blocks` is the one block loop.  It splits the rows evenly into
contiguous ranges, one per thread, each run in blocks of at most
`_BLOCK_WORDS` words, the calling thread taking the first; numpy's lookups
and XORs release the GIL, so the ranges run side by side.  The results do
not depend on the split: encryption and decryption write disjoint slices
of their output, and the avalanche experiment adds up each range's integer
histogram and bit sums, whose total is the same in any order.  A block's
working set is 1-2 MB, and a call holds at most `_CALL_WORDS` words of
blocks at once: two blocks of state, so at most two threads whatever the
CPU count, and at most one block when a block alone holds more.  That is
decryption's case: it holds every round key of its block, so it runs its
full blocks one at a time, with the memory of the serial loop.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (NotBijectiveError, SBox, check_int, check_int_array, check_seed, cpu_count, is_bijective,
                   read_only)
from .data import DILLON_PERMUTATION, KEY_SBOX, PBOX8
from .util import exact_decimal

BLOCK_BYTES = 8
BLOCK_BITS = 64
_BLOCK_WORDS = 1 << 15  # uint64 state words per bulk block: 256 KB, inside L2
_CALL_WORDS = 1 << 16  # words that all of a call's blocks in flight may hold: two blocks of state
AVALANCHE_CSV_HEADER = "name,rounds,distance"


def _check_perm(p, size, what) -> list:
    """p as a list of ints; a float or bool entry is refused before it can index."""
    p = check_int_array(p, what).tolist()
    if sorted(p) != list(range(size)):
        raise ValueError(f"{what} must be a permutation of 0..{size - 1}")
    return p


@dataclass(frozen=True)
class SpnConfig:
    """The S-box and round count; the S-box must be a bijective 8-bit table."""

    sbox: SBox
    rounds: int

    def __post_init__(self):
        if self.sbox.n != 8:
            raise ValueError("cipher S-box must be 8x8")
        if not is_bijective(self.sbox):
            raise NotBijectiveError("cipher S-box must be bijective")
        object.__setattr__(self, "rounds", check_int(self.rounds, "rounds must be an integer >= 0", 0))


@dataclass(frozen=True)
class AvalancheReport:
    trials: int
    rounds: int
    mean_flips: Fraction
    distance_from_32: Fraction
    mean_abs_deviation: Fraction  # mean |flips - 32|, exposed alongside
    per_input_bit_means: tuple

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "rounds": self.rounds,
            "mean_flips": exact_decimal(self.mean_flips),
            "distance_from_32": exact_decimal(self.distance_from_32),
            "mean_abs_deviation": exact_decimal(self.mean_abs_deviation),
            "per_input_bit_means": [exact_decimal(m) for m in self.per_input_bit_means],
        }

    def csv_row(self, name: str) -> str:
        return f"{name},{self.rounds},{exact_decimal(self.distance_from_32)}"


def block_to_int(block: bytes) -> int:
    return int.from_bytes(block, "big")


def int_to_block(value: int) -> bytes:
    return check_int(value, "block must be an integer in [0, 2^64)", 0, 2**64 - 1).to_bytes(BLOCK_BYTES, "big")


def _rotl_bytes(block: bytes, k: int) -> bytes:
    return bytes(block[(i + k) % BLOCK_BYTES] for i in range(BLOCK_BYTES))


def key_schedule(master: bytes, cfg: SpnConfig) -> tuple:
    """(k_1, .., k_rounds) for cfg.rounds, each 8 bytes.  k_0 = master; each
    next key: rotate bytes left once, push every nibble through the key S-box
    (high nibble first), XOR the round index into byte 0, then XOR the
    previous key rotated left three bytes."""
    if len(master) != BLOCK_BYTES:
        raise ValueError("master key must be 8 bytes")
    ks = KEY_SBOX
    keys = []
    prev = bytes(master)
    for r in range(1, cfg.rounds + 1):
        t = bytearray(_rotl_bytes(prev, 1))
        for i in range(BLOCK_BYTES):
            t[i] = (ks[t[i] >> 4] << 4) | ks[t[i] & 0xF]
        t[0] ^= r & 0xFF
        rot3 = _rotl_bytes(prev, 3)
        prev = bytes(a ^ b for a, b in zip(t, rot3))
        keys.append(prev)
    return tuple(keys)


def _bit(state: bytes, b: int) -> int:
    return (state[b >> 3] >> (7 - (b & 7))) & 1


def apply_pbox8(state: bytes, p) -> bytes:
    p = _check_perm(p, 8, "pbox8")
    return bytes(state[p[i]] for i in range(8))


def apply_pbox64(state: bytes, p) -> bytes:
    p = _check_perm(p, 64, "pbox64")
    out = bytearray(BLOCK_BYTES)
    for d in range(BLOCK_BITS):
        if _bit(state, p[d]):
            out[d >> 3] |= 1 << (7 - (d & 7))
    return bytes(out)


def encrypt_block(plaintext: bytes, master: bytes, cfg: SpnConfig) -> bytes:
    if len(plaintext) != BLOCK_BYTES:
        raise ValueError("plaintext must be 8 bytes")
    keys = key_schedule(master, cfg)
    tab = cfg.sbox.table
    state = bytes(plaintext)
    for r in range(cfg.rounds):
        state = bytes(int(tab[b]) for b in state)
        state = apply_pbox8(state, PBOX8)
        state = apply_pbox64(state, DILLON_PERMUTATION)
        state = bytes(a ^ b for a, b in zip(state, keys[r]))
    return state


def decrypt_block(ciphertext: bytes, master: bytes, cfg: SpnConfig) -> bytes:
    if len(ciphertext) != BLOCK_BYTES:
        raise ValueError("ciphertext must be 8 bytes")
    if len(master) != BLOCK_BYTES:
        raise ValueError("master key must be 8 bytes")
    return int_to_block(decrypt_blocks([block_to_int(ciphertext)], [block_to_int(master)], cfg)[0])


# ---------------------------------------------------------------------------
# vectorized path


_BYTE_LANES = read_only(np.arange(64).reshape(8, 8))  # bit r of lane i stays at block bit 8i + r


def _lane_tables(values, positions) -> np.ndarray:
    """tabs[i][v] = values[v] as block bits: its bit r (MSB first) at block
    bit positions[i][r].  values has 256 bytes, positions shape (8, 8)."""
    bits = (np.asarray(values, dtype=np.uint64) >> np.arange(7, -1, -1, dtype=np.uint64)[:, np.newaxis]) & 1
    shifts = np.uint64(63) - np.asarray(positions, dtype=np.uint64)
    return (bits << shifts[:, :, np.newaxis]).sum(axis=1)  # distinct bits per lane: the sum is their OR


def _inverse(p) -> np.ndarray:
    """The inverse of the permutation p of 0..len(p)-1."""
    inv = np.empty(len(p), dtype=np.int64)
    inv[p] = np.arange(len(p))
    return inv


# memory column of block byte i (byte 0 the most significant) in a uint64's bytes
_BYTE_COLUMNS = tuple(range(7, -1, -1)) if np.little_endian else tuple(range(8))


def _lane_lookup(st: np.ndarray, tabs: np.ndarray) -> np.ndarray:
    """XOR over lanes i of tabs[i][byte i of st], byte 0 the most significant."""
    st = np.ascontiguousarray(st)  # a uint8 view needs whole contiguous words
    b = st.view(np.uint8).reshape(st.shape + (8,))
    # a byte never leaves a 256-entry table, so no index wraps; mode="raise" would buffer out
    acc = np.take(tabs[0], b[..., _BYTE_COLUMNS[0]], mode="wrap")
    tmp = np.empty_like(acc)
    for i in range(1, 8):
        acc ^= np.take(tabs[i], b[..., _BYTE_COLUMNS[i]], out=tmp, mode="wrap")
    return acc


# Both permutations chained: output bit d <- byte-shuffled bit DILLON_PERMUTATION[d],
# so ciphertext bit 8i+r came from block bit _BIT_SOURCES[i][r].  Every call
# shares these tables, so they are read-only.
_BIT_SOURCES = read_only(np.array([PBOX8[p >> 3] * 8 + (p & 7) for p in DILLON_PERMUTATION]).reshape(8, 8))
_ROUND_DEST = read_only(_inverse(_BIT_SOURCES.ravel()).reshape(8, 8))
_INV_PERM_TABLES = read_only(_lane_tables(np.arange(256), _BIT_SOURCES))
# the key S-box on whole bytes: byte (hi, lo) -> KEY_SBOX[hi] << 4 | KEY_SBOX[lo]
_KEY_TABLES = read_only(_lane_tables([KEY_SBOX[v >> 4] << 4 | KEY_SBOX[v & 0xF] for v in range(256)],
                                     _BYTE_LANES))


def _build_round_tables(cfg: SpnConfig) -> np.ndarray:
    """tabs[i][v] = the full permuted 64-bit contribution of S(v) at byte i."""
    return _lane_tables(cfg.sbox.table, _ROUND_DEST)


def _round_keys(masters: np.ndarray, cfg: SpnConfig):
    """Yield k_1 .. k_rounds for a batch of uint64 masters, one (len(masters),) array each."""
    prev = masters
    for r in range(1, cfg.rounds + 1):
        acc = _lane_lookup((prev << np.uint64(8)) | (prev >> np.uint64(56)), _KEY_TABLES)
        acc ^= np.uint64(r & 0xFF) << np.uint64(56)
        prev = acc ^ ((prev << np.uint64(24)) | (prev >> np.uint64(40)))
        yield prev


def _run_blocks(rows: int, width: int, masters: np.ndarray, work, keys: int = 0) -> list:
    """[work(blocks) for each thread's range of rows], in range order.

    A row holds `width` state words, plus `keys` round keys when its keys
    are held all at once rather than made one per round; the rows run in
    blocks of _BLOCK_WORDS state words.  The rows are split evenly into
    contiguous ranges, one per thread, on at most as many threads as there
    are CPUs, blocks, and blocks whose words fit in _CALL_WORDS, but at
    least one, so a call holds at most _CALL_WORDS words or one block.
    work(blocks) runs once per range, in its own thread, over an iterator
    of (slice, its masters) per block; one master serves all rows.  The
    calling thread takes the first range, so with one range nothing else
    starts.  If any range raises, the others stop at their next block, and
    the first exception in range order is raised once every thread is done.
    """
    step = _BLOCK_WORDS // width
    count = -(-rows // step)
    ranges = max(1, min(cpu_count(), count, _CALL_WORDS // (step * (width + keys))))
    bounds = [rows * k // ranges for k in range(ranges + 1)]
    stop = threading.Event()
    results = [None] * ranges
    failures = [None] * ranges

    def blocks(lo, hi):
        for start in range(lo, hi, step):
            if stop.is_set():
                return
            sl = slice(start, min(start + step, hi))
            yield sl, masters if len(masters) == 1 else masters[sl]

    def run(k):
        try:
            results[k] = work(blocks(bounds[k], bounds[k + 1]))
        except BaseException as exc:  # re-raised in the calling thread
            failures[k] = exc
            stop.set()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, ranges)]
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


def _encrypt(states: np.ndarray, masters: np.ndarray, cfg: SpnConfig, tabs: np.ndarray) -> np.ndarray:
    """states: (rows, width) uint64 blocks; one master per row, broadcast over width."""
    for k in _round_keys(masters, cfg):
        states = _lane_lookup(states, tabs)
        states ^= k[:, np.newaxis]
    return states


def _as_words(a, what: str) -> np.ndarray:
    """a as uint64; what the cast would garble (a float, bool or object dtype,
    a negative value) is refused first.  uint64 input is not scanned."""
    a = np.asarray(a)
    if a.dtype != np.uint64:
        if not np.issubdtype(a.dtype, np.integer) or (a.size and a.min() < 0):
            raise ValueError(f"{what} must be non-negative integers, got dtype {a.dtype}")
        a = a.astype(np.uint64)
    return a


def _check_blocks(blocks, masters):
    blocks = _as_words(blocks, "blocks")
    masters = _as_words(masters, "masters")
    if blocks.ndim != 1 or masters.ndim != 1 or len(masters) not in (1, len(blocks)):
        raise ValueError("blocks must be 1-D, with one master per block or a single master for all")
    return blocks, masters


def encrypt_blocks(plaintexts: np.ndarray, masters: np.ndarray, cfg: SpnConfig) -> np.ndarray:
    """Vectorized encryption of uint64 blocks (big-endian byte semantics)."""
    pts, masters = _check_blocks(plaintexts, masters)
    tabs = _build_round_tables(cfg)
    out = np.empty_like(pts)

    def work(blocks):
        for sl, mk in blocks:
            out[sl] = _encrypt(pts[sl, np.newaxis], mk, cfg, tabs)[:, 0]

    _run_blocks(len(pts), 1, masters, work)
    return out


def decrypt_blocks(ciphertexts: np.ndarray, masters: np.ndarray, cfg: SpnConfig) -> np.ndarray:
    cts, masters = _check_blocks(ciphertexts, masters)
    inv_tabs = _lane_tables(_inverse(cfg.sbox.table), _BYTE_LANES)  # S is a bijection
    out = np.empty_like(cts)

    def work(blocks):
        for sl, mk in blocks:
            st = cts[sl]
            for k in reversed(list(_round_keys(mk, cfg))):
                st = _lane_lookup(st ^ k, _INV_PERM_TABLES)  # rebinding frees each state before the next lookup
                st = _lane_lookup(st, inv_tabs)
            out[sl] = st

    _run_blocks(len(cts), 1, masters, work, keys=cfg.rounds)  # a row holds all its round keys at once
    return out


# ---------------------------------------------------------------------------
# avalanche experiment


def generate_pairs(trials: int, seed: int) -> np.ndarray:
    """(trials, 2) uint64 array of (plaintext, master) pairs."""
    trials = check_int(trials, "trials must be an integer >= 1", 1)
    rng = np.random.default_rng(check_seed(seed))
    pts = rng.integers(0, 2 ** 64, size=trials, dtype=np.uint64)
    keys = rng.integers(0, 2 ** 64, size=trials, dtype=np.uint64)
    return np.stack([pts, keys], axis=1)


def save_pairs(path, pairs: np.ndarray) -> None:
    """16 bytes per trial: plaintext then master, each little-endian uint64."""
    np.asarray(pairs, "<u8").tofile(path)


def load_pairs(path) -> np.ndarray:
    """The pairs `save_pairs` wrote, as a native, writable (trials, 2) uint64 array."""
    if os.stat(path).st_size % 16:
        raise ValueError("pairs file length must be a multiple of 16 bytes")
    return np.fromfile(path, "<u8").astype(np.uint64, copy=False).reshape(-1, 2)


def avalanche_experiment(cfg: SpnConfig, pairs: np.ndarray) -> AvalancheReport:
    """Mean ciphertext Hamming distance over all single-bit plaintext flips.

    Each (plaintext, master) row of pairs is one trial: a baseline block and
    its 64 one-bit variants under one master key; the report aggregates
    trials x 64 flip events.  Running every S-box on the same pairs (from
    `generate_pairs` or `load_pairs`) is what makes cross-S-box distance
    comparisons meaningful.
    """
    pairs = _as_words(pairs, "pairs")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) == 0:
        raise ValueError("pairs must be a non-empty (trials, 2) array")
    trials = len(pairs)

    tabs = _build_round_tables(cfg)
    flippers = np.uint64(1) << (np.uint64(63) - np.arange(64, dtype=np.uint64))

    def work(blocks):
        hist = np.zeros(65, dtype=np.int64)  # flip events by ciphertext distance
        bit_sums = np.zeros(64, dtype=np.int64)
        for sl, masters in blocks:
            pts = pairs[sl, 0]
            states = np.empty((len(pts), 65), dtype=np.uint64)
            states[:, 0] = pts
            np.bitwise_xor(pts[:, np.newaxis], flippers, out=states[:, 1:])
            ct = _encrypt(states, masters, cfg, tabs)
            dist = np.bitwise_count(ct[:, 1:] ^ ct[:, 0:1])
            hist += np.bincount(dist.ravel(), minlength=65)
            bit_sums += dist.sum(axis=0, dtype=np.int64)
        return hist, bit_sums

    # integer sums: the totals over all trials x 64 flip events do not depend on the split
    per_range = _run_blocks(trials, 65, pairs[:, 1], work)
    hist = sum(h for h, _ in per_range)
    bit_sums = sum(b for _, b in per_range)

    events = trials * 64
    mean = Fraction(sum(d * int(c) for d, c in enumerate(hist)), events)
    return AvalancheReport(
        trials=trials,
        rounds=cfg.rounds,
        mean_flips=mean,
        distance_from_32=abs(mean - 32),
        mean_abs_deviation=Fraction(sum(abs(d - 32) * int(c) for d, c in enumerate(hist)), events),
        per_input_bit_means=tuple(Fraction(int(c), trials) for c in bit_sums),
    )
