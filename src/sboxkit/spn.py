"""A 64-bit toy SPN and its avalanche experiment.

Round = bytewise S-box, byte shuffle, bit permutation, round-key XOR; no
whitening key and no special last round.  Bit 0 is the most significant
bit of byte 0, and permutations are destination <- source: output position
i takes input position p[i].

Two implementations share the test surface: a straight scalar encryption
on 8-byte `bytes` (the independent reference, whose `key_schedule(master,
cfg)` returns the cfg.rounds round keys as a plain tuple), and a vectorized
cipher on uint64 arrays.  `_lane_tables` folds S-box plus both permutations
of a byte into a 256-entry table of 64-bit masks, and `_pair_tables` XORs the
tables of the two bytes of each uint16 of the state into one 2^16-entry
table: a round is four gathers and three XORs.  The key nibble S-box and the
inverse S-box move no bit, so each is a `_byte_map` of 2^16 uint16 entries
that maps both bytes of a uint16 at once.  Only the S-box varies, so the key
map and the inverse permutation's byte tables (16 KB) are module constants.
`decrypt_block` is `decrypt_blocks` on one element.
`encrypt_block` runs `_shuffle_bytes` and `_permute_bits` on the bundled
constants only, so neither checks its permutation.  `_check_bytes`,
`_check_words` and `_check_pairs` hold the 8-byte, uint64 and pair rules.

The avalanche experiment has one input, a (trials, 2) array of (plaintext,
master) pairs: `generate_pairs(trials, seed)` draws one and `save_pairs` /
`load_pairs` store it, so every S-box compared runs on the same trials.

Every bulk call runs in blocks of `_BLOCK_WORDS` uint64 state words (32,768
blocks, or 504 avalanche trials of 65 states) with round keys yielded one
at a time by `_round_keys`.  Each avalanche block is reduced into an exact
65-bin histogram of flip counts and per-input-bit sums, so its memory is
the 16 B per trial of the pairs plus a constant per thread.

`_run_blocks` is the one block loop: `core.run_ranges` splits the rows, and
the ranges run side by side in blocks of `_BLOCK_WORDS` words, as numpy's
lookups and XORs release the GIL.  No result depends on the split: the
ciphers write disjoint slices of their output, and the avalanche experiment
adds up each range's integer histogram and bit sums.  The range threads share
the call's 2 MB of round tables, and a call holds at most `_CALL_WORDS` words,
two blocks of state: at most two threads whatever the CPU count, and one range
when a block alone holds more, as in decryption, which holds every round key of its block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (NotBijectiveError, SBox, check_int, check_int_array, check_seed, csv_row, exact_decimal,
                   inverse_sbox, is_bijective, read_only, run_ranges)
from .data import DILLON_PERMUTATION, KEY_SBOX, PBOX8

BLOCK_BYTES = 8
_BLOCK_WORDS = 1 << 15  # uint64 state words per bulk block: 256 KB, inside L2
_CALL_WORDS = 1 << 16  # words that all of a call's blocks in flight may hold: two blocks of state
AVALANCHE_CSV_HEADER = "name,rounds,distance"


def _check_bytes(block: bytes, what: str) -> None:
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"{what} must be 8 bytes")


def _check_words(values, what: str) -> np.ndarray:
    return check_int_array(values, f"{what} must be non-negative integers below 2^64", 0, 2**64 - 1, np.uint64)


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
    mean_abs_deviation: Fraction  # mean |flips - 32|, exposed alongside
    per_input_bit_means: tuple

    @property
    def distance_from_32(self) -> Fraction:
        return abs(self.mean_flips - 32)

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
        return csv_row(name, (self.rounds, self.distance_from_32))


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
    _check_bytes(master, "master key")
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


def _shuffle_bytes(state: bytes, p) -> bytes:
    """Output byte i is state byte p[i], for an 8-entry permutation p such as PBOX8."""
    return bytes(state[i] for i in p)


def _permute_bits(state: bytes, p) -> bytes:
    """Output bit d is state bit p[d], bit 0 the most significant, for a 64-entry permutation p."""
    bits = f"{int.from_bytes(state, 'big'):064b}"
    return int("".join(bits[i] for i in p), 2).to_bytes(BLOCK_BYTES, "big")


def encrypt_block(plaintext: bytes, master: bytes, cfg: SpnConfig) -> bytes:
    _check_bytes(plaintext, "plaintext")
    tab = cfg.sbox.table.tolist()
    state = bytes(plaintext)
    for key in key_schedule(master, cfg):
        state = _permute_bits(_shuffle_bytes(bytes(tab[b] for b in state), PBOX8), DILLON_PERMUTATION)
        state = bytes(a ^ b for a, b in zip(state, key))
    return state


def decrypt_block(ciphertext: bytes, master: bytes, cfg: SpnConfig) -> bytes:
    _check_bytes(ciphertext, "ciphertext")
    _check_bytes(master, "master key")
    return int_to_block(decrypt_blocks([block_to_int(ciphertext)], [block_to_int(master)], cfg)[0])


# ---------------------------------------------------------------------------
# vectorized path


def _lane_tables(values, positions) -> np.ndarray:
    """tabs[i][v] = values[v] as block bits: its bit r (MSB first) at block
    bit positions[i][r].  values has 256 bytes, positions shape (8, 8)."""
    bits = (np.asarray(values, dtype=np.uint64) >> np.arange(7, -1, -1, dtype=np.uint64)[:, np.newaxis]) & 1
    shifts = np.uint64(63) - np.asarray(positions, dtype=np.uint64)
    return (bits << shifts[:, :, np.newaxis]).sum(axis=1)  # distinct bits per lane: the sum is their OR


# memory column of block byte i (byte 0 the most significant) in a uint64's bytes; its own inverse
_BYTE_COLUMNS = tuple(range(7, -1, -1)) if np.little_endian else tuple(range(8))


def _pair_tables(tabs: np.ndarray) -> np.ndarray:
    """(4, 2^16) tables from the (8, 256) lane tables: column c at a uint16 v is
    tabs[i][v >> 8] ^ tabs[i + 1][v & 0xFF] for the block bytes i, i + 1 at memory offsets 2c, 2c + 1."""
    pairs = np.empty((4, 256, 256), dtype=np.uint64)
    for c in range(4):
        i = min(_BYTE_COLUMNS[2 * c:2 * c + 2])  # a uint16's high byte is the more significant block byte
        np.bitwise_xor.outer(tabs[i], tabs[i + 1], out=pairs[c])
    return pairs.reshape(4, 1 << 16)


def _lane_lookup(st: np.ndarray, tabs: np.ndarray) -> np.ndarray:
    """XOR over memory columns c of tabs[c][column c of st]: 8 byte or 4 uint16 columns, one per table."""
    st = np.ascontiguousarray(st)  # a narrow view needs whole contiguous words
    b = st.view(f"u{8 // len(tabs)}").reshape(st.shape + (len(tabs),))
    # a column never leaves its table, so no index wraps; mode="raise" would buffer out
    acc = np.take(tabs[0], b[..., 0], mode="wrap")
    tmp = np.empty_like(acc)
    for c in range(1, len(tabs)):
        acc ^= np.take(tabs[c], b[..., c], out=tmp, mode="wrap")
    return acc


def _byte_map(values) -> np.ndarray:
    """The 2^16 uint16 entries that map both bytes of a uint16 through the 256 values at once."""
    v = np.asarray(values, dtype=np.uint16)
    return (v[:, np.newaxis] << 8 | v).ravel()


def _map_bytes(words: np.ndarray, byte_map: np.ndarray) -> np.ndarray:
    """1-D contiguous uint64 words, each byte mapped in place through a `_byte_map` (take reads it as intp first)."""
    flat = words.view(np.uint16)
    for lo in range(0, flat.size, _BLOCK_WORDS):  # a quarter block at a time: 256 KB of intp indices
        np.take(byte_map, flat[lo:lo + _BLOCK_WORDS], out=flat[lo:lo + _BLOCK_WORDS], mode="wrap")
    return words


# Both permutations chained: output bit d <- byte-shuffled bit DILLON_PERMUTATION[d],
# so ciphertext bit 8i+r came from block bit _BIT_SOURCES[i][r].  Every call
# shares these tables, so they are read-only.
_BIT_SOURCES = read_only(np.array([PBOX8[p >> 3] * 8 + (p & 7) for p in DILLON_PERMUTATION]).reshape(8, 8))
_ROUND_DEST = read_only(inverse_sbox(SBox(6, _BIT_SOURCES.ravel())).table.reshape(8, 8))  # 64 positions: 6 bits
_INV_PERM_TABLES = read_only(_lane_tables(np.arange(256), _BIT_SOURCES)[list(_BYTE_COLUMNS)])  # by memory column
# the key S-box on whole bytes: byte (hi, lo) -> KEY_SBOX[hi] << 4 | KEY_SBOX[lo]
_KEY_BYTE_MAP = read_only(_byte_map([KEY_SBOX[v >> 4] << 4 | KEY_SBOX[v & 0xF] for v in range(256)]))


def _build_round_tables(cfg: SpnConfig) -> np.ndarray:
    """tabs[c][v] = the full permuted 64-bit contribution of S applied to uint16 column c = v."""
    return _pair_tables(_lane_tables(cfg.sbox.table, _ROUND_DEST))


def _round_keys(masters: np.ndarray, cfg: SpnConfig):
    """Yield k_1 .. k_rounds for a batch of uint64 masters, one (len(masters),) array each."""
    prev = masters
    for r in range(1, cfg.rounds + 1):
        acc = _map_bytes((prev << np.uint64(8)) | (prev >> np.uint64(56)), _KEY_BYTE_MAP)
        acc ^= np.uint64(r & 0xFF) << np.uint64(56)
        prev = acc ^ ((prev << np.uint64(24)) | (prev >> np.uint64(40)))
        yield prev


def _run_blocks(rows: int, width: int, masters: np.ndarray, work, keys: int = 0) -> list:
    """[work(blocks) for each thread's range of rows], in range order.

    A row holds `width` state words, plus `keys` round keys when its keys
    are held all at once rather than made one per round; the rows run in
    blocks of _BLOCK_WORDS state words.  `run_ranges` splits the rows into
    at most as many ranges as there are blocks and blocks whose words fit in
    _CALL_WORDS, so a call holds at most _CALL_WORDS words or one block.
    work(blocks) runs once per range over an iterator of (slice, its masters)
    per block; one master serves all rows.  If any range raises, the others
    stop at their next block.
    """
    step = _BLOCK_WORDS // width
    most = min(-(-rows // step), _CALL_WORDS // (step * (width + keys)))  # the blocks, and those within budget

    def blocks(lo, hi, stop):
        for start in range(lo, hi, step):
            if stop.is_set():
                return
            sl = slice(start, min(start + step, hi))
            yield sl, masters if len(masters) == 1 else masters[sl]

    return run_ranges(rows, most, lambda lo, hi, stop: work(blocks(lo, hi, stop)))


def _encrypt(states: np.ndarray, masters: np.ndarray, cfg: SpnConfig, tabs: np.ndarray) -> np.ndarray:
    """states: (rows, width) uint64 blocks; one master per row, broadcast over width."""
    for k in _round_keys(masters, cfg):
        states = _lane_lookup(states, tabs)
        states ^= k[:, np.newaxis]
    return states


def _check_blocks(blocks, masters):
    blocks, masters = _check_words(blocks, "blocks"), _check_words(masters, "masters")
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
    inv_map = _byte_map(inverse_sbox(cfg.sbox).table)
    out = np.empty_like(cts)

    def work(blocks):
        for sl, mk in blocks:
            st = cts[sl]
            for k in reversed(list(_round_keys(mk, cfg))):
                # rebinding frees each state before the next lookup; the lookup's new state maps in place
                st = _map_bytes(_lane_lookup(st ^ k, _INV_PERM_TABLES), inv_map)
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


def _check_pairs(pairs) -> np.ndarray:
    pairs = _check_words(pairs, "pairs")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) == 0:
        raise ValueError("pairs must be a non-empty (trials, 2) array")
    return pairs


def save_pairs(path, pairs: np.ndarray) -> None:
    """16 bytes per trial: plaintext then master, each little-endian uint64; the file keeps no shape."""
    _check_pairs(pairs).astype("<u8", copy=False).tofile(path)


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
    pairs = _check_pairs(pairs)
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
    return AvalancheReport(
        trials=trials,
        rounds=cfg.rounds,
        mean_flips=Fraction(sum(d * int(c) for d, c in enumerate(hist)), events),
        mean_abs_deviation=Fraction(sum(abs(d - 32) * int(c) for d, c in enumerate(hist)), events),
        per_input_bit_means=tuple(Fraction(int(c), trials) for c in bit_sums),
    )
