import os
import re
import struct
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import spn
from sboxkit.data import DILLON_PERMUTATION, KEY_SBOX, PBOX8

import reference


@pytest.fixture(scope="module")
def cfg1(aes):
    return spn.SpnConfig(sbox=aes, rounds=1)


@pytest.fixture(scope="module")
def cfg4(aes):
    return spn.SpnConfig(sbox=aes, rounds=4)


def _random_config(seed, rounds):
    """A random S-box in the cipher."""
    rng = np.random.default_rng(seed)
    return spn.SpnConfig(sbox=sk.SBox(8, rng.permutation(256)), rounds=rounds)


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_narrow_sbox(dillon):
    with pytest.raises(ValueError, match="8x8"):
        spn.SpnConfig(sbox=dillon, rounds=1)


def test_config_rejects_non_bijective_sbox():
    s = sk.SBox(8, np.zeros(256, dtype=np.int64))
    with pytest.raises(sk.NotBijectiveError):
        spn.SpnConfig(sbox=s, rounds=1)


def test_config_rejects_negative_rounds(aes):
    for rounds in (-1, True, 2.5):
        with pytest.raises(ValueError, match="rounds"):
            spn.SpnConfig(sbox=aes, rounds=rounds)


def test_config_rejects_bad_permutations(aes):
    # the permutations and key S-box are the bundled constants, not settable
    for field, value in (("pbox8", PBOX8), ("pbox64", DILLON_PERMUTATION), ("key_sbox", tuple(range(16)))):
        with pytest.raises(TypeError, match=field):
            spn.SpnConfig(sbox=aes, rounds=1, **{field: value})


# ---------------------------------------------------------------------------
# key schedule


def test_key_schedule_first_key_from_zero(cfg1):
    keys = spn.key_schedule(b"\x00" * 8, cfg1)
    assert len(keys) == 1
    assert keys[0] == bytes([0x01, 0, 0, 0, 0, 0, 0, 0])


def test_key_schedule_zero_rounds(cfg1):
    assert spn.key_schedule(b"\x00" * 8, replace(cfg1, rounds=0)) == ()


def test_key_schedule_rejects_short_master(cfg1):
    with pytest.raises(ValueError, match="8 bytes"):
        spn.key_schedule(b"\x00" * 7, cfg1)


def test_key_schedule_deterministic(cfg4):
    master = bytes(range(8))
    assert spn.key_schedule(master, cfg4) == spn.key_schedule(master, cfg4)


def test_key_schedule_bulk_matches_scalar(cfg4):
    rng = np.random.default_rng(50)
    masters = rng.integers(0, 2 ** 64, size=16, dtype=np.uint64)
    bulk = list(spn._round_keys(masters, cfg4))
    assert len(bulk) == 4
    for col, m in enumerate(masters):
        scalar = spn.key_schedule(spn.int_to_block(int(m)), cfg4)
        for r in range(4):
            assert int(bulk[r][col]) == spn.block_to_int(scalar[r])


# ---------------------------------------------------------------------------
# permutation layers


def test_pbox8_is_a_single_cycle():
    cs = sk.cycle_decomposition(sk.SBox(3, np.array(PBOX8)))
    assert cs.lengths == (8,)


def test_apply_pbox8_moves_bytes():
    state = bytes(range(8))
    out = spn._shuffle_bytes(state, PBOX8)
    assert out == bytes(PBOX8)  # out[i] = state[p[i]] and state[i] = i


def test_apply_pbox64_round_trip():
    p = DILLON_PERMUTATION
    inv = [0] * 64
    for i, v in enumerate(p):
        inv[v] = i
    rng = np.random.default_rng(51)
    for _ in range(10):
        state = bytes(int(v) for v in rng.integers(0, 256, size=8))
        assert spn._permute_bits(spn._permute_bits(state, p), inv) == state


def test_apply_pbox64_single_bit():
    # output bit d reads input bit p[d]: set exactly that source bit
    p = DILLON_PERMUTATION
    src = p[0]
    state = bytearray(8)
    state[src >> 3] |= 1 << (7 - (src & 7))
    out = spn._permute_bits(bytes(state), p)
    assert out[0] & 0x80
    assert sum(v.bit_count() for v in out) == 1


# ---------------------------------------------------------------------------
# block encryption


def test_known_one_round_ciphertext(cfg1):
    ct = spn.encrypt_block(b"\x00" * 8, b"\x00" * 8, cfg1)
    assert ct.hex() == "4dc33a3e938985eb"


def test_one_round_trace_through_layers(cfg1, aes):
    # zero plaintext: the S-box layer gives eight copies of S(0), the byte
    # shuffle is then a no-op, and the key XOR only touches byte 0
    after_sub = bytes([aes[0]] * 8)
    assert spn._shuffle_bytes(after_sub, PBOX8) == after_sub
    diffused = spn._permute_bits(after_sub, DILLON_PERMUTATION)
    assert diffused.hex() == "4cc33a3e938985eb"
    key = spn.key_schedule(b"\x00" * 8, cfg1)[0]
    assert bytes(a ^ b for a, b in zip(diffused, key)).hex() == "4dc33a3e938985eb"


def test_zero_rounds_is_identity(aes):
    cfg = spn.SpnConfig(sbox=aes, rounds=0)
    pt = bytes(range(8))
    assert spn.encrypt_block(pt, b"\xaa" * 8, cfg) == pt


@pytest.mark.parametrize("rounds", [1, 4, 12])
def test_scalar_round_trip(aes, rounds):
    cfg = spn.SpnConfig(sbox=aes, rounds=rounds)
    rng = np.random.default_rng(rounds)
    for _ in range(5):
        pt = bytes(int(v) for v in rng.integers(0, 256, size=8))
        master = bytes(int(v) for v in rng.integers(0, 256, size=8))
        ct = spn.encrypt_block(pt, master, cfg)
        assert spn.decrypt_block(ct, master, cfg) == pt
        if rounds:
            assert ct != pt


def test_encrypt_rejects_bad_lengths(cfg1):
    with pytest.raises(ValueError):
        spn.encrypt_block(b"\x00" * 7, b"\x00" * 8, cfg1)
    with pytest.raises(ValueError):
        spn.decrypt_block(b"\x00" * 9, b"\x00" * 8, cfg1)
    for master in (b"\x00" * 7, b"\x00" * 9):
        with pytest.raises(ValueError, match="master key must be 8 bytes"):
            spn.decrypt_block(b"\x00" * 8, master, cfg1)


def test_scalar_oracle_shares_nothing_with_bulk(cfg1, monkeypatch):
    # tests and perfbench check the bulk cipher against this path, so it must not run it
    def bulk(*args):
        raise AssertionError("the scalar cipher reached the bulk path")
    for helper in ("_lane_lookup", "_lane_tables", "_pair_tables", "_byte_map", "_map_bytes"):
        monkeypatch.setattr(spn, helper, bulk)
    assert spn.key_schedule(b"\x00" * 8, cfg1)[0] == bytes([0x01] + [0] * 7)
    assert spn.encrypt_block(b"\x00" * 8, b"\x00" * 8, cfg1).hex() == "4dc33a3e938985eb"
    p = DILLON_PERMUTATION
    src = bytearray(8)
    src[p[0] >> 3] |= 1 << (7 - (p[0] & 7))
    assert spn._permute_bits(bytes(src), p) == b"\x80" + b"\x00" * 7
    inv = tuple(int(v) for v in np.argsort(p))
    for state in (bytes(range(8)), bytes.fromhex("4dc33a3e938985eb")):
        assert spn._permute_bits(spn._permute_bits(state, p), inv) == state
    with pytest.raises(AssertionError, match="bulk path"):
        spn.encrypt_blocks(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64), cfg1)


def test_reference_cipher_checks_the_fixed_permutations_zero_times(aes, monkeypatch):
    # the round applies the bundled constants directly, so no round runs the array rule
    calls = []
    check = spn.check_int_array

    def counted(*args):
        calls.append(args[1])
        return check(*args)

    cfg = spn.SpnConfig(sbox=aes, rounds=12)
    monkeypatch.setattr(spn, "check_int_array", counted)
    spn.encrypt_block(bytes(range(8)), bytes(range(8, 16)), cfg)
    assert calls == []
    spn._check_words([1], "blocks")  # the count sees the rule's one caller in spn
    assert calls == ["blocks must be non-negative integers below 2^64"]


@pytest.mark.parametrize("rounds", [1, 4, 12])
def test_bulk_matches_scalar(aes, rounds):
    cfg = spn.SpnConfig(sbox=aes, rounds=rounds)
    rng = np.random.default_rng(60 + rounds)
    pts = rng.integers(0, 2 ** 64, size=20, dtype=np.uint64)
    masters = rng.integers(0, 2 ** 64, size=20, dtype=np.uint64)
    cts = spn.encrypt_blocks(pts, masters, cfg)
    for pt, master, ct in zip(pts, masters, cts):
        scalar = spn.encrypt_block(spn.int_to_block(int(pt)), spn.int_to_block(int(master)), cfg)
        assert spn.block_to_int(scalar) == int(ct)
    assert (spn.decrypt_blocks(cts, masters, cfg) == pts).all()


def test_bulk_with_non_aes_sbox(cfg4):
    rng = np.random.default_rng(61)
    other = spn.SpnConfig(sbox=sk.SBox(8, rng.permutation(256)), rounds=4)
    pts = rng.integers(0, 2 ** 64, size=8, dtype=np.uint64)
    masters = rng.integers(0, 2 ** 64, size=8, dtype=np.uint64)
    assert (spn.decrypt_blocks(spn.encrypt_blocks(pts, masters, other), masters, other) == pts).all()
    assert not (spn.encrypt_blocks(pts, masters, other) == spn.encrypt_blocks(pts, masters, cfg4)).all()


def test_bulk_matches_scalar_with_custom_permutations_and_key_sbox():
    # the permutations and key S-box are fixed; the bulk tables built from them
    # at import must agree with the scalar layers and key schedule for any S-box
    rng = np.random.default_rng(62)
    cfg = spn.SpnConfig(sbox=sk.SBox(8, rng.permutation(256)), rounds=5)
    pts = rng.integers(0, 2 ** 64, size=16, dtype=np.uint64)
    masters = rng.integers(0, 2 ** 64, size=16, dtype=np.uint64)
    cts = spn.encrypt_blocks(pts, masters, cfg)
    keys = np.stack(list(spn._round_keys(masters, cfg)))
    for col, (pt, master, ct) in enumerate(zip(pts, masters, cts)):
        master_block = spn.int_to_block(int(master))
        scalar = spn.encrypt_block(spn.int_to_block(int(pt)), master_block, cfg)
        assert spn.block_to_int(scalar) == int(ct)
        scalar_keys = spn.key_schedule(master_block, cfg)
        assert [int(k) for k in keys[:, col]] == [spn.block_to_int(k) for k in scalar_keys]
    assert (spn.decrypt_blocks(cts, masters, cfg) == pts).all()


def test_lane_lookup_matches_shift_and_mask_oracle():
    tabs = spn._lane_tables(_random_config(63, 1).sbox.table, spn._ROUND_DEST)
    pair_tabs = spn._pair_tables(tabs)
    pairs = spn.generate_pairs(300, 63)
    wide = np.random.default_rng(63).integers(0, 2 ** 64, size=(65, 300), dtype=np.uint64)
    for st in (pairs[:, 0], pairs[:, 1].copy(), wide.T, wide.T.copy(), wide.T[::3, 1:], wide[:, :0]):
        assert (spn._lane_lookup(st, pair_tabs) == reference.lane_lookup_shifts(st, tabs)).all()


# block byte at each memory offset of a uint64, read from memory: byte i of this word holds i
_LANE_AT_OFFSET = np.array([0x0001020304050607], dtype=np.uint64).view(np.uint8)


@pytest.mark.parametrize("box", ["aes", "random"])
def test_pair_tables_match_the_byte_tables_at_every_uint16(aes, box):
    # each uint16 value's two memory bytes, read from memory rather than derived from the byte order
    mem = np.arange(2 ** 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
    cfg = spn.SpnConfig(sbox=aes, rounds=1) if box == "aes" else _random_config(71, 1)
    tabs = spn._lane_tables(cfg.sbox.table, spn._ROUND_DEST)
    pair_tabs = spn._build_round_tables(cfg)
    assert pair_tabs.shape == (4, 2 ** 16) and pair_tabs.dtype == np.uint64
    for c in range(4):
        expected = tabs[_LANE_AT_OFFSET[2 * c]][mem[:, 0]] ^ tabs[_LANE_AT_OFFSET[2 * c + 1]][mem[:, 1]]
        assert (pair_tabs[c] == expected).all(), c


def _byte_map_oracle(byte):
    """A uint16 map from a per-byte function, one byte at a time in Python."""
    return [int.from_bytes(bytes(byte(b) for b in v.to_bytes(2, "big")), "big") for v in range(2 ** 16)]


def test_key_byte_map_is_the_key_sbox_on_both_bytes():
    ks = KEY_SBOX
    expected = _byte_map_oracle(lambda b: ks[b >> 4] << 4 | ks[b & 0xF])
    assert spn._KEY_BYTE_MAP.dtype == np.uint16
    assert spn._KEY_BYTE_MAP.tolist() == expected


def test_inverse_sbox_byte_map_is_the_inverse_sbox_on_both_bytes(aes):
    for box in (aes, _random_config(72, 1).sbox):
        table = box.table.tolist()
        inverse = {y: x for x, y in enumerate(table)}
        byte_map = spn._byte_map(sk.inverse_sbox(box).table)
        assert byte_map.dtype == np.uint16
        assert byte_map.tolist() == _byte_map_oracle(inverse.__getitem__)


def test_bulk_with_strided_columns_matches_scalar(cfg4):
    pairs = spn.generate_pairs(12, 64)
    cts = spn.encrypt_blocks(pairs[:, 0], pairs[:, 1], cfg4)
    for (pt, master), ct in zip(pairs.tolist(), cts):
        scalar = spn.encrypt_block(spn.int_to_block(pt), spn.int_to_block(master), cfg4)
        assert spn.block_to_int(scalar) == int(ct)
    assert (spn.decrypt_blocks(cts, pairs[:, 1], cfg4) == pairs[:, 0]).all()


@pytest.mark.parametrize("cipher", ["encrypt_blocks", "decrypt_blocks"])
def test_bulk_shape_rule(cfg1, cipher):
    fn = getattr(spn, cipher)
    one, three = np.arange(1, dtype=np.uint64), np.arange(3, dtype=np.uint64)
    for blocks, masters in ((one, three), (three, three[:2]), (three, three[:0]),
                            (np.uint64(5), one), (one, np.uint64(5)), (np.uint64(5), np.uint64(5)),
                            (three.reshape(3, 1), three), (three, three.reshape(3, 1))):
        with pytest.raises(ValueError, match="one master per block or a single master for all"):
            fn(blocks, masters, cfg1)
    assert fn(three[:0], three[:0], cfg1).shape == (0,)
    assert fn(three[:0], one, cfg1).shape == (0,)


@pytest.mark.parametrize("rounds", [1, 4])
def test_bulk_block_boundaries_match_scalar(aes, rounds):
    rows = spn._BLOCK_WORDS  # one uint64 state word per block
    total = 3 * rows + 1
    pts, masters = np.random.default_rng(68 + rounds).integers(0, 2 ** 64, size=(2, total), dtype=np.uint64)
    for cfg in (spn.SpnConfig(sbox=aes, rounds=rounds), _random_config(68, rounds)):
        cts = spn.encrypt_blocks(pts, masters, cfg)
        assert (spn.decrypt_blocks(cts, masters, cfg) == pts).all()
        for m in (rows - 1, rows, rows + 1):
            assert (spn.encrypt_blocks(pts[:m], masters[:m], cfg) == cts[:m]).all(), m
            assert (spn.decrypt_blocks(cts[:m], masters[:m], cfg) == pts[:m]).all(), m
        for i in (0, rows - 1, rows, rows + 1, 2 * rows, total - 1):
            scalar = spn.encrypt_block(spn.int_to_block(int(pts[i])), spn.int_to_block(int(masters[i])), cfg)
            assert spn.block_to_int(scalar) == int(cts[i]), i
        # a single master serves every block, across block boundaries too
        one = spn.encrypt_blocks(pts, masters[:1], cfg)
        assert (one == spn.encrypt_blocks(pts, np.repeat(masters[:1], total), cfg)).all()
        assert (spn.decrypt_blocks(one, masters[:1], cfg) == pts).all()
        for i in (0, rows, total - 1):
            scalar = spn.encrypt_block(spn.int_to_block(int(pts[i])), spn.int_to_block(int(masters[0])), cfg)
            assert spn.block_to_int(scalar) == int(one[i]), i


def test_bulk_memory_bound(aes, traced_peak_mb):
    # blocks run _BLOCK_WORDS at a time and round keys are never held for the whole batch
    cfg = spn.SpnConfig(sbox=aes, rounds=12)
    pts, masters = np.random.default_rng(69).integers(0, 2 ** 64, size=(2, 100_000), dtype=np.uint64)
    cts = spn.encrypt_blocks(pts, masters, cfg)
    assert traced_peak_mb(lambda: spn.encrypt_blocks(pts, masters, cfg)) < 8
    assert traced_peak_mb(lambda: spn.decrypt_blocks(cts, masters, cfg)) < 8


@pytest.mark.parametrize("rounds", [4, 12])
def test_thread_count_does_not_change_results(aes, rounds, monkeypatch):
    # the ranges' outputs are disjoint slices and their avalanche sums are integers
    cfg = spn.SpnConfig(sbox=aes, rounds=rounds)
    trials = spn._BLOCK_WORDS // 65
    pairs = spn.generate_pairs(3 * trials + 1, 70)
    words = spn._BLOCK_WORDS
    pts, masters = np.random.default_rng(70).integers(0, 2 ** 64, size=(2, 3 * words + 1), dtype=np.uint64)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible: a lost update would show
    try:
        for cpus in (1, None, 2, 3, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            reports = [spn.avalanche_experiment(cfg, pairs[:m])
                       for m in (trials - 1, trials, trials + 1, 3 * trials + 1)]
            cts = [spn.encrypt_blocks(pts[:m], masters[:m], cfg)
                   for m in (words - 1, words, words + 1, 3 * words + 1)]
            backs = [spn.decrypt_blocks(ct, masters[:len(ct)], cfg) for ct in cts]
            runs[cpus] = reports, [r.to_dict() for r in reports], cts, backs
    finally:
        sys.setswitchinterval(interval)
    reports, docs, cts, backs = runs[1]
    assert all((back == pts[:len(back)]).all() for back in backs)
    for cpus, (other_reports, other_docs, other_cts, other_backs) in runs.items():
        assert other_reports == reports and other_docs == docs, cpus
        assert all((a == b).all() for a, b in zip(other_cts + other_backs, cts + backs)), cpus


def test_threads_never_exceed_cpus_blocks_or_budget(aes, monkeypatch):
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    cfg = spn.SpnConfig(sbox=aes, rounds=1)
    words = spn._BLOCK_WORDS
    budget = spn._CALL_WORDS // words  # full blocks of state a call may hold at once
    pts = np.arange(3 * words, dtype=np.uint64)
    for cpus in (None, 1, 2, 3, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for blocks in (0, 1, 2, 3):
            started.clear()
            spn.encrypt_blocks(pts[:blocks * words], pts[:1], cfg)
            # the calling thread runs the first range itself
            assert len(started) == max(0, min(cpus or 1, blocks, budget) - 1), (cpus, blocks)
            started.clear()
            # decryption holds every round key of its block, which fills the budget
            spn.decrypt_blocks(pts[:blocks * words], pts[:1], cfg)
            assert started == [], (cpus, blocks)
        started.clear()
        spn.avalanche_experiment(cfg, spn.generate_pairs(2 * (words // 65), 71))  # two blocks
        assert len(started) == min(cpus or 1, 2, budget) - 1, cpus


def test_rows_split_evenly_in_blocks_of_at_most_block_words(aes, monkeypatch):
    # whole blocks would split 2.5 blocks as two against a half; even ranges balance the work
    blocks = {}
    encrypt = spn._encrypt

    def recording_encrypt(states, *args):
        blocks.setdefault(threading.get_ident(), []).append(len(states))
        return encrypt(states, *args)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(spn, "_encrypt", recording_encrypt)
    rows = 5 * spn._BLOCK_WORDS // 2 + 1
    pts = np.arange(rows, dtype=np.uint64)
    spn.encrypt_blocks(pts, pts[:1], spn.SpnConfig(sbox=aes, rounds=1))
    assert sorted(sum(sizes) for sizes in blocks.values()) == [rows // 2, rows - rows // 2]
    assert max(max(sizes) for sizes in blocks.values()) == spn._BLOCK_WORDS


def test_memory_bound_does_not_grow_with_cpus(aes, traced_peak_mb, monkeypatch):
    # the threads share one budget of words, so a host with more CPUs holds no more
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cfg = spn.SpnConfig(sbox=aes, rounds=12)
    pts, masters = np.random.default_rng(69).integers(0, 2 ** 64, size=(2, 100_000), dtype=np.uint64)
    cts = spn.encrypt_blocks(pts, masters, cfg)
    assert traced_peak_mb(lambda: spn.encrypt_blocks(pts, masters, cfg)) < 8
    assert traced_peak_mb(lambda: spn.decrypt_blocks(cts, masters, cfg)) < 8
    pairs = spn.generate_pairs(50_000, 67)
    assert traced_peak_mb(lambda: spn.avalanche_experiment(replace(cfg, rounds=1), pairs)) < 8


def test_error_in_a_later_range_stops_every_range(aes, monkeypatch):
    class Failure(Exception):
        pass

    caller, threads_before = threading.get_ident(), threading.active_count()
    caller_blocks = []
    caller_started = threading.Event()
    encrypt = spn._encrypt

    def failing_encrypt(states, *args):
        if threading.get_ident() != caller:
            caller_started.wait(30)
            raise Failure("second range")
        caller_blocks.append(len(states))
        caller_started.set()
        # let the second range fail and end first, so the caller's next block boundary sees it
        deadline = time.monotonic() + 30
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.001)
        return encrypt(states, *args)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(spn, "_encrypt", failing_encrypt)
    pts = np.zeros(6 * spn._BLOCK_WORDS, dtype=np.uint64)  # three blocks per range
    with pytest.raises(Failure, match="second range"):
        spn.encrypt_blocks(pts, pts[:1], spn.SpnConfig(sbox=aes, rounds=1))
    assert caller_blocks == [spn._BLOCK_WORDS]  # the first range stopped after its first block
    assert threading.active_count() == threads_before


def test_a_thread_that_cannot_start_stops_the_call(aes, monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    ran = []
    threads_before = threading.active_count()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(spn, "_encrypt", lambda *args: ran.append(1))
    pts = np.zeros(2 * spn._BLOCK_WORDS, dtype=np.uint64)  # two blocks: one range per thread
    with pytest.raises(RuntimeError, match="can't start new thread"):
        spn.encrypt_blocks(pts, pts[:1], spn.SpnConfig(sbox=aes, rounds=1))
    assert ran == []  # the calling thread's range never ran
    assert threading.active_count() == threads_before


def test_key_tables_built_once_per_key_sbox(aes, monkeypatch):
    # the key byte map and inverse-permutation tables are built once, at import; a bulk
    # call builds only the tables of its S-box, once per call and never per block or thread
    built = {"_lane_tables": 0, "_pair_tables": 0, "_byte_map": 0}

    def counted(name, build):
        def fn(*args):
            built[name] += 1
            return build(*args)
        return fn

    for name in built:
        monkeypatch.setattr(spn, name, counted(name, getattr(spn, name)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = spn.SpnConfig(sbox=aes, rounds=2)
    pairs = spn.generate_pairs(3 * (spn._BLOCK_WORDS // 65) + 1, 5)  # four blocks over two ranges
    list(spn._round_keys(pairs[:, 1], cfg))
    assert list(built.values()) == [0, 0, 0]  # the key schedule builds no table
    report = spn.avalanche_experiment(cfg, pairs)
    assert list(built.values()) == [1, 1, 0]  # one round-table set, not one per block or per thread
    assert report == reference.avalanche_unblocked(cfg, pairs)
    assert list(built.values()) == [2, 2, 0]  # encrypt_blocks builds its round tables and nothing else
    spn.decrypt_blocks(pairs[:, 0], pairs[:, 1], cfg)
    assert list(built.values()) == [2, 2, 1]  # the inverse S-box map; the inverse permutation is a constant


def test_every_input_bit_changes_the_ciphertext(cfg4):
    pt = np.uint64(0x0123456789ABCDEF)
    master = np.array([7], dtype=np.uint64)
    flips = np.uint64(1) << (np.uint64(63) - np.arange(64, dtype=np.uint64))
    base = spn.encrypt_blocks(np.array([pt]), master, cfg4)[0]
    variants = spn.encrypt_blocks(pt ^ flips, np.repeat(master, 64), cfg4)
    assert (variants != base).all()


def test_block_int_conversions():
    assert spn.block_to_int(b"\x01" + b"\x00" * 7) == 1 << 56
    for v in (0, 1, 0x4DC33A3E938985EB, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
        assert spn.block_to_int(spn.int_to_block(v)) == v
    for v in (-1, 2 ** 64, 2.5, True):  # int() would truncate 2.5 and read True as 1
        with pytest.raises(ValueError, match="block"):
            spn.int_to_block(v)


# ---------------------------------------------------------------------------
# avalanche experiment


def test_avalanche_zero_rounds_exact(aes):
    cfg = spn.SpnConfig(sbox=aes, rounds=0)
    rep = spn.avalanche_experiment(cfg, spn.generate_pairs(50, 1))
    assert rep.mean_flips == 1  # only the flipped bit itself survives
    assert rep.distance_from_32 == 31
    assert rep.mean_abs_deviation == 31
    assert rep.per_input_bit_means == (Fraction(1),) * 64


def test_avalanche_deterministic(cfg4):
    r1 = spn.avalanche_experiment(cfg4, spn.generate_pairs(100, 5))
    r2 = spn.avalanche_experiment(cfg4, spn.generate_pairs(100, 5))
    r3 = spn.avalanche_experiment(cfg4, spn.generate_pairs(100, 6))
    assert r1 == r2
    assert r1 != r3


def test_avalanche_mean_consistency(cfg4):
    rep = spn.avalanche_experiment(cfg4, spn.generate_pairs(200, 9))
    assert rep.trials == 200
    assert rep.rounds == 4
    assert sum(rep.per_input_bit_means) / 64 == rep.mean_flips
    assert abs(rep.mean_flips - 32) < 1  # four rounds already diffuse well


def test_avalanche_requires_seed_or_pairs(cfg4):
    # The experiment runs on explicit pairs; drawing them takes a 64-bit seed,
    # never None, which would draw fresh OS entropy.
    with pytest.raises(TypeError):
        spn.avalanche_experiment(cfg4)
    with pytest.raises(TypeError):
        spn.generate_pairs(10)
    for seed in (None, -1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            spn.generate_pairs(3, seed)
    for trials in (0, True, 2.5):
        with pytest.raises(ValueError, match="trials"):
            spn.generate_pairs(trials, 1)


def test_avalanche_pairs_trials_mismatch(cfg4):
    # The trial count is the number of pairs; a pairs array of any other shape is refused.
    assert spn.avalanche_experiment(cfg4, spn.generate_pairs(11, 0)).trials == 11
    with pytest.raises(ValueError, match="non-empty"):
        spn.avalanche_experiment(cfg4, np.empty((0, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match="non-empty"):
        spn.avalanche_experiment(cfg4, spn.generate_pairs(10, 0).ravel())


@pytest.mark.parametrize("call", [
    lambda x, cfg: spn.encrypt_blocks(x, np.zeros(1, dtype=np.uint64), cfg),
    lambda x, cfg: spn.encrypt_blocks(np.zeros(1, dtype=np.uint64), x, cfg),
    lambda x, cfg: spn.decrypt_blocks(x, np.zeros(1, dtype=np.uint64), cfg),
    lambda x, cfg: spn.decrypt_blocks(np.zeros(1, dtype=np.uint64), x, cfg),
    lambda x, cfg: spn.avalanche_experiment(cfg, np.stack([x, x], axis=1)),
], ids=["encrypt", "encrypt-masters", "decrypt", "decrypt-masters", "avalanche"])
def test_bulk_rejects_what_the_cast_would_garble(cfg1, call):
    # a cast to uint64 would truncate floats, read bools as 0/1 and wrap negatives
    for x, fragment in ((np.array([1.7]), "integers"), (np.array([True]), "integers"),
                        (np.array([object()]), "integers"), (np.array([-1]), "non-negative"),
                        (np.array([3, -2], dtype=np.int8), "non-negative")):
        with pytest.raises(ValueError, match=fragment):
            call(x, cfg1)
    assert call(np.array([1], dtype=np.int64), cfg1) is not None  # non-negative signed ints are fine


def test_pairs_file_round_trip(tmp_path):
    pairs = spn.generate_pairs(64, 123)
    path = tmp_path / "pairs.bin"
    spn.save_pairs(path, pairs)
    assert path.stat().st_size == 64 * 16
    assert path.read_bytes()[:16] == struct.pack("<QQ", int(pairs[0, 0]), int(pairs[0, 1]))
    loaded = spn.load_pairs(path)
    assert loaded.dtype == np.uint64 and loaded.dtype.isnative
    assert loaded.flags.writeable
    assert (loaded == pairs).all()


def test_load_pairs_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(ValueError, match="multiple of 16"):
        spn.load_pairs(path)


def test_save_pairs_refuses_a_shape_other_than_trials_by_2(tmp_path):
    # the file keeps no shape, so a transposed (2, trials) array would reload as other pairs
    pairs = spn.generate_pairs(4, 1)
    path = tmp_path / "pairs.bin"
    for bad in (pairs.T, pairs.ravel(), np.zeros((4, 3), dtype=np.uint64), np.empty((0, 2), dtype=np.uint64)):
        with pytest.raises(ValueError, match=re.escape("pairs must be a non-empty (trials, 2) array")):
            spn.save_pairs(path, bad)
        assert not path.exists()


@pytest.mark.parametrize("rounds", [0, 1, 4, 12])
def test_avalanche_blocks_match_unblocked_oracle(aes, rounds):
    rows = spn._BLOCK_WORDS // 65  # trials per block
    pairs = spn.generate_pairs(3 * rows + 1, 65 + rounds)
    for cfg in (spn.SpnConfig(sbox=aes, rounds=rounds), _random_config(65, rounds)):
        for trials in (1, rows - 1, rows, rows + 1, 3 * rows + 1):
            got = spn.avalanche_experiment(cfg, pairs=pairs[:trials])
            assert got == reference.avalanche_unblocked(cfg, pairs[:trials]), trials


@pytest.mark.parametrize("rounds", [0, 1, 3])
def test_avalanche_matches_scalar_oracle(aes, rounds):
    pairs = spn.generate_pairs(3, 66)
    for cfg in (spn.SpnConfig(sbox=aes, rounds=rounds), _random_config(66, rounds)):
        assert spn.avalanche_experiment(cfg, pairs=pairs) == reference.avalanche_scalar(cfg, pairs)


def test_avalanche_memory_bound(aes, traced_peak_mb):
    # trials run in fixed blocks; only the 16 B/trial pairs scale with the run
    cfg = spn.SpnConfig(sbox=aes, rounds=1)
    pairs = spn.generate_pairs(50_000, 67)
    assert traced_peak_mb(lambda: spn.avalanche_experiment(cfg, pairs=pairs)) < 8


def test_avalanche_report_rendering(aes):
    cfg = spn.SpnConfig(sbox=aes, rounds=0)
    rep = spn.avalanche_experiment(cfg, spn.generate_pairs(10, 2))
    assert rep.csv_row("aes") == "aes,0,31"
    doc = rep.to_dict()
    assert doc["mean_flips"] == "1"
    assert doc["distance_from_32"] == "31"
    assert len(doc["per_input_bit_means"]) == 64
    assert spn.AVALANCHE_CSV_HEADER == "name,rounds,distance"
