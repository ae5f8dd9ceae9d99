import itertools
import json
import os
import threading
from collections import Counter
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sboxkit as sk
from sboxkit.data import KEY_SBOX
from sboxkit import metrics, search, spn
from sboxkit.metrics import CSV_HEADER, METRICS, raw_metric_value
from sboxkit.search import SearchConfig, run_search
from sboxkit.core import exact_decimal

import reference


# ---------------------------------------------------------------------------
# DDT


def test_ddt_identity(identity8):
    d = sk.compute_ddt(identity8)
    a = np.arange(256)
    assert (d.counts[a, a] == 256).all()
    assert d.counts.sum() == 256 * 256


def test_ddt_structural_invariants(aes):
    d = sk.compute_ddt(aes)
    assert d.counts[0, 0] == 256
    assert (d.counts % 2 == 0).all()  # x and x^a contribute in pairs
    assert (d.counts.sum(axis=1) == 256).all()
    assert (d.counts.sum(axis=0) == 256).all()  # bijective only


def test_ddt_matches_brute_force_4bit():
    s = sk.SBox(4, np.array(KEY_SBOX))
    d = sk.compute_ddt(s)
    assert d.counts.tolist() == reference.ddt_brute(s.table, 4)


def test_ddt_matches_brute_force_random_6bit():
    rng = np.random.default_rng(3)
    s = sk.SBox(6, rng.permutation(64))
    assert sk.compute_ddt(s).counts.tolist() == reference.ddt_brute(s.table, 6)


@pytest.mark.parametrize("n", range(2, 11))
def test_ddt_matches_brute_force_every_width(n):
    for kind, table in {**reference.oracle_maps(n), "identity": np.arange(1 << n)}.items():
        counts = sk.compute_ddt(sk.SBox(n, table)).counts
        assert counts.dtype == np.int64 and not counts.flags.writeable
        assert counts.tolist() == reference.ddt_brute(table.tolist(), n), kind
        assert not np.shares_memory(counts, sk.compute_ddt(sk.SBox(n, table)).counts), kind


def test_ddt_up_to_width_8_is_its_one_block(traced_peak_mb):
    # the one block is doubled in place and returned, not copied into a second 512 KB table
    s = sk.SBox(8, np.random.default_rng(8).permutation(256))
    assert traced_peak_mb(lambda: sk.compute_ddt(s)) < 1


@pytest.mark.parametrize("n", [2, 5, 8])
def test_bincount_ddt_oracle_matches_counter_oracle(n):
    # criterion 9 reads the bincount oracle over many maps; the Counter loops vouch for it
    for kind, table in reference.oracle_maps(n).items():
        assert reference.ddt_bincount(table, n).tolist() == reference.ddt_brute(table.tolist(), n), kind


def test_memoised_oracles_return_one_read_only_result():
    # tests share each oracle result for the session, so none may write to it
    table = reference.oracle_maps(6)["permutation"]
    for oracle in (reference.ddt_bincount, reference.walsh_butterfly):
        first = oracle(table, 6)
        assert oracle(table.tolist(), 6) is first  # keyed by the values, not the array
        assert oracle(table, 5 + 1) is first and oracle(table[::-1], 6) is not first
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1
    assert reference.walsh_stats_brute(table, 6) == reference.walsh_stats_brute(table.copy(), 6)


@pytest.mark.parametrize("n", [11, 12])
def test_ddt_row_spot_probes_large_widths(n):
    size = 1 << n
    rng = np.random.default_rng(n)
    rows = [0, 1, 255, 256, size - 1] + [int(a) for a in rng.integers(0, size, size=4)]
    for kind, table in reference.oracle_maps(n).items():
        counts = sk.compute_ddt(sk.SBox(n, table)).counts
        values = table.tolist()
        for a in rows:
            assert counts[a].tolist() == reference.ddt_row(values, n, a), (kind, a)


@pytest.mark.parametrize("n", range(2, 13))
def test_blocked_du_matches_full_table(n):
    for kind, table in reference.oracle_maps(n).items():
        counts = sk.compute_ddt(sk.SBox(n, table)).counts
        top = int(counts[1:].max())
        expected = (top, int(np.count_nonzero(counts[1:] == top)))
        assert metrics._du_stats(metrics._ddt_blocks(table, n)) == expected, kind
        assert raw_metric_value(table, n, "du") == expected[0], kind


@st.composite
def _any_map(draw):
    """An n-bit map, n in [2, 8]: arbitrary, a permutation, constant or the identity."""
    n = draw(st.integers(2, 8))
    size = 1 << n
    kind = draw(st.sampled_from(["arbitrary", "permutation", "constant", "identity"]))
    if kind == "arbitrary":
        table = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    elif kind == "permutation":
        table = draw(st.permutations(range(size)))
    elif kind == "constant":
        table = [draw(st.integers(0, size - 1))] * size
    else:
        table = range(size)
    return n, np.array(table, dtype=np.int64)


@given(_any_map())
@settings(max_examples=40, deadline=None)
def test_half_pair_kernel_matches_brute_ddt(case):
    n, table = case
    brute = reference.ddt_brute(table.tolist(), n)
    rows = np.array(brute[1:])
    du = int(rows.max())
    s = sk.SBox(n, table)
    report = sk.full_report(s)
    assert sk.compute_ddt(s).counts.tolist() == brute
    assert raw_metric_value(table, n, "du") == report.du == du
    assert report.du_count == np.count_nonzero(rows == du)


def _chunk_width(n):
    """The chunk width w of `_ddt_blocks` at width n under the current pair budget."""
    return min(1 << n, metrics._PAIR_BUDGET >> (n - 1))


@pytest.mark.parametrize("n", range(2, 13))
def test_ddt_blocks_match_oracle_at_every_chunk_width(n, monkeypatch):
    # the default budget builds one block at n <= 8, so this is the only test there
    # of the blocks that pair two chunks; reference.oracle_maps holds a constant map
    size = 1 << n
    try:
        for kind, table in {**reference.oracle_maps(n), "identity": np.arange(size)}.items():
            expected = reference.ddt_bincount(table, n)
            for k in range(n + 1):
                monkeypatch.setattr(metrics, "_PAIR_BUDGET", 1 << (k + n - 1))
                assert _chunk_width(n) == 1 << k
                starts = []
                for start, block in metrics._ddt_blocks(table, n):
                    starts.append(start)
                    assert block.shape == (1 << k, size), (kind, k, start)
                    block *= 2  # in place: at n = 12 one block can hold the whole 128 MB table
                    assert np.array_equal(block, expected[start : start + (1 << k)]), (kind, k, start)
                assert starts == list(range(0, size, 1 << k)), (kind, k)
    finally:
        metrics._pair_index.cache_clear()  # the widest triangles are large


def test_blocked_du_memory_is_bounded(traced_peak_mb):
    # one block of 2^16 int64 bins and its 2^15 codes at a time, not rows of 8 MB
    table = np.random.default_rng(12).permutation(4096)
    assert traced_peak_mb(lambda: metrics._du_stats(metrics._ddt_blocks(table, 12))) < 4


@pytest.mark.parametrize("n, limit", [(8, 1 << 20), (12, 4 << 20)])
def test_ddt_index_cache_stays_small(n, limit):
    # the shifted x values and the triangle index stay cached for the life of the process
    raw_metric_value(np.arange(1 << n), n, "du")
    misses = metrics._pair_index.cache_info().misses
    index = metrics._pair_index(n, _chunk_width(n))
    assert metrics._pair_index.cache_info().misses == misses  # built by the kernel and kept
    assert sum(a.nbytes for a in index) <= limit


def test_differential_uniformity_values(aes, identity8, dillon):
    assert sk.differential_uniformity(sk.compute_ddt(aes)) == 4
    assert sk.du_max_count(sk.compute_ddt(aes)) == 255
    assert sk.differential_uniformity(sk.compute_ddt(identity8)) == 256
    assert sk.differential_uniformity(sk.compute_ddt(dillon)) == 2  # APN


def test_ddt_counts_read_only(aes):
    d = sk.compute_ddt(aes)
    with pytest.raises(ValueError):
        d.counts[0, 0] = 1
    # the tables hold a read-only view: the caller's own array stays writeable, and is not copied
    for cls, field in ((sk.DDT, "counts"), (sk.LAT, "sums")):
        a = np.zeros((2, 2), dtype=np.int64)
        held = getattr(cls(a), field)
        assert a.flags.writeable and np.shares_memory(a, held)
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 1


# ---------------------------------------------------------------------------
# LAT


def test_lat_identity_structure(identity8):
    l = sk.compute_lat(identity8)
    assert l.sums[0, 0] == 256
    a = np.arange(256)
    assert (l.sums[a, a] == 256).all()
    off = l.sums.copy()
    off[a, a] = 0
    assert not off.any()


def test_lat_matches_naive_4bit():
    s = sk.SBox(4, np.array(KEY_SBOX))
    assert sk.compute_lat(s).sums.tolist() == reference.lat_full(s.table, 4)


@pytest.mark.parametrize("seed", range(6))
def test_lat_matches_naive_random_4bit(seed):
    rng = np.random.default_rng(seed)
    s = sk.SBox(4, rng.permutation(16))
    assert sk.compute_lat(s).sums.tolist() == reference.lat_full(s.table, 4)


def test_lat_spot_probes_aes(aes):
    l = sk.compute_lat(aes)
    rng = np.random.default_rng(7)
    for _ in range(60):
        a, b = (int(v) for v in rng.integers(0, 256, size=2))
        assert l.sums[a, b] == reference.lat_entry(aes.table, 8, a, b)


@pytest.mark.parametrize("n", range(2, 13))
def test_lat_matches_butterfly_oracle_every_width(n):
    for kind, table in reference.oracle_maps(n).items():
        sums = sk.compute_lat(sk.SBox(n, table)).sums
        assert np.array_equal(sums, reference.walsh_butterfly(table, n)), kind
        if kind == "constant":
            # |W| = 2^n down the a = 0 column: the float32 kernel's exactness bound
            assert int(np.abs(sums).max()) == 1 << n
            assert int(np.abs(sums[1:, 1:]).max()) == 0


@pytest.mark.parametrize("n", range(2, 13))
def test_walsh_reductions_match_butterfly_oracle_every_width(n):
    # a non-bijective map has a nonzero a = 0 row, so swapping the row and
    # column exclusions changes walsh_max or the component maxima
    maps = {**reference.oracle_maps(n), "identity": np.arange(1 << n)}
    half = 1 << (n - 1)
    for kind, table in maps.items():
        walsh_max, column_max = reference.walsh_stats_brute(table, n)
        comps = [half - c // 2 for c in column_max]
        s = sk.SBox(n, table)
        assert raw_metric_value(table, n, "max_bias") == walsh_max // 2, kind
        assert raw_metric_value(table, n, "nl") == min(comps), kind
        stats = sk.nonlinearity(s)
        assert (stats.nl, stats.component_max) == (min(comps), max(comps)), kind
        assert stats.component_avg == Fraction(sum(comps), len(comps)), kind
        report = sk.full_report(s)
        doc = report.to_dict()
        assert (doc["walsh_max"], report.max_bias, report.nl) == (walsh_max, walsh_max // 2, min(comps)), kind
        assert doc["nl_component_min"] == min(comps), kind
    starts = []
    for start, block in metrics._walsh_blocks(maps["random"], n):
        assert block.shape[0] == 1 << n and block.size <= 1 << 18
        starts.extend(range(start, start + block.shape[1]))
    assert starts == list(range(1 << n))


def test_hadamard_cache_stays_small():
    # one H_k per k <= 8 serves every width; they stay cached for the life of the process
    for n in range(2, 13):
        raw_metric_value(np.arange(1 << n), n, "nl")
    held = [metrics._hadamard(k) for k in range(9)]
    assert metrics._hadamard.cache_info().currsize == 9  # so every cached k is one of these
    assert sum(h.nbytes for h in held) <= 512 << 10


def test_lat_spot_probes_width_12():
    rng = np.random.default_rng(12)
    probes = [(0, 0), (0, 4095), (4095, 4095)]
    probes += [(int(a), int(b)) for a, b in rng.integers(0, 4096, size=(6, 2))]
    for kind, table in reference.oracle_maps(12).items():
        sums = sk.compute_lat(sk.SBox(12, table)).sums
        for a, b in probes:
            assert sums[a, b] == reference.lat_entry(table, 12, a, b), (kind, a, b)


def test_lat_balanced_rows_and_columns(aes):
    l = sk.compute_lat(aes)
    assert (l.sums[1:, 0] == 0).all()  # a.x is balanced for a != 0
    assert (l.sums[0, 1:] == 0).all()  # components of a bijection are balanced


def test_lat_parseval(aes):
    l = sk.compute_lat(aes).sums.astype(np.int64)
    assert ((l * l).sum(axis=0) == 256 * 256).all()


def test_max_bias_and_nonlinearity(aes, identity8):
    assert sk.max_bias(sk.compute_lat(aes)) == 16
    assert sk.max_bias(sk.compute_lat(identity8)) == 128
    stats = sk.nonlinearity(aes)
    assert stats.nl == 112
    assert stats.component_max == 112
    assert stats.component_avg == 112
    assert sk.nonlinearity(identity8).nl == 0


def test_nonlinearity_counts_nearest_affine_distance():
    # NL must equal the true minimum Hamming distance to the affine functions
    rng = np.random.default_rng(9)
    s = sk.SBox(4, rng.permutation(16))
    best = 16
    x = np.arange(16)
    for b in range(1, 16):
        f = (np.bitwise_count((s.table & b).astype(np.uint64)) & 1).astype(np.int64)
        for a in range(16):
            g = (np.bitwise_count((x & a).astype(np.uint64)) & 1).astype(np.int64)
            d = int((f ^ g).sum())
            best = min(best, d, 16 - d)
    assert sk.nonlinearity(s).nl == best


def test_metrics_invariant_under_xor_relabel(aes):
    rng = np.random.default_rng(21)
    c, d = (int(v) for v in rng.integers(1, 256, size=2))
    relabeled = sk.SBox(8, np.array([aes[x ^ c] ^ d for x in range(256)]))
    r1 = sk.full_report(aes)
    r2 = sk.full_report(relabeled)
    for field in ("du", "du_count", "max_bias", "walsh_max", "nl"):
        assert r1.to_dict()[field] == r2.to_dict()[field]
    assert r1.dsac.max_norm == r2.dsac.max_norm
    assert r1.dbic.max_norm == r2.dbic.max_norm


# ---------------------------------------------------------------------------
# SAC / BIC distances


def test_dsac_aes(aes):
    rep = sk.dsac(aes)
    assert rep.max_raw == 16
    assert rep.max_norm == Fraction(1, 16)
    assert rep.mean_norm == Fraction(27, 1024)
    assert rep.deviations.shape == (8, 8)


def test_dsac_identity(identity8):
    rep = sk.dsac(identity8)
    assert (rep.deviations == 128).all()
    assert rep.max_norm == Fraction(1, 2)
    assert rep.mean_norm == Fraction(1, 2)


def test_dsac_counts_directly():
    rng = np.random.default_rng(14)
    s = sk.SBox(4, rng.permutation(16))
    rep = sk.dsac(s)
    for i in range(4):
        for j in range(4):
            flips = sum((s[x] ^ s[x ^ (1 << i)]) >> j & 1 for x in range(16))
            assert rep.deviations[i, j] == abs(flips - 8)


@pytest.mark.parametrize("n", range(2, 13))
def test_sac_bic_match_flip_count_oracle_every_width(n):
    size = 1 << n
    bits = list(range(n)) if n <= 10 else [0, n - 1]  # two input bits keep n = 11, 12 fast
    pairs = tuple((j, k) for j in range(n) for k in range(j + 1, n))
    for kind, table in reference.oracle_maps(n).items():
        sac_counts, bic_counts = metrics._flip_counts(table[np.newaxis], n)
        sac = metrics._sac_deviations(sac_counts[0], n)
        bic, got_pairs = metrics._bic_deviations(bic_counts[0], n)
        assert sac.dtype == bic.dtype == np.int64, kind
        assert sac.shape == (n, n) and bic.shape == (n, len(pairs)) and got_pairs == pairs, kind
        for i, joint in zip(bits, reference.flip_counts_brute(table.tolist(), n, bits)):
            assert sac[i].tolist() == [abs(joint[a][a] - size // 2) for a in range(n)], (kind, i)
            assert bic[i].tolist() == [abs(size // 4 - joint[j][k]) for j, k in pairs], (kind, i)


def _weighted_flips(rows, n):
    """The doubled SAC and BIC flip counts from rows[i, d], the number of ordered
    pairs (x, x xor 2^i) with difference d, which DDT row 2^i holds: the rows
    weighted by output bit a of d, and by bits j and k of d both set."""
    bits = np.arange(1 << n)[:, np.newaxis] >> np.arange(n) & 1
    j, k = np.triu_indices(n, 1)
    return rows @ bits, rows @ (bits[:, j] & bits[:, k])


@pytest.mark.parametrize("n", range(2, 13))
def test_flip_hist_is_half_the_ddt_rows_of_one_bit_differences(n):
    # the flip and DDT kernels count the same pairs {x, x xor 2^i} independently:
    # the flip counts are DDT rows 2^i, weighted by the output bits of each difference
    maps = {**reference.oracle_maps(n), "identity": np.arange(1 << n)}
    for kind, table in maps.items():
        counts = metrics._flip_counts(table[np.newaxis], n)
        rows = sk.compute_ddt(sk.SBox(n, table)).counts[1 << np.arange(n)]
        for got, expected in zip(counts, _weighted_flips(rows, n)):
            assert got.dtype == np.int64 and got.shape == (1, *expected.shape), kind
            assert np.array_equal(got[0], expected), kind


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_kernels_match_one_table_results(n):
    # rows cycle through the oracle maps and the identity, so a stack of any height
    # repeats four per-table results; the byte fields of one row must not spill into
    # the next
    maps = [*reference.oracle_maps(n).values(), np.arange(1 << n)]
    ones = [[c[0] for c in metrics._flip_counts(t[np.newaxis], n)] for t in maps]  # checked by the oracles
    reports = [sk.full_report(sk.SBox(n, t)) for t in maps]
    block = metrics.block_height(n)  # candidates per search block
    for height in sorted({1, 2, block, block + 1}):
        stack = np.stack([maps[k % 4] for k in range(height)])
        counts = metrics._flip_counts(stack, n)
        for kind, m in enumerate((n, n * (n - 1) // 2)):
            assert counts[kind].dtype == np.int64 and counts[kind].shape == (height, n, m), (height, kind)
            for k in range(height):
                assert (counts[kind][k] == ones[k % 4][kind]).all(), (height, kind, k)
        for name, metric in METRICS.items():
            raws = metric.raw(stack, n)
            assert raws.dtype == np.int64 and raws.shape == (height,), (name, height)
            assert raws.tolist() == [attrgetter(metric.field)(reports[k % 4]) for k in range(height)], (name, height)


@pytest.mark.parametrize("n", range(2, 13))
def test_byte_field_counts_match_the_oracle_and_the_histograms(n):
    # the byte fields must equal the brute-force counts and the weighted histograms
    # of the differences, for stacks around the search block; the saturating map
    # puts every count at 2^(n-1), so above n = 8 a byte read back after more than
    # 255 x, or never, wraps
    size = 1 << n
    x = np.arange(size)
    bits = list(range(n)) if n <= 10 else [0, n - 1]  # two input bits keep n = 11, 12 fast
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    saturating = (size - 1) * (np.bitwise_count(x) & 1).astype(np.int64)
    maps = [*reference.oracle_maps(n).values(), x, saturating]  # permutation, random, constant, identity, saturating
    brute = [reference.flip_counts_brute(t.tolist(), n, bits) for t in maps]
    hists = [_weighted_flips(np.stack([np.bincount(t ^ t[x ^ 1 << i], minlength=size) for i in range(n)]), n)
             for t in maps]
    assert all((counts == size).all() for counts in hists[4])  # every doubled count of the saturating map
    block = metrics.block_height(n)
    for height, first in itertools.product(sorted({1, 2, block, block + 1}), range(5)):
        rows = [(first + k) % 5 for k in range(height)]  # each map leads a stack, above n = 10 too
        flips, joint = metrics._flip_counts(np.stack([maps[m] for m in rows]), n)
        assert flips.dtype == joint.dtype == np.int64, height
        for k, m in enumerate(rows):
            assert np.array_equal(flips[k], hists[m][0]), (height, k, m)
            assert np.array_equal(joint[k], hists[m][1]), (height, k, m)
            for i, counts in zip(bits, brute[m]):
                assert flips[k, i].tolist() == [counts[a][a] for a in range(n)], (height, k, m, i)
                assert joint[k, i].tolist() == [counts[j][l] for j, l in pairs], (height, k, m, i)


@pytest.mark.parametrize("n", range(8, 13))
def test_flip_block_memory_bound(traced_peak_mb, n):
    # a search block's temporaries stay well under 1 MB (its byte-field gathers
    # hold at most 256 KB): at 1 MB, the allocator faulted in fresh pages on every block
    stack = search._draw(np.random.default_rng(n), 1 << n, None, metrics.block_height(n))
    for name in ("dsac", "dbic"):
        assert traced_peak_mb(lambda: METRICS[name].raw(stack, n)) < 0.85, name


def test_flip_index_cache_stays_small():
    # the pair ends and byte-field words stay cached for the life of the process, read-only
    n = 12
    raw_metric_value(np.arange(1 << n), n, "dbic")
    misses = metrics._flip_index.cache_info().misses
    cached = metrics._flip_index(n)[:3]
    assert metrics._flip_index.cache_info().misses == misses  # built by the kernel and kept
    assert sum(a.nbytes for a in cached) <= 2 << 20
    raw_metric_value(np.arange(256), 8, "dbic")
    misses = metrics._flip_index.cache_info().misses
    words = metrics._flip_index(8)[:3]
    assert metrics._flip_index.cache_info().misses == misses
    assert sum(a.nbytes for a in words) <= 32 << 10  # the ends, one SAC word and four BIC words per difference
    for a in [*cached, *words]:
        assert not a.flags.writeable


def test_flip_index_cache_is_keyed_by_n():
    # interleaved widths must each read their own cached indices
    rng = np.random.default_rng(17)
    for n in (8, 3, 12, 3, 8):
        size = 1 << n
        s = sk.SBox(n, rng.permutation(size))
        sac, bic = sk.dsac(s), sk.dbic(s)
        assert bic.pairs == tuple((j, k) for j in range(n) for k in range(j + 1, n)), n
        bits = range(n) if n < 12 else (0, 5, 11)  # three input bits keep n = 12 fast
        for i, joint in zip(bits, reference.flip_counts_brute(s.table.tolist(), n, bits)):
            assert sac.deviations[i].tolist() == [abs(joint[a][a] - size // 2) for a in range(n)], (n, i)
            assert bic.deviations[i].tolist() == [abs(size // 4 - joint[j][k]) for j, k in bic.pairs], (n, i)
    for n in (3, 8, 12):
        for index in metrics._flip_index(n)[:3]:
            with pytest.raises(ValueError, match="read-only"):
                index[(0,) * index.ndim] = 1


@pytest.mark.parametrize("n", [2, 8, 12])
def test_cached_arrays_are_read_only(n):
    # every caller shares a cached array, so one write would corrupt every later call
    table = np.random.default_rng(n).permutation(1 << n)
    for name in METRICS:
        raw_metric_value(table, n, name)
    cached = [metrics._hadamard(k) for k in range(min(n, 8) + 1)]
    cached += [*metrics._pair_index(n, _chunk_width(n)), *metrics._flip_index(n)[:3], spn._BIT_SOURCES,
               spn._ROUND_DEST, spn._INV_PERM_TABLES, spn._KEY_BYTE_MAP]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


def test_dbic_aes(aes):
    rep = sk.dbic(aes)
    assert rep.max_norm == Fraction(9, 128)
    assert rep.max_raw == 18
    assert rep.deviations.shape == (8, 28)
    assert rep.pairs[0] == (0, 1)
    assert rep.pairs[-1] == (6, 7)


def test_dbic_identity(identity8):
    assert sk.dbic(identity8).max_norm == Fraction(1, 4)


def test_dbic_counts_directly():
    rng = np.random.default_rng(15)
    s = sk.SBox(4, rng.permutation(16))
    rep = sk.dbic(s)
    for i in range(4):
        for col, (j, k) in enumerate(rep.pairs):
            joint = sum(
                ((s[x] ^ s[x ^ (1 << i)]) >> j & 1) & ((s[x] ^ s[x ^ (1 << i)]) >> k & 1)
                for x in range(16)
            )
            assert rep.deviations[i, col] == abs(4 - joint)


# ---------------------------------------------------------------------------
# aggregate report


def test_full_report_aes(aes):
    rep = sk.full_report(aes)
    assert rep.bijective
    assert (rep.du, rep.du_count) == (4, 255)
    assert (rep.max_bias, rep.to_dict()["walsh_max"]) == (16, 32)
    assert rep.nl == 112
    assert rep.cycles.lengths == (2, 27, 59, 81, 87)
    assert rep.degree is None and rep.ai is None and rep.ai_scope is None
    assert rep.csv_row("aes") == "aes,4,16,0.0625,0.0703125,112"


def test_full_report_identity(identity8):
    rep = sk.full_report(identity8)
    assert rep.csv_row("identity") == "identity,256,128,0.5,0.25,0"


def test_full_report_optional_anf(aes):
    rep = sk.full_report(aes, with_degree=True, with_ai=True)
    assert rep.degree == 7
    assert rep.ai == 4
    assert rep.ai_scope == "coordinates"
    doc = rep.to_dict()
    assert doc["degree"] == 7
    assert doc["ai"] == 4


def test_full_report_non_bijective_has_no_cycles():
    s = sk.SBox(4, np.zeros(16, dtype=np.int64))
    rep = sk.full_report(s)
    assert not rep.bijective
    assert rep.cycles is None
    assert "cycle_lengths" not in rep.to_dict()


@pytest.mark.parametrize("cpus", [2, 64])
def test_width_12_memory_bounds(traced_peak_mb, monkeypatch, cpus):
    # the 128 MB int64 DDT and LAT are built only by compute_ddt and compute_lat;
    # reductions take them in blocks, on at most two threads whatever the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    table = np.random.default_rng(12).permutation(4096)
    s = sk.SBox(12, table)
    assert traced_peak_mb(lambda: sk.full_report(s, with_degree=True)) < 40
    assert traced_peak_mb(lambda: raw_metric_value(table, 12, "du")) < 40
    assert traced_peak_mb(lambda: raw_metric_value(table, 12, "nl")) < 10
    assert traced_peak_mb(lambda: sk.compute_ddt(s)) < 170
    assert traced_peak_mb(lambda: sk.compute_lat(s)) < 150


def _started_threads(monkeypatch) -> list:
    """A list that gains one entry per thread started from now on."""
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


@pytest.mark.parametrize("n", range(2, 13))
def test_threaded_kernels_match_the_serial_reductions(n, monkeypatch):
    # every range count gives the reductions of one serial pass over all blocks,
    # and a thread starts only when a kernel has two blocks and the host two CPUs
    size = 1 << n
    maps = {**reference.oracle_maps(n), "inverse": sk.build_monomial_sbox(sk.default_context(n), "raw",
                                                                            e=size - 2).table}
    started = _started_threads(monkeypatch)
    for kind, table in maps.items():
        s = sk.SBox(n, table)
        du, du_count = metrics._du_stats(metrics._ddt_blocks(table, n))
        bias, nls = metrics._walsh_stats(metrics._walsh_blocks(table, n), n)
        nl = metrics._nl_stats(nls)
        ddt = np.empty((size, size), dtype=np.int64)
        for start, block in metrics._ddt_blocks(table, n):
            ddt[start : start + len(block)] = 2 * block
        flips, joint = _weighted_flips(ddt[1 << np.arange(n)], n)
        sac, bic = np.abs(flips - size // 2), np.abs(size // 4 - joint)
        expected = {"du": du, "du_count": du_count, "max_bias": bias, "nl": nl.nl,
                    "nl_component_max": nl.component_max, "nl_component_avg": exact_decimal(nl.component_avg),
                    "dsac_max_raw": int(sac.max()), "dbic_max_raw": int(bic.max())}
        lat = np.empty((size, size), dtype=np.int64)
        for start, block in metrics._walsh_blocks(table, n):
            lat[:, start : start + block.shape[1]] = block
        for cpus in (1, 2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            started.clear()
            report = sk.full_report(s)
            two = cpus > 1 and n > 8  # up to n = 8 each kernel is one block
            assert len(started) == 2 * two, (kind, cpus)  # the DDT's second range, then the Walsh's
            assert report.to_dict().items() >= expected.items(), (kind, cpus)
            assert np.array_equal(report.dsac.deviations, sac), (kind, cpus)
            assert np.array_equal(report.dbic.deviations, bic), (kind, cpus)
            assert sk.nonlinearity(s) == nl, (kind, cpus)
            assert np.array_equal(sk.compute_ddt(s).counts, ddt), (kind, cpus)
            assert np.array_equal(sk.compute_lat(s).sums, lat), (kind, cpus)
            assert all(not t.is_alive() for t in started), (kind, cpus)
        del ddt, lat


def test_an_error_in_a_later_range_reaches_the_caller(monkeypatch):
    class Failure(Exception):
        pass

    walsh_blocks = metrics._walsh_blocks

    def failing(table, n, blocks=None):
        if blocks is not None and blocks.start > 0:
            raise Failure("second range")
        return walsh_blocks(table, n, blocks)

    threads_before = threading.active_count()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(metrics, "_walsh_blocks", failing)
    with pytest.raises(Failure, match="second range"):
        sk.nonlinearity(sk.SBox(10, np.random.default_rng(10).permutation(1024)))
    assert threading.active_count() == threads_before


def test_to_json_includes_name(aes):
    doc = json.loads(sk.full_report(aes).to_json("aes"))
    assert doc["name"] == "aes"
    assert doc["du"] == 4
    assert doc["dsac_mean"] == "0.0263671875"
    assert doc["cycle_lengths"] == [2, 27, 59, 81, 87]


def test_csv_header_matches_row_shape(aes):
    row = sk.full_report(aes).csv_row("aes")
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert CSV_HEADER == "name,DU,MAX BIAS,DSAC,DBIC,NL"


def test_report_json_and_csv_match_recorded_reports():
    """`full_report(with_degree=True)` JSON and CSV row, with AI up to n = 8,
    for the oracle maps and the identity at every width, byte for byte as
    recorded in tests/data/report_golden.json."""
    recorded = json.loads((Path(__file__).parent / "data" / "report_golden.json").read_text())
    assert [(doc["n"], doc["kind"]) for doc in recorded] == [
        (n, kind) for n in range(2, 13) for kind in ("permutation", "random", "constant", "identity")
    ]
    for doc in recorded:
        n, kind = doc["n"], doc["kind"]
        table = reference.oracle_maps(n)[kind] if kind != "identity" else np.arange(1 << n)
        rep = sk.full_report(sk.SBox(n, table), with_degree=True, with_ai=n <= 8)
        name = f"{kind}{n}"
        assert rep.to_json(name) == doc["json"], name
        assert rep.csv_row(name) == doc["csv"], name


def _count_calls(monkeypatch, kernels) -> Counter:
    calls = Counter()
    for kernel in kernels:
        def counted(*args, _kernel=kernel, _inner=getattr(metrics, kernel), **kwargs):
            calls[_kernel] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(metrics, kernel, counted)
    return calls


def test_full_report_makes_one_pass_of_each_kernel(aes, monkeypatch):
    # the flip step reads SAC and BIC from one gather
    calls = _count_calls(monkeypatch, ("_flip_counts", "_ddt_blocks", "_walsh_blocks"))
    sk.full_report(aes, with_degree=True, with_ai=True)
    assert calls == {"_flip_counts": 1, "_ddt_blocks": 1, "_walsh_blocks": 1}


def test_full_report_makes_one_pass_of_each_kernel_above_width_8(monkeypatch):
    # above n = 8 the flip step still reads both criteria from one gather; one CPU
    # keeps each of the DDT and Walsh kernels to one range, so one call
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    calls = _count_calls(monkeypatch, ("_flip_counts", "_ddt_blocks", "_walsh_blocks"))
    sk.full_report(sk.SBox(10, np.random.default_rng(10).permutation(1024)))
    assert calls == {"_flip_counts": 1, "_ddt_blocks": 1, "_walsh_blocks": 1}


# ---------------------------------------------------------------------------
# raw metric shortcuts


def test_raw_metric_values_agree_with_reports(monkeypatch):
    # the report field, the CSV column and a one-try search all read one raw value
    for n in range(2, 13):
        for kind, table in {**reference.oracle_maps(n), "identity": np.arange(1 << n)}.items():
            s = sk.SBox(n, table)
            # the one-try search below draws this map
            monkeypatch.setattr(search, "_draw", lambda *args, t=s.table: np.array([t]))
            rep = sk.full_report(s)
            row = dict(zip(CSV_HEADER.split(","), rep.csv_row(kind).split(",")))
            for name, metric in METRICS.items():
                raw = raw_metric_value(table, n, name)
                assert attrgetter(metric.field)(rep) == raw, (n, kind, name)
                assert row[metric.column] == exact_decimal(metric.value(raw, n)), (n, kind, name)
                result = run_search(SearchConfig(n=n, metric=name, tries=1, seed=0))
                assert result.best_value == metric.value(raw, n), (n, kind, name)


@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_raw_nl_and_max_bias_share_one_kernel_on_permutations(n, seed):
    # for a bijection the a = 0 Walsh column is zero at every b != 0
    tab = np.random.default_rng(seed).permutation(1 << n)
    assert raw_metric_value(tab, n, "nl") == (1 << (n - 1)) - raw_metric_value(tab, n, "max_bias")


def test_raw_metric_rejects_unknown():
    with pytest.raises(ValueError, match="unknown metric"):
        raw_metric_value(np.arange(16), 4, "entropy")


@pytest.mark.parametrize("name", list(METRICS))
def test_raw_metric_checks_its_table_as_sbox_does(name):
    # unchecked, an entry out of [0, 2^n) is scored (du 2 and max_bias 2 for [0, 9, 2, 3], nl 0
    # for [0, 1, 2, -1]) and a table of the wrong length fails inside numpy
    for table, n, match in (([0, 9, 2, 3], 2, r"in \[0, 4\), got 9 at index 1"),
                            ([0, 1, 2, -1], 2, r"in \[0, 4\), got -1 at index 3"),
                            (np.array([0.0, 1, 2, 3]), 2, "got dtype float64"),
                            ([0, 1, 2], 2, "exactly 2\\^2 = 4 entries"),
                            (np.zeros(32, dtype=np.int64), 4, "exactly 2\\^4 = 16 entries"),
                            (np.arange(2), 1, "bit width n=1"),
                            (np.arange(4), 2.0, "bit width n=2.0")):
        with pytest.raises(ValueError, match=match):
            raw_metric_value(table, n, name)


# ---------------------------------------------------------------------------
# exact decimal rendering


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(1, 16), "0.0625"),
        (Fraction(27, 1024), "0.0263671875"),
        (Fraction(9, 128), "0.0703125"),
        (Fraction(1, 10), "0.1"),
        (Fraction(7, 50), "0.14"),
        (Fraction(5), "5"),
        (Fraction(0), "0"),
        (Fraction(-3, 8), "-0.375"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-2, 7), "-2/7"),
        (Fraction(64, 2), "32"),
    ],
)
def test_exact_decimal(value, expected):
    assert exact_decimal(value) == expected
