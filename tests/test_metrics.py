from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sboxkit as sk
from sboxkit.data import KEY_SBOX
from sboxkit import metrics
from sboxkit.metrics import CSV_HEADER, METRICS, raw_metric_value
from sboxkit.util import exact_decimal

import reference


# ---------------------------------------------------------------------------
# DDT


def _oracle_maps(n):
    """A random permutation, a random non-bijective map and a constant map."""
    size = 1 << n
    rng = np.random.default_rng(100 + n)
    return {
        "permutation": rng.permutation(size),
        "random": rng.integers(0, size, size=size),
        "constant": np.full(size, size - 1),
    }


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
    for kind, table in _oracle_maps(n).items():
        counts = sk.compute_ddt(sk.SBox(n, table)).counts
        assert counts.dtype == np.int64 and not counts.flags.writeable
        assert counts.tolist() == reference.ddt_brute(table.tolist(), n), kind


@pytest.mark.parametrize("n", [11, 12])
def test_ddt_row_spot_probes_large_widths(n):
    size = 1 << n
    rng = np.random.default_rng(n)
    rows = [0, 1, 255, 256, size - 1] + [int(a) for a in rng.integers(0, size, size=4)]
    for kind, table in _oracle_maps(n).items():
        counts = sk.compute_ddt(sk.SBox(n, table)).counts
        values = table.tolist()
        for a in rows:
            assert counts[a].tolist() == reference.ddt_row(values, n, a), (kind, a)


@pytest.mark.parametrize("n", range(2, 13))
def test_blocked_du_matches_full_table(n):
    for kind, table in _oracle_maps(n).items():
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


@pytest.mark.parametrize("n, limit", [(8, 1 << 20), (12, 4 << 20)])
def test_ddt_index_cache_stays_small(n, limit):
    # the indices stay cached for the life of the process
    raw_metric_value(np.arange(1 << n), n, "du")
    assert sum(a.nbytes for a in metrics._DDT_INDEX_CACHE[n]) <= limit


def test_differential_uniformity_values(aes, identity8, dillon):
    assert sk.differential_uniformity(sk.compute_ddt(aes)) == 4
    assert sk.du_max_count(sk.compute_ddt(aes)) == 255
    assert sk.differential_uniformity(sk.compute_ddt(identity8)) == 256
    assert sk.differential_uniformity(sk.compute_ddt(dillon)) == 2  # APN


def test_ddt_counts_read_only(aes):
    d = sk.compute_ddt(aes)
    with pytest.raises(ValueError):
        d.counts[0, 0] = 1


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
    for kind, table in _oracle_maps(n).items():
        sums = sk.compute_lat(sk.SBox(n, table)).sums
        assert np.array_equal(sums, reference.walsh_butterfly(table, n)), kind
        if kind == "constant":
            # |W| = 2^n down the a = 0 column: the float32 kernel's exactness bound
            assert int(np.abs(sums).max()) == 1 << n
            assert int(np.abs(sums[1:, 1:]).max()) == 0


def test_lat_spot_probes_width_12():
    rng = np.random.default_rng(12)
    probes = [(0, 0), (0, 4095), (4095, 4095)]
    probes += [(int(a), int(b)) for a, b in rng.integers(0, 4096, size=(6, 2))]
    for kind, table in _oracle_maps(12).items():
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
    assert stats.component_min == 112
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
        assert getattr(r1, field) == getattr(r2, field)
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
    for kind, table in _oracle_maps(n).items():
        sac = metrics._sac_deviations(table, n)
        bic, got_pairs = metrics._bic_deviations(table, n)
        assert sac.dtype == bic.dtype == np.int64, kind
        assert sac.shape == (n, n) and bic.shape == (n, len(pairs)) and got_pairs == pairs, kind
        for i, joint in zip(bits, reference.flip_counts_brute(table.tolist(), n, bits)):
            assert sac[i].tolist() == [abs(joint[a][a] - size // 2) for a in range(n)], (kind, i)
            assert bic[i].tolist() == [abs(size // 4 - joint[j][k]) for j, k in pairs], (kind, i)


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
    assert (rep.max_bias, rep.walsh_max) == (16, 32)
    assert rep.nl == 112
    assert rep.cycles.lengths == (2, 27, 59, 81, 87)
    assert rep.degree is None and rep.ai is None
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


def test_width_12_memory_bounds(traced_peak_mb):
    # the 128 MB int64 DDT is built only by compute_ddt; reductions take it in row blocks
    table = np.random.default_rng(12).permutation(4096)
    s = sk.SBox(12, table)
    assert traced_peak_mb(lambda: sk.full_report(s, with_degree=True)) < 150
    assert traced_peak_mb(lambda: raw_metric_value(table, 12, "du")) < 40
    assert traced_peak_mb(lambda: sk.compute_ddt(s)) < 170


def test_to_json_includes_name(aes):
    import json

    doc = json.loads(sk.full_report(aes).to_json("aes"))
    assert doc["name"] == "aes"
    assert doc["du"] == 4
    assert doc["dsac_mean"] == "0.0263671875"
    assert doc["cycle_lengths"] == [2, 27, 59, 81, 87]


def test_csv_header_matches_row_shape(aes):
    row = sk.full_report(aes).csv_row("aes")
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


# ---------------------------------------------------------------------------
# raw metric shortcuts


def test_raw_metric_values_agree_with_reports():
    rng = np.random.default_rng(30)
    for _ in range(5):
        tab = rng.permutation(256)
        s = sk.SBox(8, tab)
        rep = sk.full_report(s)
        reported = {"du": rep.du, "max_bias": rep.max_bias, "nl": rep.nl,
                    "dsac": rep.dsac.max_raw, "dbic": rep.dbic.max_raw}
        assert set(reported) == set(METRICS)
        for name in METRICS:
            assert raw_metric_value(tab, 8, name) == reported[name], name


@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_raw_nl_and_max_bias_share_one_kernel_on_permutations(n, seed):
    # for a bijection the a = 0 Walsh column is zero at every b != 0
    tab = np.random.default_rng(seed).permutation(1 << n)
    assert raw_metric_value(tab, n, "nl") == (1 << (n - 1)) - raw_metric_value(tab, n, "max_bias")


def test_raw_metric_rejects_unknown():
    with pytest.raises(ValueError, match="unknown metric"):
        raw_metric_value(np.arange(16), 4, "entropy")


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
