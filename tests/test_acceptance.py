"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL/SKIP scoreboard line on the real stdout
so the summary survives pytest's output capture.  The last test checks the
reference-table loader that criteria 5 and 8 share.
"""

import contextlib
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import anf, heatmap, spn
from sboxkit.search import SearchConfig, builtin_cycle_specs, run_search

import conftest
import reference


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except pytest.skip.Exception:
        _record(f"[criterion {num:2d}] SKIP {label}")
        raise
    except BaseException:
        _record(f"[criterion {num:2d}] FAIL {label}")
        raise
    _record(f"[criterion {num:2d}] PASS {label}")


def _record(line):
    conftest.acceptance_log.append(line)
    print(line, file=sys.__stdout__, flush=True)


# Published metric rows (DU, MAX BIAS, DSAC max, DBIC max, NL) for three
# named winners of the original search runs.  Their 256-entry tables were
# published only in an external listing (8x8_S-boxes.txt) that is not
# redistributed here; load_reference_sbox reads them from a user-supplied
# directory.
REFERENCE_ROWS = {
    "DSAC_Random": (10, 34, Fraction(1, 16), Fraction(11, 128), 94),
    "DBIC_Rij_Cyc": (12, 36, Fraction(3, 32), Fraction(1, 16), 92),
    "NL_64_4": (10, 30, Fraction(7, 32), Fraction(11, 64), 98),
}

# The search each name encodes: (metric, builtin cycle spec or None).
REFERENCE_SEARCHES = {
    "DSAC_Random": ("dsac", None),
    "DBIC_Rij_Cyc": ("dbic", "rijndael"),
    "NL_64_4": ("nl", "64x4"),
}


def reference_table_path(name):
    """$SBOXKIT_REFERENCE_DIR/<name>.txt if that file exists, else None."""
    root = os.environ.get("SBOXKIT_REFERENCE_DIR")
    if not root:
        return None
    path = Path(root) / f"{name}.txt"
    return path if path.is_file() else None


def missing_tables_message(missing):
    return (
        "reference tables not bundled: " + ", ".join(missing)
        + "; the source listing (8x8_S-boxes.txt) is not "
        "redistributed with this package. Set SBOXKIT_REFERENCE_DIR "
        "to a directory containing <name>.txt tables to enable."
    )


def load_reference_sbox(name):
    """The table in $SBOXKIT_REFERENCE_DIR/<name>.txt, else None.

    A supplied file holds the 256 entries of an 8-bit table, separated by
    whitespace or commas, in decimal or in hex (with or without 0x).  For a
    permutation the two cannot be confused: its hex listing has a token with
    a letter in it, which decimal parsing rejects.
    """
    path = reference_table_path(name)
    if path is None:
        return None
    text = path.read_text()
    try:
        s = sk.parse_sbox(text)
    except sk.SboxParseError:
        try:
            s = sk.parse_sbox(text, base=16)
        except sk.SboxParseError as exc:
            raise sk.SboxParseError(f"{path}: {exc}") from exc
    if s.n != 8:
        raise sk.SboxParseError(f"{path}: expected an 8-bit table of 256 entries, got {s.size}")
    return s


def reference_or_search_winner(name):
    """The published table if supplied, else the winner of the search it names."""
    s = load_reference_sbox(name)
    if s is not None:
        return s
    metric, spec = REFERENCE_SEARCHES[name]
    cycle_spec = builtin_cycle_specs()[spec] if spec else None
    cfg = SearchConfig(n=8, metric=metric, tries=1000, seed=1, cycle_spec=cycle_spec)
    return run_search(cfg).best_sbox


def avalanche_distances(sbox):
    """|mean flipped bits - 32| after 4, 6 and 12 rounds on one fixed pair set."""
    pairs = spn.generate_pairs(10_000, 2024)
    return {
        rounds: spn.avalanche_experiment(spn.SpnConfig(sbox=sbox, rounds=rounds), pairs).distance_from_32
        for rounds in (4, 6, 12)
    }


def assert_saturates(dist, name):
    # 6 and 12 rounds are both within sampling noise of 32 at 10^4 trials,
    # so their order is not asserted, only that both sit far below 4 rounds
    assert dist[4] > dist[6], name
    assert dist[4] > dist[12], name
    assert dist[12] < Fraction(5, 100), name


def test_criterion_01_aes_metrics_exact(aes):
    with criterion(1, "AES metric suite exact in under a second"):
        t0 = time.perf_counter()
        rep = sk.full_report(aes)
        elapsed = time.perf_counter() - t0
        assert rep.du == 4
        assert rep.max_bias == 16
        assert rep.nl == 112
        assert rep.dsac.max_raw == 16
        assert rep.dsac.max_norm == Fraction(1, 16)
        assert rep.dsac.mean_norm == Fraction(27, 1024)
        assert rep.dbic.max_norm == Fraction(9, 128)
        assert rep.csv_row("aes") == "aes,4,16,0.0625,0.0703125,112"
        assert elapsed < 1.0


def test_criterion_02_aes_cycle_structure(aes):
    with criterion(2, "AES cycle type {2,27,59,81,87} with no (opposite) fixed points"):
        cs = sk.cycle_decomposition(aes)
        assert cs.lengths == (2, 27, 59, 81, 87)
        assert cs.fixed_points == 0
        assert cs.opposite_fixed_points == 0


def test_criterion_03_apn_permutation_dimension_six(dillon):
    with criterion(3, "bundled 6-bit permutation is APN in under 100 ms"):
        t0 = time.perf_counter()
        bijective = sk.is_bijective(dillon)
        du = sk.differential_uniformity(sk.compute_ddt(dillon))
        elapsed = time.perf_counter() - t0
        assert bijective
        assert du == 2
        assert elapsed < 0.1


def test_criterion_04_power_map_apn_exponents():
    with criterion(4, "gold x^3 on n=8 and the n=7 inverse-family map are APN"):
        gold = sk.build_monomial_sbox(sk.default_context(8), "gold", i=1)
        assert sk.differential_uniformity(sk.compute_ddt(gold)) == 2
        inv7 = sk.build_monomial_sbox(sk.default_context(7), "inverse")
        assert sk.differential_uniformity(sk.compute_ddt(inv7)) == 2


def test_criterion_05_reference_tables_reproduce_published_rows():
    with criterion(5, "named search-winner tables reproduce their metric rows"):
        if not any(reference_table_path(name) for name in REFERENCE_ROWS):
            pytest.skip(missing_tables_message(list(REFERENCE_ROWS)))
        missing = []
        for name, row in REFERENCE_ROWS.items():
            s = load_reference_sbox(name)
            if s is None:
                missing.append(name)
                continue
            rep = sk.full_report(s)
            du, bias, dsac_max, dbic_max, nl = row
            assert (rep.du, rep.max_bias, rep.nl) == (du, bias, nl)
            assert rep.dsac.max_norm == dsac_max
            assert rep.dbic.max_norm == dbic_max
        if missing:
            pytest.fail(missing_tables_message(missing))


def test_criterion_06_unconstrained_search_statistics():
    with criterion(6, "random-search means match the published population"):
        means = {}
        for metric in ("du", "nl", "max_bias"):
            cfg = SearchConfig(n=8, metric=metric, tries=10_000, seed=1)
            means[metric] = float(run_search(cfg).mean_value)
        assert abs(means["du"] - 11.35) <= 0.3
        assert abs(means["nl"] - 92.77) <= 1.0
        assert abs(means["max_bias"] - 35.28) <= 1.0


def test_criterion_07_constrained_generation_property():
    with criterion(7, "every constrained candidate has the requested cycle type"):
        rng = np.random.default_rng(7)
        for spec in sk.builtin_cycle_specs().values():
            want = tuple(sorted(spec.lengths))
            for _ in range(1000):
                s = sk.random_permutation_with_cycles(rng, spec)
                assert sk.cycle_decomposition(s).lengths == want


def test_criterion_08_avalanche_saturation_aes(aes):
    with criterion(8, "diffusion distance saturates by 12 rounds (AES core)"):
        assert_saturates(avalanche_distances(aes), "aes")


def test_criterion_08_avalanche_ordering_reference_tables():
    sources = ", ".join(
        f"{name}: {'published' if reference_table_path(name) else 'seeded search'}"
        for name in REFERENCE_SEARCHES
    )
    with criterion(8, f"diffusion saturates for the search winners ({sources})"):
        for name in REFERENCE_SEARCHES:
            assert_saturates(avalanche_distances(reference_or_search_winner(name)), name)


def test_criterion_09_oracle_equivalence():
    with criterion(9, "fast LAT/DDT paths agree with naive reimplementations"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            s = sk.SBox(4, rng.permutation(16))
            assert sk.compute_lat(s).sums.tolist() == reference.lat_full(s.table, 4)
        rng = np.random.default_rng(1234)
        s8 = sk.SBox(8, rng.permutation(256))
        l8 = sk.compute_lat(s8).sums
        for a, b in rng.integers(0, 256, size=(1000, 2)):
            assert l8[a, b] == reference.lat_entry(s8.table, 8, int(a), int(b))
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            s = sk.SBox(8, rng.permutation(256))
            assert sk.compute_ddt(s).counts.tolist() == reference.ddt_bincount(s.table, 8).tolist()


def test_criterion_10_invariant_suites(aes):
    with criterion(10, "structural invariants and cipher round-trips hold"):
        rng = np.random.default_rng(77)
        for _ in range(5):
            s = sk.SBox(8, rng.permutation(256))
            d = sk.compute_ddt(s).counts
            assert (d % 2 == 0).all()
            assert (d.sum(axis=1) == 256).all()
            l = sk.compute_lat(s).sums
            assert ((l * l).sum(axis=0) == 65536).all()
            assert (l[1:, 0] == 0).all()
            for _ in range(3):
                bits = rng.integers(0, 2, size=256).astype(np.uint8)
                assert np.array_equal(anf._mobius(anf._mobius(bits)), bits)
        cfg = spn.SpnConfig(sbox=aes, rounds=12)
        pts = rng.integers(0, 2 ** 64, size=10_000, dtype=np.uint64)
        masters = rng.integers(0, 2 ** 64, size=10_000, dtype=np.uint64)
        cts = spn.encrypt_blocks(pts, masters, cfg)
        assert (spn.decrypt_blocks(cts, masters, cfg) == pts).all()
        for idx in (0, 17, 9_999):
            ct = spn.encrypt_block(
                spn.int_to_block(int(pts[idx])), spn.int_to_block(int(masters[idx])), cfg
            )
            assert spn.block_to_int(ct) == int(cts[idx])
        assert spn.key_schedule(b"\x00" * 8, replace(cfg, rounds=1)) == (bytes([0x01] + [0] * 7),)


def test_criterion_11_heatmap_markers_and_csv(aes, tmp_path):
    with criterion(11, "LAT heatmap markers match an independent extreme scan"):
        # independent LAT: two signed parity matrices multiplied directly
        x = np.arange(256)
        sign_in = 1 - 2 * (
            np.bitwise_count(np.bitwise_and.outer(x, x).astype(np.uint64)).astype(np.int64) & 1
        )
        sign_out = 1 - 2 * (
            np.bitwise_count(np.bitwise_and.outer(aes.table, x).astype(np.uint64)).astype(np.int64) & 1
        )
        independent_bias = (sign_in.T @ sign_out) // 2
        expected = np.zeros((256, 256), dtype=bool)
        expected[1:, 1:] = np.abs(independent_bias[1:, 1:]) == 16

        vals = heatmap.heatmap_values(aes, "lat")
        assert (vals == independent_bias).all()
        rgb, info = heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="lat"))
        assert rgb.shape == (256, 256, 3)
        assert (info["markers"] == expected).all()

        ppm = tmp_path / "aes_lat.ppm"
        heatmap.write_ppm(ppm, rgb)
        green = (reference.read_ppm(ppm) == np.array(heatmap.MARKER_COLOR, dtype=np.uint8)).all(axis=2)
        assert (green == expected).all()

        csv = tmp_path / "aes_lat.csv"
        heatmap.write_matrix_csv(csv, vals)
        assert (np.loadtxt(csv, delimiter=",", dtype=np.int64) == vals).all()


def test_reference_tables_load_from_supplied_directory(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    tables = {name: rng.permutation(256) for name in REFERENCE_ROWS}
    listings = {
        "DSAC_Random": sk.format_sbox(sk.SBox(8, tables["DSAC_Random"])),
        "DBIC_Rij_Cyc": " ".join(f"{v:02x}" for v in tables["DBIC_Rij_Cyc"]),
        "NL_64_4": "\n".join(f"0x{v:02X}" for v in tables["NL_64_4"]),
    }
    for name, text in listings.items():
        (tmp_path / f"{name}.txt").write_text(text)

    monkeypatch.delenv("SBOXKIT_REFERENCE_DIR", raising=False)
    for name in tables:
        assert reference_table_path(name) is None
        assert load_reference_sbox(name) is None

    monkeypatch.setenv("SBOXKIT_REFERENCE_DIR", str(tmp_path))
    for name, table in tables.items():
        assert reference_table_path(name) == tmp_path / f"{name}.txt"
        assert load_reference_sbox(name).table.tolist() == table.tolist()

    (tmp_path / "NL_64_4.txt").write_text(" ".join(map(str, range(16))))
    with pytest.raises(sk.SboxParseError, match="NL_64_4.txt.*8-bit"):
        load_reference_sbox("NL_64_4")
    (tmp_path / "NL_64_4.txt").write_text(listings["NL_64_4"].replace("0x", "0y", 1))
    with pytest.raises(sk.SboxParseError, match="NL_64_4.txt.*base-16"):
        load_reference_sbox("NL_64_4")
