import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import heatmap

import reference


# ---------------------------------------------------------------------------
# value extraction


def test_lat_values_are_half_walsh_sums(aes):
    vals = heatmap.heatmap_values(aes, "lat")
    assert (vals == sk.compute_lat(aes).sums // 2).all()
    assert vals[0, 0] == 128


def test_ddt_values_are_counts(aes):
    assert (heatmap.heatmap_values(aes, "ddt") == sk.compute_ddt(aes).counts).all()


def test_unknown_kind_rejected(aes):
    with pytest.raises(ValueError, match="kind"):
        heatmap.heatmap_values(aes, "walsh")
    with pytest.raises(ValueError, match="kind"):
        heatmap.HeatmapSpec(kind="walsh")


# ---------------------------------------------------------------------------
# rendering


def test_identity_lat_markers_on_diagonal(identity8):
    vals = heatmap.heatmap_values(identity8, "lat")
    rgb, info = heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="lat"))
    assert rgb.shape == (256, 256, 3)
    assert info["max_abs"] == 128
    assert info["marker_count"] == 255  # diagonal, minus the excluded corner
    diag = np.arange(1, 256)
    assert (rgb[diag, diag] == heatmap.MARKER_COLOR).all()
    assert not info["markers"][0, 0]


def test_aes_lat_markers_match_extreme_scan(aes):
    vals = heatmap.heatmap_values(aes, "lat")
    rgb, info = heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="lat"))
    expected = np.zeros((256, 256), dtype=bool)
    expected[1:, 1:] = np.abs(vals[1:, 1:]) == 16
    assert (info["markers"] == expected).all()
    assert info["marker_count"] == int(expected.sum())
    assert (rgb[expected] == heatmap.MARKER_COLOR).all()


def test_palette_sides_and_exterior_cells():
    vals = np.array([[0, 1, 2], [3, -4, 2], [1, 0, -4]])
    rgb, info = heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="lat", scale=8))
    assert info["scale"] == 8
    assert info["max_abs"] == 4
    assert info["marker_count"] == 2
    assert tuple(rgb[1, 1]) == heatmap.MARKER_COLOR
    assert tuple(rgb[2, 2]) == heatmap.MARKER_COLOR
    assert tuple(rgb[0, 0]) == (255, 255, 255)  # zero stays white
    assert tuple(rgb[0, 2]) == (255, 191, 191)  # positive fades toward red
    assert tuple(rgb[1, 0]) == (255, 159, 159)  # row/col 0 painted, never marked
    neg_exterior = np.array([[0, -8], [0, 0]])
    rgb2, _ = heatmap.render_heatmap(neg_exterior, heatmap.HeatmapSpec(kind="lat", scale=8))
    assert tuple(rgb2[0, 1]) == (0, 0, 255)  # negative extreme is pure blue


def test_exterior_excluded_from_scale():
    # the huge corner value must not stretch the color scale
    vals = np.array([[100, 0], [0, 2]])
    rgb, info = heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="lat"))
    assert info["max_abs"] == 2
    assert info["scale"] == 2
    assert tuple(rgb[1, 1]) == heatmap.MARKER_COLOR
    assert tuple(rgb[0, 0]) == (255, 0, 0)  # clipped, not rescaled


def test_scale_below_extreme_rejected(aes):
    vals = heatmap.heatmap_values(aes, "lat")
    with pytest.raises(ValueError, match="below the matrix extreme"):
        heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="lat", scale=15))
    rgb, info = heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="lat", scale=16))
    assert info["scale"] == 16
    for scale in (True, 2.5):
        with pytest.raises(ValueError, match="scale must be >= 1"):
            heatmap.HeatmapSpec(kind="lat", scale=scale)
    assert type(heatmap.HeatmapSpec(kind="lat", scale=np.int64(16)).scale) is int


def test_zero_matrix_renders_white_without_markers():
    rgb, info = heatmap.render_heatmap(np.zeros((4, 4), dtype=np.int64), heatmap.HeatmapSpec(kind="ddt"))
    assert (rgb == 255).all()
    assert info["marker_count"] == 0
    assert info["scale"] == 1


def test_ddt_markers_sit_on_uniformity_cells(aes):
    vals = heatmap.heatmap_values(aes, "ddt")
    _, info = heatmap.render_heatmap(vals, heatmap.HeatmapSpec(kind="ddt"))
    assert info["max_abs"] == 4
    assert info["marker_count"] == 255  # one 4-count per nonzero input difference


# ---------------------------------------------------------------------------
# file formats


def test_ppm_round_trip(tmp_path, aes):
    rgb, _ = heatmap.render_heatmap(
        heatmap.heatmap_values(aes, "lat"), heatmap.HeatmapSpec(kind="lat")
    )
    path = tmp_path / "aes.ppm"
    heatmap.write_ppm(path, rgb)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n256 256\n255\n")
    assert len(blob) == 15 + 256 * 256 * 3
    assert (reference.read_ppm(path) == rgb).all()
    heatmap.write_ppm(path, rgb[::2, ::-1])  # a strided view is written in row order
    assert (reference.read_ppm(path) == rgb[::2, ::-1]).all()


def test_write_ppm_validates_input(tmp_path):
    with pytest.raises(ValueError):
        heatmap.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        heatmap.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4, 3), dtype=np.int64))


def test_read_ppm_rejects_other_formats(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="PPM"):
        reference.read_ppm(path)


def test_matrix_csv_round_trip(tmp_path, aes):
    vals = heatmap.heatmap_values(aes, "lat")
    path = tmp_path / "aes.csv"
    heatmap.write_matrix_csv(path, vals)
    first = path.read_text().splitlines()[0]
    assert first.split(",")[0] == "128"
    assert (np.loadtxt(path, delimiter=",", dtype=np.int64) == vals).all()
    # a non-integer matrix is refused, not truncated (0.7 would render and store as 0)
    for bad in (np.array([[0, 0], [0, 0.7]]), np.array([[0, 0], [0, 1]], dtype=bool)):
        with pytest.raises(ValueError, match="integers"):
            heatmap.render_heatmap(bad, heatmap.HeatmapSpec(kind="lat"))
        with pytest.raises(ValueError, match="integers"):
            heatmap.write_matrix_csv(tmp_path / "bad.csv", bad)
    assert not (tmp_path / "bad.csv").exists()


# ---------------------------------------------------------------------------
# recorded bytes


def _golden_cases():
    """name -> (S-box, kind, scale) for every case of tests/data/heatmap_golden.json."""
    aes = sk.SBox(8, np.array(sk.AES_SBOX))
    weak = sk.random_permutation(np.random.default_rng(5), 256)  # demo 05's random S-box
    shared = max(int(np.abs(heatmap.heatmap_values(b, "lat")[1:, 1:]).max()) for b in (aes, weak))
    random5 = sk.random_permutation(np.random.default_rng(25), 32)
    inverse10 = sk.build_monomial_sbox(sk.default_context(10), "raw", e=(1 << 10) - 2)
    return {
        "aes_ddt": (aes, "ddt", None),
        "aes_lat": (aes, "lat", None),
        "aes_lat_scale36": (aes, "lat", 36),
        "identity8_lat": (sk.SBox(8, np.arange(256)), "lat", None),
        "demo05_random_lat_shared": (weak, "lat", shared),
        "random5_ddt": (random5, "ddt", None),
        "random5_lat": (random5, "lat", None),
        "inverse10_ddt": (inverse10, "ddt", None),
    }


def _golden_digest(box, kind, scale, directory):
    """The sha256 of the PPM and CSV files a heatmap writes, and its info numbers."""
    values = heatmap.heatmap_values(box, kind)
    rgb, info = heatmap.render_heatmap(values, heatmap.HeatmapSpec(kind=kind, scale=scale))
    heatmap.write_ppm(directory / "h.ppm", rgb)
    heatmap.write_matrix_csv(directory / "h.csv", values)
    return {
        "ppm_sha256": hashlib.sha256((directory / "h.ppm").read_bytes()).hexdigest(),
        "csv_sha256": hashlib.sha256((directory / "h.csv").read_bytes()).hexdigest(),
        **{key: info[key] for key in ("scale", "max_abs", "marker_count")},
    }


def test_heatmap_files_match_recorded_bytes(tmp_path):
    # recorded with the np.savetxt writer and the masked render, which
    # tests/reference.py keeps as savetxt_csv and render_masked
    recorded = json.loads((Path(__file__).parent / "data" / "heatmap_golden.json").read_text())
    cases = _golden_cases()
    assert list(recorded) == list(cases)
    for name, case in cases.items():
        assert _golden_digest(*case, tmp_path) == recorded[name], name


# ---------------------------------------------------------------------------
# the earlier output paths as oracles: reference.savetxt_csv and render_masked

TOP = 2**63 - 1
_rng = np.random.default_rng(2025)
CSV_EDGES = {
    "1x1": np.array([[-7]]),
    "1xk": np.arange(-3, 4)[np.newaxis],
    "kx1": np.arange(-3, 4)[:, np.newaxis],
    "0xk": np.zeros((0, 5), dtype=np.int64),
    "kx0": np.zeros((5, 0), dtype=np.int64),
    "257x256": _rng.integers(-1000, 1000, size=(257, 256)),  # two blocks, the second one row
    "1x70000": _rng.integers(-99, 100, size=(1, 70_000)),  # a row wider than a block
    "all negative": -_rng.integers(1, 10**6, size=(40, 30)),
    # each edge is its block's largest magnitude, so it sets the field width
    **{f"edge {v}": np.array([[v, -v, v - 1], [0, 1 - v, -1]]) for v in (9, 10, 99, 100, 10**18, TOP)},
}


def _file_bytes(path, values, writer):
    writer(path, values)
    return path.read_bytes()


@pytest.mark.parametrize("name", CSV_EDGES)
def test_matrix_csv_matches_savetxt_on_edges(tmp_path, name):
    values = CSV_EDGES[name]
    new = _file_bytes(tmp_path / "new.csv", values, heatmap.write_matrix_csv)
    assert new == _file_bytes(tmp_path / "old.csv", values, reference.savetxt_csv)


def _maps(n):
    return {**reference.oracle_maps(n), "identity": np.arange(1 << n)}


@pytest.mark.parametrize("n", range(2, 9))
def test_matrix_csv_matches_savetxt_on_tables(tmp_path, n):
    for name, table in _maps(n).items():
        for kind in heatmap.KINDS:
            values = heatmap.heatmap_values(sk.SBox(n, table), kind)
            new = _file_bytes(tmp_path / "new.csv", values, heatmap.write_matrix_csv)
            assert new == _file_bytes(tmp_path / "old.csv", values, reference.savetxt_csv), (name, kind)


_MIXED = _rng.integers(-1000, 1000, size=(9, 11))
_MIXED[::2, ::3] = 0
_MIXED[1, 1], _MIXED[3, 7], _MIXED[8, 10] = TOP, -TOP, TOP
BLOCK_CASES = {
    "mixed": _MIXED,
    "row": _MIXED.reshape(1, -1),
    "column": _MIXED.reshape(-1, 1),
}


@pytest.mark.parametrize("block", [1, 7, 256, 1 << 14, 1 << 16])
def test_matrix_csv_does_not_depend_on_the_block_size(tmp_path, monkeypatch, block):
    # each block picks its own digit type and field width from its largest magnitude
    monkeypatch.setattr(heatmap, "_CSV_BLOCK", block)
    for name, values in BLOCK_CASES.items():
        new = _file_bytes(tmp_path / "new.csv", values, heatmap.write_matrix_csv)
        assert new == _file_bytes(tmp_path / "old.csv", values, reference.savetxt_csv), name


@pytest.mark.parametrize("n", range(9, 13))
def test_matrix_csv_rows_match_savetxt_at_large_n(tmp_path, n, csv_rows_match_savetxt):
    # the permutation only: its DDT's first block is wider than the rest
    table = reference.oracle_maps(n)["permutation"]
    for kind in heatmap.KINDS:
        values = heatmap.heatmap_values(sk.SBox(n, table), kind)
        heatmap.write_matrix_csv(tmp_path / "m.csv", values)
        csv_rows_match_savetxt(tmp_path / "m.csv", values, tmp_path)


@pytest.mark.parametrize("n", range(2, 11))
def test_render_matches_masked_oracle(n):
    for name, table in _maps(n).items():
        for kind in heatmap.KINDS:
            values = heatmap.heatmap_values(sk.SBox(n, table), kind)
            default = heatmap.render_heatmap(values, heatmap.HeatmapSpec(kind=kind))[1]["scale"]
            for scale in (None, 2 * default):
                spec = heatmap.HeatmapSpec(kind=kind, scale=scale)
                rgb, info = heatmap.render_heatmap(values, spec)
                old_rgb, old_info = reference.render_masked(values, spec)
                assert rgb.dtype == np.uint8 and rgb.tobytes() == old_rgb.tobytes(), (name, kind, scale)
                assert np.array_equal(info.pop("markers"), old_info.pop("markers")), (name, kind, scale)
                assert info == old_info, (name, kind, scale)


def test_output_memory_is_bounded_at_n12(tmp_path, traced_peak_mb):
    values = heatmap.heatmap_values(sk.random_permutation(np.random.default_rng(12), 4096), "lat")
    # one 128 MB float64 fade, then uint8 planes; the masked render peaked at 512 MB
    assert traced_peak_mb(lambda: heatmap.render_heatmap(values, heatmap.HeatmapSpec(kind="lat"))) < 192
    rgb, _ = heatmap.render_heatmap(values, heatmap.HeatmapSpec(kind="lat"))
    # the pixels go to the file as they are, not through a 48 MB bytes copy
    assert traced_peak_mb(lambda: heatmap.write_ppm(tmp_path / "lat.ppm", rgb)) < 8


@pytest.mark.parametrize("kind", heatmap.KINDS)
def test_csv_memory_stays_within_l2_at_n12(tmp_path, traced_peak_mb, kind):
    values = heatmap.heatmap_values(sk.random_permutation(np.random.default_rng(12), 4096), kind)
    # the whole text would be over 50 MB; a 2^14-entry block's fields, digit
    # buffers and compressed text stay under 1 MB (a 2^16-entry block took 2.4-3.1 MB)
    assert traced_peak_mb(lambda: heatmap.write_matrix_csv(tmp_path / f"{kind}.csv", values)) < 1
