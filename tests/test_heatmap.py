import numpy as np
import pytest

import sboxkit as sk
from sboxkit import heatmap


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
    assert (heatmap.read_ppm(path) == rgb).all()


def test_write_ppm_validates_input(tmp_path):
    with pytest.raises(ValueError):
        heatmap.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        heatmap.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4, 3), dtype=np.int64))


def test_read_ppm_rejects_other_formats(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="PPM"):
        heatmap.read_ppm(path)


def test_matrix_csv_round_trip(tmp_path, aes):
    vals = heatmap.heatmap_values(aes, "lat")
    path = tmp_path / "aes.csv"
    heatmap.write_matrix_csv(path, vals)
    first = path.read_text().splitlines()[0]
    assert first.split(",")[0] == "128"
    assert (heatmap.read_matrix_csv(path) == vals).all()
    # a non-integer matrix is refused, not truncated (0.7 would render and store as 0)
    for bad in (np.array([[0, 0], [0, 0.7]]), np.array([[0, 0], [0, 1]], dtype=bool)):
        with pytest.raises(ValueError, match="integers"):
            heatmap.render_heatmap(bad, heatmap.HeatmapSpec(kind="lat"))
        with pytest.raises(ValueError, match="integers"):
            heatmap.write_matrix_csv(tmp_path / "bad.csv", bad)
    assert not (tmp_path / "bad.csv").exists()
