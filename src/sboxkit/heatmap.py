"""Render DDT/LAT matrices as diverging blue-white-red pixmaps.

Output is binary PPM (P6): dependency-free, byte-comparable in tests, and
every external viewer understands it.  LAT values are rendered in half
units of the Walsh sum so the familiar bias scale applies directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SBox, check_int, check_int_array
from .metrics import compute_ddt, compute_lat

MARKER_COLOR = (0, 255, 0)

# the integer matrix a heatmap of each kind renders
KINDS = {
    "lat": lambda s: compute_lat(s).sums // 2,  # biases
    "ddt": lambda s: compute_ddt(s).counts,
}


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be {' or '.join(map(repr, KINDS))}, got {kind!r}")


@dataclass(frozen=True)
class HeatmapSpec:
    kind: str  # a key of KINDS
    scale: int | None = None  # symmetric bound; None = matrix max

    def __post_init__(self):
        _check_kind(self.kind)
        if self.scale is not None:
            object.__setattr__(self, "scale", check_int(self.scale, "scale must be >= 1", 1))


def heatmap_values(s: SBox, kind: str) -> np.ndarray:
    """The integer matrix a heatmap renders: biases for LAT, counts for DDT."""
    _check_kind(kind)
    return KINDS[kind](s)


def _check_matrix(values) -> np.ndarray:
    """values as a 2-D int64 matrix.  A uint64 entry the cast would wrap is
    refused, and so is -2^63, which `np.abs` would leave negative."""
    top = 2**63 - 1
    vals = check_int_array(values, "matrix entries must be integers of magnitude below 2^63", -top, top)
    if vals.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {vals.shape}")
    return vals


def render_heatmap(values: np.ndarray, spec: HeatmapSpec):
    """Returns (rgb array, info dict).

    Row 0 and column 0 are painted like everything else but excluded from
    the scale and from marker selection; markers overpaint every interior
    cell attaining the extreme absolute value, either sign.
    """
    vals = _check_matrix(values)
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
        rgb[markers] = MARKER_COLOR
    info = {
        "scale": scale,
        "max_abs": max_abs,
        "marker_count": int(markers.sum()),
        "markers": markers,
    }
    return rgb, info


def write_ppm(path, rgb: np.ndarray) -> None:
    h, w, depth = rgb.shape
    if depth != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected an (h, w, 3) uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P6"):
        raise ValueError("not a binary PPM file")
    parts = blob.split(b"\n", 3)
    w, h = (int(v) for v in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w, 3)


def write_matrix_csv(path, values: np.ndarray) -> None:
    np.savetxt(path, _check_matrix(values), fmt="%d", delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.int64)
