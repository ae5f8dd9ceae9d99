"""Render DDT/LAT matrices as diverging blue-white-red pixmaps.

Output is binary PPM (P6): dependency-free, byte-comparable in tests, and
every external viewer understands it.  LAT values are rendered in half
units of the Walsh sum so the familiar bias scale applies directly.

The CSV has a line per row: `%d` entries joined by `,`, ended by a newline.
It is built as uint8 text one block of rows of at most 2^14 entries at a
time, whose temporaries stay inside a 2 MB L2 cache: about 0.7 MB held at
n=12 (53 MB of text), where `sboxkit heatmap` takes 0.9-1.3 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SBox, check_int, check_int_array
from .metrics import compute_ddt, compute_lat

MARKER_COLOR = (0, 255, 0)

_CSV_BLOCK = 1 << 14  # entries per row block of write_matrix_csv, at most 21 bytes each

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
    refused, and so is -2^63, whose magnitude int64 cannot hold."""
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
    interior = vals[1:, 1:]
    max_abs = max(int(interior.max()), -int(interior.min())) if interior.size else 0
    scale = spec.scale if spec.scale is not None else max_abs
    if scale < max_abs:
        raise ValueError(f"scale {scale} is below the matrix extreme {max_abs}")
    scale = max(scale, 1)

    fade = vals / scale  # then in place: round(255 (1 - |clip(v / scale)|))
    np.abs(np.clip(fade, -1.0, 1.0, out=fade), out=fade)
    fade = np.round(np.multiply(np.subtract(1, fade, out=fade), 255, out=fade), out=fade).astype(np.uint8)
    # green is the fade (0 fades to 255, the background); red keeps it below 0, blue above
    white = np.uint8(255)
    rgb = np.stack([np.maximum(fade, (vals >= 0) * white), fade, np.maximum(fade, (vals <= 0) * white)], axis=-1)

    markers = np.zeros(vals.shape, dtype=bool)
    if max_abs > 0:
        markers[1:, 1:] = (interior == max_abs) | (interior == -max_abs)
    cells = np.flatnonzero(markers)
    rgb.reshape(-1, 3)[cells] = MARKER_COLOR
    return rgb, {"scale": scale, "max_abs": max_abs, "marker_count": len(cells), "markers": markers}


def write_ppm(path, rgb: np.ndarray) -> None:
    h, w, depth = rgb.shape
    if depth != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected an (h, w, 3) uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        rgb.tofile(fh)


def _csv_bytes(block: np.ndarray) -> np.ndarray:
    """An int64 row block's text: a [sign][digits][separator] uint8 field per entry, as wide as
    the block's largest magnitude, less its 0 bytes (a plus sign, unused leading places).  Its
    digits come from two buffers of the narrowest unsigned type that holds that magnitude."""
    top = max(int(block.max()), -int(block.min()))
    width = len(str(top))
    rest = np.absolute(block, out=np.empty(block.shape, np.min_scalar_type(top)), casting="unsafe")
    tens = np.empty_like(rest)
    field = np.zeros(block.shape + (width + 2,), dtype=np.uint8)
    field[..., 0] = (block < 0) * np.uint8(ord("-"))
    for place in range(width, 0, -1):  # the units place is kept, so that 0 reads "0"
        np.floor_divide(rest, 10, out=tens)
        field[..., place] = (rest - 10 * tens + ord("0")) * (rest > 0 if place < width else 1)
        rest, tens = tens, rest
    field[..., -1] = ord(",")
    field[:, -1, -1] = ord("\n")
    return np.compress(field.ravel() != 0, field.ravel())


def write_matrix_csv(path, values: np.ndarray) -> None:
    """`%d` entries, `,` between them, a line per row; _CSV_BLOCK entries or one row at a time."""
    vals = _check_matrix(values)
    rows, cols = vals.shape
    step = max(1, _CSV_BLOCK // max(cols, 1))
    with open(path, "wb") as fh:
        for start in range(0, rows, step):
            fh.write(_csv_bytes(vals[start : start + step]) if cols else b"\n" * min(step, rows - start))
