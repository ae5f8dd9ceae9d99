"""The one array rule, `core.check_int_array`, at every array entry point.

Each entry point takes one array argument, made from `good` (valid values
that fit every integer dtype down to int8), and refuses every entry type
or value outside [lo, hi] with ValueError naming its rule, before any cast.
"""

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import core, heatmap, spn

BIG = 2**64 - 1
AES = sk.SBox(8, np.array(sk.AES_SBOX))
CFG = spn.SpnConfig(sbox=AES, rounds=2)
ONE = np.array([3], dtype=np.uint64)
WORDS = "must be non-negative integers below 2^64"
MATRIX = "matrix entries must be integers of magnitude below 2^63"


def _csv(values, tmp_path):
    heatmap.write_matrix_csv(tmp_path / "m.csv", values)
    return (tmp_path / "m.csv").read_text()


def _render(values, tmp_path):
    rgb, info = heatmap.render_heatmap(values, heatmap.HeatmapSpec(kind="ddt"))
    return rgb.tobytes(), info["scale"], info["max_abs"], info["markers"].tobytes()


@dataclass
class Entry:
    call: Callable  # (array argument, tmp_path) -> a comparable result
    good: list
    rule: str
    lo: int
    hi: int


ENTRIES = {
    "SBox": Entry(lambda x, _: sk.SBox(2, x), [3, 0, 1, 2], "table entries must be integers in [0, 4)", 0, 3),
    "encrypt_blocks": Entry(lambda x, _: spn.encrypt_blocks(x, ONE, CFG).tolist(), [0, 5, 127], "blocks " + WORDS,
                            0, BIG),
    "encrypt_blocks-masters": Entry(lambda x, _: spn.encrypt_blocks(ONE, x, CFG).tolist(), [9], "masters " + WORDS,
                                    0, BIG),
    "decrypt_blocks": Entry(lambda x, _: spn.decrypt_blocks(x, ONE, CFG).tolist(), [0, 5, 127], "blocks " + WORDS,
                            0, BIG),
    "decrypt_blocks-masters": Entry(lambda x, _: spn.decrypt_blocks(ONE, x, CFG).tolist(), [9], "masters " + WORDS,
                                    0, BIG),
    "avalanche_experiment": Entry(lambda x, _: spn.avalanche_experiment(CFG, x), [[1, 2], [100, 0], [7, 7]],
                                  "pairs " + WORDS, 0, BIG),
    "render_heatmap": Entry(_render, [[4, 0, 1], [0, 2, 0], [3, 0, 2]], MATRIX, -(2**63 - 1), 2**63 - 1),
    "write_matrix_csv": Entry(_csv, [[4, 0], [1, 2]], MATRIX, -(2**63 - 1), 2**63 - 1),
}


def _with(good, value):
    """good with its last entry replaced by value, and that entry's index as the message writes it."""
    bad = np.array(good, dtype=object)
    where = bad.size - 1 if bad.ndim == 1 else tuple(s - 1 for s in bad.shape)
    bad[where] = value
    return bad.tolist(), where


def _bad_inputs(e: Entry):
    """(input, message fragment after the rule) for each way an argument can break the rule."""
    yield np.array(e.good, dtype=np.float64), "got dtype float64"
    yield np.array(e.good, dtype=bool), "got dtype bool"
    yield np.array(e.good, dtype=object), "got dtype object"
    yield np.array(e.good).astype(str), "got dtype <U"
    for value in (1.5, True, "7", None):  # a list is read entry by entry
        bad, where = _with(e.good, value)
        yield bad, f"got {value} at index {where}"
    for value in (e.lo - 1, e.hi + 1):
        bad, where = _with(e.good, value)
        yield bad, f"got {value} at index {where}"
        # the same entry in every integer array that can hold it: for a matrix, a uint64 2^63,
        # which the int64 cast would wrap to -2^63
        for dtype in (np.int64, np.uint64):
            if np.iinfo(dtype).min <= value <= np.iinfo(dtype).max:
                yield np.array(bad, dtype=dtype), f"got {value} at index {where}"


@pytest.mark.parametrize("name", ENTRIES)
def test_array_entry_points_refuse_what_the_rule_refuses(name, tmp_path):
    e = ENTRIES[name]
    for bad, fragment in _bad_inputs(e):
        with pytest.raises(ValueError, match=re.escape(f"{e.rule}, {fragment}")):
            e.call(bad, tmp_path)


@pytest.mark.parametrize("name", ENTRIES)
def test_array_entry_points_read_every_integer_kind_alike(name, tmp_path):
    e = ENTRIES[name]
    expected = e.call(np.array(e.good, dtype=np.int64), tmp_path)
    for x in (e.good, tuple(e.good)) + tuple(np.array(e.good, dtype=d) for d in (np.int8, np.uint8, np.uint64)):
        assert e.call(x, tmp_path) == expected


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
def test_heatmap_requires_a_matrix(shape, tmp_path):
    values = np.zeros(shape, dtype=np.int64)
    for call in (_render, _csv):
        with pytest.raises(ValueError, match="matrix must be 2-D"):
            call(values, tmp_path)


def test_heatmap_reads_its_most_negative_entry_exactly(tmp_path):
    # the rule's lo stops one above -2^63, whose np.abs wraps in int64 and would hide it from scale and markers
    values = np.array([[0, 0, 0], [0, 5, 0], [0, 0, -(2**63 - 1)]], dtype=np.int64)
    assert _render(values, tmp_path)[1:3] == (2**63 - 1, 2**63 - 1)
    assert _csv(values, tmp_path).splitlines()[-1] == f"0,0,{-(2**63 - 1)}"


def test_python_int_lists_past_2_63_are_read_exactly():
    # numpy reads a list of ints on both sides of 2^63 as float64, which the rule would refuse
    pairs = spn.generate_pairs(10, 1)
    assert np.asarray(pairs.tolist()).dtype == np.float64
    assert spn.avalanche_experiment(CFG, pairs.tolist()) == spn.avalanche_experiment(CFG, pairs)
    pts, masters = pairs[:, 0], pairs[:, 1]
    cts = spn.encrypt_blocks(pts, masters, CFG)
    assert np.array_equal(spn.encrypt_blocks(pts.tolist(), masters.tolist(), CFG), cts)
    as_ints = [spn.block_to_int(spn.int_to_block(int(p))) for p in pts]
    assert np.array_equal(spn.encrypt_blocks(as_ints, masters, CFG), cts)
    assert np.array_equal(spn.decrypt_blocks(cts.tolist(), masters.tolist(), CFG), pts)
    for value in (2**64, -1, 1.5, True):
        with pytest.raises(ValueError, match=re.escape(f"blocks {WORDS}, got {value} at index 9")):
            spn.encrypt_blocks(pts.tolist()[:9] + [value], masters, CFG)
        with pytest.raises(ValueError, match=re.escape(f"pairs {WORDS}, got {value} at index (9, 1)")):
            spn.avalanche_experiment(CFG, pairs.tolist()[:9] + [[1, value]])


def test_uint64_blocks_and_pairs_pass_uncopied(monkeypatch):
    shared = []

    def spy(values, *rule):
        out = core.check_int_array(values, *rule)
        shared.append(np.shares_memory(out, values))
        return out

    monkeypatch.setattr(spn, "check_int_array", spy)
    pairs = spn.generate_pairs(5, 2)
    spn.avalanche_experiment(CFG, pairs)
    spn.encrypt_blocks(pairs[:, 0], pairs[:, 1], CFG)
    spn.decrypt_blocks(pairs[:, 0], pairs[:, 1], CFG)
    assert shared == [True] * 5
