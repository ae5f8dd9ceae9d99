import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import cli, spn
from sboxkit.cli import build_parser, main
from sboxkit.core import FAMILIES
from sboxkit.heatmap import KINDS
from sboxkit.metrics import METRICS, full_report
from sboxkit.search import SearchConfig, builtin_cycle_specs, run_search

import reference


@pytest.fixture()
def aes_file(tmp_path, aes):
    path = tmp_path / "aes.txt"
    path.write_text(sk.format_sbox(aes))
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_json(aes, aes_file, capsys):
    assert main(["analyze", aes_file]) == 0
    out = capsys.readouterr().out
    assert out == full_report(aes).to_json("aes")
    doc = json.loads(out)
    assert doc["name"] == "aes"
    assert doc["du"] == 4
    assert doc["max_bias"] == 16
    assert doc["nl"] == 112
    assert doc["dsac_max"] == "0.0625"
    assert doc["dbic_max"] == "0.0703125"
    assert doc["cycle_lengths"] == [2, 27, 59, 81, 87]


def test_analyze_csv_row(aes_file, capsys):
    assert main(["analyze", aes_file, "--format", "csv", "--name", "rijndael"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,DU,MAX BIAS,DSAC,DBIC,NL"
    assert out[1] == "rijndael,4,16,0.0625,0.0703125,112"


def test_analyze_with_anf_extras(aes_file, capsys):
    assert main(["analyze", aes_file, "--with-degree", "--with-ai"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 7
    assert doc["ai"] == 4


@pytest.mark.parametrize("name", ["a,b", 'x"y', "line\nbreak", "cr\rlf\n", "plain"])
@pytest.mark.parametrize("command", [["analyze"], ["avalanche", "--rounds", "1", "--trials", "20", "--seed", "3"]])
def test_csv_names_round_trip_through_csv_reader(tmp_path, aes_file, command, name):
    """A name holding a comma, a quote or a line break is quoted, so csv.reader
    reads it back whole, in a row with as many fields as the header."""
    out = tmp_path / "report.csv"
    assert main([command[0], aes_file, *command[1:], "--format", "csv", "--name", name, "-o", str(out)]) == 0
    with open(out, newline="") as f:
        header, row = csv.reader(f)
    assert row[0] == name
    assert len(row) == len(header) > 2


def test_csv_name_from_the_file_name_is_quoted(tmp_path, aes, capsys):
    path = tmp_path / "a,b.txt"
    path.write_text(sk.format_sbox(aes))
    assert main(["analyze", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == '"a,b",4,16,0.0625,0.0703125,112'


def test_analyze_hex_input(tmp_path, aes, capsys):
    path = tmp_path / "aes.hex"
    path.write_text(" ".join(f"{v:02x}" for v in aes.table))
    assert main(["analyze", str(path), "--base", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["du"] == 4


def test_analyze_output_file(aes_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", aes_file, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["nl"] == 112


def test_analyze_non_bijective_still_reports(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("0 0 0 0\n")
    assert main(["analyze", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bijective"] is False
    assert "cycle_lengths" not in doc


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2 bogus\n")
    assert main(["analyze", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_analyze_refuses_a_token_outside_the_grammar(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 1_0\n")  # int() would read 1_0 as 10
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: line 2: token '1_0' is not a base-10 integer\n")


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    ("analyze", []),
    ("avalanche", ["--rounds", "1", "--seed", "1"]),
    ("heatmap", ["-o", "x.ppm"]),
])
def test_non_utf8_sbox_file_exits_2(command, extra, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe\x00\x01")
    assert main([command, "bad.txt", *extra]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "x.ppm").exists()


# ---------------------------------------------------------------------------
# gen


def test_gen_matches_library(tmp_path, capsys):
    assert main(["gen", "gold", "--n", "8", "--i", "1"]) == 0
    text = capsys.readouterr().out
    expected = sk.build_monomial_sbox(sk.default_context(8), "gold", i=1)
    assert sk.parse_sbox(text) == expected


def test_gen_raw_identity(capsys):
    assert main(["gen", "raw", "--n", "4", "--e", "1"]) == 0
    assert sk.parse_sbox(capsys.readouterr().out) == sk.SBox(4, np.arange(16))


def test_gen_condition_failure_exits_3(capsys):
    assert main(["gen", "welch", "--n", "8"]) == 3
    assert "odd n" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 8, 12])
def test_gen_inverse_at_even_n_names_the_raw_exponent(n, capsys):
    # the inverse family is odd-n only; the field inverse at even n is one raw exponent
    assert main(["gen", "inverse", "--n", str(n)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"inverse requires odd n = 2t + 1, got n={n}; the field inverse x^(2^n - 2) is raw with " \
           f"e = {(1 << n) - 2} (gen raw --e {(1 << n) - 2})" in captured.err
    assert main(["gen", "raw", "--n", str(n), "--e", str((1 << n) - 2)]) == 0
    table = sk.parse_sbox(capsys.readouterr().out).table
    assert (table[table] == np.arange(1 << n)).all()  # the field inverse is an involution


def test_gen_missing_parameter_exits_3(capsys):
    assert main(["gen", "gold", "--n", "8"]) == 3
    assert "requires parameter i" in capsys.readouterr().err


@pytest.mark.parametrize("n", [4, 5, 8])
def test_gen_refuses_a_parameter_the_family_does_not_take(n, tmp_path, capsys):
    # refused before any condition on n is checked, so the message is the same at every n
    out = tmp_path / "s.txt"
    assert main(["gen", "gold", "--n", str(n), "--i", "1", "--e", "7", "-o", str(out)]) == 3
    assert capsys.readouterr().err == "error: gold takes no parameter e\n"
    assert not out.exists()


def test_gen_irreducible_override(tmp_path, capsys):
    # x^4 + x^3 + 1 instead of the default x^4 + x + 1
    assert main(["gen", "raw", "--n", "4", "--e", "2", "--irreducible", "0x19"]) == 0
    text = capsys.readouterr().out
    ctx = sk.GFContext(4, 0x19)
    assert sk.parse_sbox(text) == sk.SBox(4, reference.monomial_table(ctx, 2))


def test_gen_reducible_modulus_exits_3(capsys):
    assert main(["gen", "gold", "--n", "8", "--irreducible", "0x100"]) == 3
    assert "reducible" in capsys.readouterr().err


def test_gen_negative_modulus_exits_3(capsys):
    assert main(["gen", "gold", "--n", "8", "--i", "1", "--irreducible=-0x11b"]) == 3
    assert "negative" in capsys.readouterr().err


def test_gen_unknown_family_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "foo", "--n", "8"])
    assert exc.value.code == 3


def test_gen_writes_file_that_analyze_reads(tmp_path, capsys):
    out = tmp_path / "apn.txt"
    assert main(["gen", "gold", "--n", "6", "--i", "1", "-o", str(out)]) == 0
    assert main(["analyze", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["du"] == 2


# ---------------------------------------------------------------------------
# search


def test_search_deterministic_output_files(tmp_path, capsys):
    args = ["search", "--metric", "du", "--tries", "6", "--seed", "11", "--n", "6"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    doc1 = json.loads(out1.read_text())
    doc2 = json.loads(out2.read_text())
    doc1.pop("elapsed"), doc2.pop("elapsed")
    assert doc1 == doc2
    assert doc1["generator"] == "numpy-pcg64"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == lines[1]
    assert lines[0].startswith("best du = ")


def test_search_with_named_cycles(tmp_path):
    out = tmp_path / "r.json"
    assert main(
        ["search", "--metric", "dsac", "--tries", "4", "--seed", "5",
         "--cycles", "16x16", "-o", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["cycle_spec"] == [16] * 16
    best = sk.SBox(8, np.array(doc["best_sbox"]))
    assert sk.cycle_decomposition(best).lengths == (16,) * 16


def test_search_bad_cycles_exits_3(capsys):
    rc = main(["search", "--metric", "du", "--tries", "2", "--seed", "1", "--cycles", "4,4"])
    assert rc == 3
    assert "sum to" in capsys.readouterr().err


@pytest.mark.parametrize("cycles", ["1_28,+128", "\uff11\uff12\uff18,128"])
def test_search_non_ascii_decimal_cycles_exit_3(cycles, capsys):
    # int() would read both lists as (128, 128)
    assert main(["search", "--metric", "du", "--tries", "2", "--seed", "1", "--cycles", cycles]) == 3
    assert "bad cycle list" in capsys.readouterr().err


def test_search_unknown_metric_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--metric", "entropy", "--tries", "2", "--seed", "1"])
    assert exc.value.code == 3


def test_search_value_log(tmp_path, capsys):
    log = tmp_path / "values.csv"
    assert main(
        ["search", "--metric", "nl", "--tries", "5", "--seed", "8", "--n", "6",
         "--log-values", str(log)]
    ) == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "index,raw_value"
    assert len(lines) == 6
    best = max(int(l.split(",")[1]) for l in lines[1:])
    assert f"best nl = {best}" in capsys.readouterr().out


def test_search_value_log_in_several_blocks(tmp_path):
    # a log longer than one block of rows is the same text as the whole log joined at once
    log = tmp_path / "values.csv"
    tries = 2 * cli._LOG_ROWS + 3
    assert main(["search", "--metric", "dsac", "--tries", str(tries), "--seed", "8", "--n", "3",
                 "--log-values", str(log)]) == 0
    values = []
    run_search(SearchConfig(n=3, metric="dsac", tries=tries, seed=8), value_log=values)
    assert log.read_text() == "index,raw_value\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values))


def test_search_dash_writes_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--metric", "nl", "--tries", "5", "--seed", "8", "--n", "6",
                 "-o", "-", "--log-values", "-"]) == 0
    summary, rest = capsys.readouterr().out.split("\n", 1)
    doc_text, log = rest.split("index,raw_value\n")
    doc = json.loads(doc_text)
    assert summary == f"best nl = {doc['best_value']}  mean = {doc['mean_value']}"
    assert doc["tries"] == 5
    assert [line.split(",")[0] for line in log.splitlines()] == ["0", "1", "2", "3", "4"]
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# avalanche


def test_avalanche_zero_rounds_csv(aes_file, capsys):
    assert main(
        ["avalanche", aes_file, "--rounds", "0", "--trials", "20", "--seed", "3",
         "--format", "csv"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,rounds,distance"
    assert out[1] == "aes,0,31"


def test_avalanche_json_fields(aes_file, capsys):
    assert main(["avalanche", aes_file, "--rounds", "4", "--trials", "50", "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "aes"
    assert doc["trials"] == 50
    assert doc["rounds"] == 4
    assert len(doc["per_input_bit_means"]) == 64


def test_avalanche_requires_seed_without_pairs(aes_file, capsys):
    assert main(["avalanche", aes_file, "--rounds", "4"]) == 3
    assert "--seed" in capsys.readouterr().err
    for seed in ("-1", str(2 ** 64)):
        assert main(["avalanche", aes_file, "--rounds", "4", "--trials", "2", f"--seed={seed}"]) == 3
        assert "seed must be a 64-bit unsigned integer" in capsys.readouterr().err


def test_avalanche_non_bijective_exits_4(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text(" ".join(["0"] * 256))
    assert main(["avalanche", str(path), "--rounds", "1", "--seed", "1"]) == 4
    assert "bijective" in capsys.readouterr().err


def test_avalanche_narrow_sbox_exits_3(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text("0 1 2 3\n")
    assert main(["avalanche", str(path), "--rounds", "1", "--seed", "1"]) == 3


def test_avalanche_pair_reuse_is_identical(aes_file, tmp_path, capsys):
    pairs = str(tmp_path / "pairs.bin")
    base = ["avalanche", aes_file, "--rounds", "4", "--trials", "30"]
    assert main(base + ["--seed", "21", "--save-pairs", pairs]) == 0
    first = capsys.readouterr().out
    assert main(base + ["--pairs", pairs]) == 0
    assert capsys.readouterr().out == first


def test_avalanche_trials_must_match_stored_pairs(aes_file, tmp_path, capsys):
    pairs = tmp_path / "pairs.bin"
    spn.save_pairs(pairs, spn.generate_pairs(30, 5))
    assert main(["avalanche", aes_file, "--rounds", "1", "--pairs", str(pairs), "--trials", "5"]) == 3
    assert "does not match 30 stored pairs" in capsys.readouterr().err
    assert main(["avalanche", aes_file, "--rounds", "1", "--pairs", str(pairs)]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 30


def test_avalanche_seed_with_pairs_exits_3(aes_file, tmp_path, capsys):
    pairs = tmp_path / "pairs.bin"
    spn.save_pairs(pairs, spn.generate_pairs(10, 1))
    assert main(["avalanche", aes_file, "--rounds", "1", "--pairs", str(pairs), "--seed", "1"]) == 3
    assert "--seed" in capsys.readouterr().err


def test_avalanche_saves_the_pairs_it_ran(aes, aes_file, tmp_path, capsys):
    pairs = tmp_path / "pairs.bin"
    assert main(["avalanche", aes_file, "--rounds", "4", "--trials", "30", "--seed", "21",
                 "--save-pairs", str(pairs)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (spn.load_pairs(pairs) == spn.generate_pairs(30, 21)).all()
    cfg = spn.SpnConfig(sbox=aes, rounds=4)
    assert doc == {"name": "aes", **spn.avalanche_experiment(cfg, spn.generate_pairs(30, 21)).to_dict()}


def test_avalanche_save_pairs_with_pairs_exits_3(aes_file, tmp_path, capsys):
    pairs = tmp_path / "pairs.bin"
    spn.save_pairs(pairs, spn.generate_pairs(10, 1))
    with pytest.raises(SystemExit) as exc:
        main(["avalanche", aes_file, "--rounds", "1", "--pairs", str(pairs),
              "--save-pairs", str(tmp_path / "other.bin")])
    assert exc.value.code == 3
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "other.bin").exists()


def test_avalanche_bad_pairs_file_exits_3(aes_file, tmp_path, capsys):
    path = tmp_path / "pairs.bin"
    path.write_bytes(b"\x00" * 20)
    assert main(["avalanche", aes_file, "--rounds", "1", "--pairs", str(path)]) == 3


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_outputs(aes_file, tmp_path, capsys):
    ppm = str(tmp_path / "aes_lat.ppm")
    csv = str(tmp_path / "aes_lat.csv")
    assert main(["heatmap", aes_file, "--table", "lat", "-o", ppm, "--csv", csv]) == 0
    summary = capsys.readouterr().out
    assert "256x256" in summary and "extreme 16" in summary
    rgb = reference.read_ppm(ppm)
    assert rgb.shape == (256, 256, 3)
    vals = np.loadtxt(csv, delimiter=",", dtype=np.int64)
    assert (vals == sk.compute_lat(sk.SBox(8, np.array(sk.AES_SBOX))).sums // 2).all()


def test_heatmap_default_paths(aes_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["heatmap", aes_file, "--table", "ddt"]) == 0
    assert (tmp_path / "aes_ddt.ppm").exists()
    assert (tmp_path / "aes_ddt.csv").exists()
    assert "markers 255" in capsys.readouterr().out


def test_heatmap_round_trip_at_n12(tmp_path, capsys, csv_rows_match_savetxt):
    # the field inverse x^(2^12 - 2); the "inverse" family is the odd-n exponent 2^(2t) - 1
    sbox, ppm, csv = tmp_path / "inverse12.txt", tmp_path / "lat.ppm", tmp_path / "lat.csv"
    assert main(["gen", "raw", "--n", "12", "--e", str((1 << 12) - 2), "-o", str(sbox)]) == 0
    assert main(["heatmap", str(sbox), "--table", "lat", "-o", str(ppm), "--csv", str(csv)]) == 0
    assert "4096x4096" in capsys.readouterr().out
    assert ppm.stat().st_size == len(b"P6\n4096 4096\n255\n") + 3 * 2**24
    values = sk.compute_lat(sk.build_monomial_sbox(sk.default_context(12), "raw", e=(1 << 12) - 2)).sums // 2
    csv_rows_match_savetxt(csv, values, tmp_path)


def test_heatmap_scale_too_small_exits_3(aes_file, tmp_path, capsys):
    rc = main(["heatmap", aes_file, "--scale", "10", "-o", str(tmp_path / "x.ppm")])
    assert rc == 3
    assert "below the matrix extreme" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-7"])
def test_heatmap_scale_below_one_exits_3(tmp_path, capsys, scale):
    # a constant map's DDT interior is all zero, so no extreme check can catch the scale
    path = tmp_path / "const.txt"
    path.write_text(sk.format_sbox(sk.SBox(4, np.zeros(16, dtype=np.int64))))
    assert main(["heatmap", str(path), "--table", "ddt", f"--scale={scale}", "-o", str(tmp_path / "x.ppm")]) == 3
    assert f"scale must be >= 1, got {scale}" in capsys.readouterr().err
    assert not (tmp_path / "x.ppm").exists()


def test_heatmap_checks_the_scale_before_it_builds_the_table(aes_file, tmp_path, monkeypatch, capsys):
    def build(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "heatmap_values", build)
    assert main(["heatmap", aes_file, "--scale", "0", "-o", str(tmp_path / "x.ppm")]) == 3
    assert "scale must be >= 1, got 0" in capsys.readouterr().err


def test_heatmap_bad_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    assert main(["heatmap", str(path)]) == 2


@pytest.mark.parametrize("command", [
    ["heatmap", "-o", "-"],
    ["heatmap", "--csv", "-", "-o", "x.ppm"],
    ["avalanche", "--rounds", "1", "--trials", "5", "--seed", "1", "--save-pairs", "-"],
])
def test_binary_outputs_refuse_stdout(command, aes_file, tmp_path, monkeypatch, capsys):
    # "-" cannot carry a pixmap, a second CSV or a pair file; taken as a path it would create "-"
    monkeypatch.chdir(tmp_path)
    assert main([command[0], aes_file, *command[1:]]) == 3
    assert "not '-'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aes.txt"]


@pytest.mark.parametrize("command", [
    ["heatmap", "-o", "out.csv"],  # the default --csv is -o with a .csv suffix: out.csv again
    ["heatmap", "-o", "a.ppm", "--csv", "a.ppm"],
    ["heatmap", "-o", "a.ppm", "--csv", "./a.ppm"],
    ["avalanche", "--rounds", "1", "--trials", "5", "--seed", "1", "--save-pairs", "F", "-o", "F"],
    ["avalanche", "--rounds", "1", "--trials", "5", "--seed", "1", "--save-pairs", "./F", "-o", "F"],
    ["search", "--metric", "nl", "--tries", "5", "--seed", "1", "--n", "4", "-o", "F", "--log-values", "F"],
    ["search", "--metric", "nl", "--tries", "5", "--seed", "1", "--n", "4", "-o", "F", "--log-values", "./F"],
    # an output that names an input would replace it
    ["analyze", "-o", "aes.txt"],
    ["analyze", "-o", "./aes.txt"],
    ["heatmap", "-o", "aes.txt"],
    ["heatmap", "--csv", "aes.txt"],
    ["avalanche", "--rounds", "1", "--trials", "5", "--seed", "1", "-o", "aes.txt"],
    ["avalanche", "--rounds", "1", "--pairs", "P", "-o", "P"],
])
def test_outputs_of_one_command_must_be_different_files(command, aes_file, tmp_path, monkeypatch, capsys):
    # the second write would silently replace the first, so nothing is written
    monkeypatch.chdir(tmp_path)
    spn.save_pairs(tmp_path / "P", spn.generate_pairs(5, 1))
    inputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(command if command[0] == "search" else [command[0], aes_file, *command[1:]]) == 3
    assert "name the same file" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == inputs


# ---------------------------------------------------------------------------
# argument plumbing


@pytest.mark.parametrize("command,extra", [
    ("avalanche", ["--rounds", "2", "--trials", "10", "--seed", "1"]),
    ("heatmap", ["-o", "x.ppm"]),
])
def test_hex_input_matches_decimal(command, extra, aes, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "aes.txt").write_text(sk.format_sbox(aes))
    (tmp_path / "aes.hex").write_text(" ".join(f"{v:02x}" for v in aes.table))
    outputs = []
    for path, base in (("aes.txt", []), ("aes.hex", ["--base", "16"])):
        assert main([command, path, *base, *extra]) == 0
        outputs.append((capsys.readouterr().out, [p.read_bytes() for p in sorted(tmp_path.glob("x.*"))]))
    assert outputs[0] == outputs[1]


def _action(command, dest):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def _choices(command, dest):
    return tuple(_action(command, dest).choices)


def test_choices_come_from_the_defining_modules():
    assert _choices("search", "metric") == tuple(METRICS)
    assert _choices("gen", "family") == FAMILIES
    assert _choices("heatmap", "table") == tuple(KINDS)
    names = re.search(r"built-in name \((.*?)\)", _action("search", "cycles").help).group(1)
    assert names.split(", ") == list(builtin_cycle_specs())
    for name, metric in METRICS.items():
        assert SearchConfig(n=8, metric=name, tries=1, seed=0).maximize == metric.maximize


def test_unknown_flag_exits_3(aes_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", aes_file, "--frobnicate"])
    assert exc.value.code == 3


def test_missing_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


# every integer option, in a command that exits 0 with V set to the good value
_INTEGER_OPTIONS = {
    "--base": ("analyze SBOX --base V", "10"),
    "gen --n": ("gen gold --n V --i 1", "8"),
    "--i": ("gen gold --n 8 --i V", "1"),
    "--e": ("gen raw --n 8 --e V", "254"),
    "--irreducible": ("gen raw --n 8 --e 254 --irreducible V", "0x11b"),
    "--tries": ("search --metric du --tries V --seed 1 --n 4", "20"),
    "search --seed": ("search --metric du --tries 20 --seed V --n 4", "1"),
    "--workers": ("search --metric du --tries 20 --seed 1 --n 4 --workers V", "1"),
    "search --n": ("search --metric du --tries 20 --seed 1 --n V", "4"),
    "--rounds": ("avalanche SBOX --rounds V --trials 10 --seed 1", "2"),
    "--trials": ("avalanche SBOX --rounds 2 --trials V --seed 1", "10"),
    "avalanche --seed": ("avalanche SBOX --rounds 2 --trials 10 --seed V", "1"),
    "--scale": ("heatmap SBOX --scale V -o OUT", "32"),
}
_BAD_INTEGERS = ("1_0", "+3", "\uff11\uff10", "\uff120", " 2")  # underscore, sign, fullwidth, space
_BAD_MODULI = ("0x1_1b", "\uff12\uff18\uff13", "+0x11b", " 0x11b")


@pytest.mark.parametrize("option, value", [
    (option, value) for option in _INTEGER_OPTIONS
    for value in (_INTEGER_OPTIONS[option][1], *(_BAD_MODULI if option == "--irreducible" else _BAD_INTEGERS))])
def test_integer_options_read_ascii_digits_only(option, value, aes_file, tmp_path, capsys):
    # S-box files and --cycles read only ASCII digits; so does every integer option
    template, good = _INTEGER_OPTIONS[option]
    words = {"SBOX": aes_file, "OUT": str(tmp_path / "x.ppm"), "V": value}
    argv = [words.get(word, word) for word in template.split()]
    if value == good:
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert f"argument {option.split()[-1]}: {value!r} is not" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--tries", "search --seed", "--irreducible"])
def test_integer_options_refuse_more_digits_than_int_reads(option, aes_file, capsys):
    # ASCII digits past the interpreter's 4,300-digit limit: a configuration error that names the limit
    template, _ = _INTEGER_OPTIONS[option]
    value = "1" * 5000
    argv = [{"SBOX": aes_file, "V": value}.get(word, word) for word in template.split()]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert f"argument {option.split()[-1]}: the integer has more than 4,300 digits" in err
    assert value not in err


def test_cli_import_leaves_out_the_process_pool():
    # only a search that runs more than one process imports concurrent.futures.process
    code = "import sys, sboxkit.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(sk.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
