import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import spn
from sboxkit.cli import build_parser, main
from sboxkit.core import FAMILIES
from sboxkit.heatmap import KINDS, read_matrix_csv, read_ppm
from sboxkit.metrics import METRICS, full_report
from sboxkit.search import SearchConfig, builtin_cycle_specs


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


def test_gen_missing_parameter_exits_3(capsys):
    assert main(["gen", "gold", "--n", "8"]) == 3
    assert "requires parameter i" in capsys.readouterr().err


def test_gen_irreducible_override(tmp_path, capsys):
    # x^4 + x^3 + 1 instead of the default x^4 + x + 1
    assert main(["gen", "raw", "--n", "4", "--e", "2", "--irreducible", "0x19"]) == 0
    text = capsys.readouterr().out
    ctx = sk.GFContext(4, 0x19)
    assert sk.parse_sbox(text) == sk.SBox(4, [sk.gf_pow(ctx, x, 2) for x in range(16)])


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
    rgb = read_ppm(ppm)
    assert rgb.shape == (256, 256, 3)
    vals = read_matrix_csv(csv)
    assert (vals == sk.compute_lat(sk.SBox(8, np.array(sk.AES_SBOX))).sums // 2).all()


def test_heatmap_default_paths(aes_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["heatmap", aes_file, "--table", "ddt"]) == 0
    assert (tmp_path / "aes_ddt.ppm").exists()
    assert (tmp_path / "aes_ddt.csv").exists()
    assert "markers 255" in capsys.readouterr().out


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


def test_cli_import_leaves_out_the_process_pool():
    # only a search that runs more than one process imports concurrent.futures.process
    code = "import sys, sboxkit.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(sk.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
