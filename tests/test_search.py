import concurrent.futures
import json
import math
import os
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sboxkit as sk
from sboxkit import cli, search, spn
from sboxkit.search import GENERATOR_NAME, SearchConfig, run_search

import reference


def small_config(**overrides):
    base = dict(n=6, metric="du", tries=20, seed=99)
    base.update(overrides)
    return SearchConfig(**base)


# ---------------------------------------------------------------------------
# candidate generators


def test_random_permutation_is_bijective():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sk.is_bijective(sk.random_permutation(rng, 256))


def test_random_permutation_rejects_bad_size():
    rng = np.random.default_rng(0)
    for size in (0, 1, 2, 10, 8192):
        with pytest.raises(ValueError, match="power of two"):
            sk.random_permutation(rng, size)


def test_builtin_cycle_specs():
    specs = sk.builtin_cycle_specs()
    assert set(specs) == {"64x4", "16x16", "4x64", "256x1", "rijndael"}
    assert all(spec.total == 256 for spec in specs.values())
    assert specs["rijndael"].lengths == (59, 81, 87, 27, 2)


@pytest.mark.parametrize("name", ["64x4", "16x16", "4x64", "256x1", "rijndael"])
def test_cycle_constrained_generation(name):
    spec = sk.builtin_cycle_specs()[name]
    rng = np.random.default_rng(42)
    for _ in range(20):
        s = sk.random_permutation_with_cycles(rng, spec)
        assert sk.cycle_decomposition(s).lengths == tuple(sorted(spec.lengths))


@st.composite
def cycle_specs(draw):
    """A cycle partition of 2^n, n in [2, 12]: some fixed points, the rest cut
    at random points, in shuffled order."""
    n = draw(st.integers(2, 12))
    size = 1 << n
    fixed = draw(st.sampled_from([0, 1, 2, draw(st.integers(0, size))]))
    rest = size - fixed
    cuts = sorted(draw(st.sets(st.integers(1, rest - 1), max_size=40))) if rest > 1 else []
    bounds = [0, *cuts, rest] if rest else [0]
    lengths = [1] * fixed + [b - a for a, b in zip(bounds, bounds[1:])]
    np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).shuffle(lengths)
    return sk.CycleSpec(tuple(lengths))


@settings(max_examples=80, deadline=None)
@given(cycle_specs(), st.integers(0, 2 ** 64 - 1))
def test_ring_table_matches_per_cycle_oracle(spec, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    table = search._ring_table(rng, spec)
    assert table.dtype == np.int64
    assert table.tolist() == reference.ring_table_loop(oracle_rng, spec).tolist()
    assert rng.integers(2 ** 63) == oracle_rng.integers(2 ** 63)  # the same draws were consumed
    s = sk.SBox(spec.total.bit_length() - 1, table)
    assert sk.cycle_decomposition(s).lengths == tuple(sorted(spec.lengths))


def test_ring_table_identity_and_single_cycle_edges():
    for n in range(2, 13):
        size = 1 << n
        for spec in (sk.CycleSpec((1,) * size), sk.CycleSpec((size,)), sk.CycleSpec((1, size - 1))):
            rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
            assert search._ring_table(rng, spec).tolist() == reference.ring_table_loop(oracle_rng, spec).tolist()


def test_cycle_generation_rejects_bad_total():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="power of two"):
        sk.random_permutation_with_cycles(rng, sk.CycleSpec((3, 3)))


def test_cycle_spec_parse():
    assert sk.CycleSpec.parse("4, 4,8").lengths == (4, 4, 8)
    with pytest.raises(ValueError, match="bad cycle list"):
        sk.CycleSpec.parse("4,x")
    with pytest.raises(ValueError, match="positive"):
        sk.CycleSpec(())
    for lengths in ((3.9, 1.2), (4.0, 4), (True, 1), (np.bool_(True), 1), ("4",)):
        with pytest.raises(ValueError, match="cycle lengths must be positive integers"):
            sk.CycleSpec(lengths)
    assert [type(v) for v in sk.CycleSpec((np.int64(4), 4)).lengths] == [int, int]


def test_generator_uniformity_smoke():
    """Occupancy check over all 8! = 40320 permutations of 8 elements.

    The cap is mean + 5 sigma per cell; with this many cells a fair
    generator still trips it now and then, so the seed is pinned to a
    stream that stays under the bound.
    """
    draws = 100_000
    cells = math.factorial(8)
    mean = draws / cells
    cap = math.floor(mean + 5 * math.sqrt(draws * (1 / cells) * (1 - 1 / cells)))
    rng = np.random.default_rng(18)
    counts = Counter(rng.permutation(8).tobytes() for _ in range(draws))
    assert len(counts) > 30000  # draws actually spread over the space
    assert max(counts.values()) <= cap


def test_random_permutation_consumes_the_same_stream():
    # the SBox wrapper adds no draws: both sides see identical permutations
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    for _ in range(5):
        assert list(sk.random_permutation(a, 64).table) == list(b.permutation(64))


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        (dict(metric="entropy"), "unknown metric"),
        (dict(tries=0), "tries"),
        (dict(workers=0), "workers"),
        (dict(seed=-1), "seed"),
        (dict(seed=1 << 64), "seed"),
        (dict(n=1), "n=1"),
        (dict(cycle_spec=sk.CycleSpec((4,) * 64)), "sum to 256, need 64"),
        (dict(tries=True), "tries"),
        (dict(seed=True), "seed"),
        (dict(seed=None), "seed"),
        (dict(n=4.0), "n=4.0"),
        (dict(tries=2.5), "tries"),
        (dict(workers=1.5), "workers"),
    ],
)
def test_search_config_validation(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        small_config(**overrides)


def test_numpy_integer_arguments_are_stored_as_int(aes):
    # numpy integers are accepted and stored as int, so every report serialises
    # exactly as the one built from plain ints
    i64 = np.int64
    cfg = small_config(n=i64(6), tries=i64(20), seed=np.uint64(99), workers=np.int32(1))
    assert all(type(getattr(cfg, f)) is int for f in ("n", "tries", "seed", "workers"))

    def dumps(result):
        return json.dumps({k: v for k, v in result.to_dict().items() if k != "elapsed"})

    assert dumps(run_search(cfg)) == dumps(run_search(small_config()))
    rounds = sk.SpnConfig(aes, i64(2)).rounds
    assert type(rounds) is int
    pairs = spn.generate_pairs(i64(5), np.uint64(3))
    assert json.dumps(sk.avalanche_experiment(sk.SpnConfig(aes, i64(2)), pairs).to_dict()) == json.dumps(
        sk.avalanche_experiment(sk.SpnConfig(aes, 2), spn.generate_pairs(5, 3)).to_dict())
    box = sk.SBox(i64(8), aes.table)
    assert type(box.n) is int
    assert json.dumps(sk.full_report(box).to_dict()) == json.dumps(sk.full_report(aes).to_dict())
    rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
    assert sk.random_permutation(rng, i64(256)) == sk.random_permutation(oracle, 256)


def test_maximize_flag():
    assert small_config(metric="nl").maximize
    assert not small_config(metric="du").maximize
    assert not small_config(metric="dsac").maximize


# ---------------------------------------------------------------------------
# the search loop


def test_search_is_deterministic():
    cfg = small_config(tries=30)
    r1 = run_search(cfg)
    r2 = run_search(cfg)
    assert r1.best_sbox == r2.best_sbox
    assert r1.best_value == r2.best_value
    assert r1.mean_value == r2.mean_value
    assert r1.generator_name == GENERATOR_NAME


def test_search_seed_changes_outcome():
    r1 = run_search(small_config(seed=1, tries=10))
    r2 = run_search(small_config(seed=2, tries=10))
    assert r1.best_sbox != r2.best_sbox


def test_search_best_and_mean_match_value_log():
    log = []
    cfg = small_config(metric="dsac", tries=50)
    result = run_search(cfg, value_log=log)
    assert len(log) == 50
    assert result.best_value == Fraction(min(log), 64)
    assert result.mean_value == Fraction(sum(log), 50 * 64)


def test_search_maximizing_metric_takes_the_max():
    log = []
    result = run_search(small_config(metric="nl", tries=40), value_log=log)
    assert result.best_value == max(log)
    assert result.mean_value == Fraction(sum(log), 40)


def test_search_result_sbox_is_bijective():
    result = run_search(small_config(tries=5))
    assert sk.is_bijective(result.best_sbox)
    assert result.best_sbox.n == 6


def test_search_honors_cycle_spec():
    cfg = SearchConfig(n=8, metric="du", tries=5, seed=3, cycle_spec=sk.builtin_cycle_specs()["16x16"])
    result = run_search(cfg)
    assert sk.cycle_decomposition(result.best_sbox).lengths == (16,) * 16


def force_draws(monkeypatch, *sboxes):
    """The run's first draws (stream 0 at workers=1) return these tables
    without consuming generator draws; later ones come from the generator."""
    forced = [np.array(s.table) for s in sboxes]
    draw = search._draw
    monkeypatch.setattr(search, "_draw", lambda *args: forced.pop(0) if forced else draw(*args))


def test_search_tie_break_keeps_first_candidate(aes, monkeypatch):
    relabeled = sk.SBox(8, np.array([aes[x ^ 0x5A] ^ 0xC3 for x in range(256)]))
    cfg = SearchConfig(n=8, metric="du", tries=2, seed=0)
    with monkeypatch.context() as m:
        force_draws(m, aes, relabeled)
        fwd = run_search(cfg)
    with monkeypatch.context() as m:
        force_draws(m, relabeled, aes)
        rev = run_search(cfg)
    assert fwd.best_value == rev.best_value == 4  # both forced tables tie
    assert fwd.best_sbox == aes
    assert rev.best_sbox == relabeled


def test_search_injected_optimum_wins(aes, monkeypatch):
    cfg = SearchConfig(n=8, metric="nl", tries=4, seed=12)
    force_draws(monkeypatch, aes)
    result = run_search(cfg)
    assert result.best_value == 112  # far above any random 8-bit permutation
    assert result.best_sbox == aes


def test_search_multiworker_deterministic_and_exact():
    cfg = small_config(tries=25, workers=2)
    log = []
    r1 = run_search(cfg, value_log=log)
    r2 = run_search(cfg)
    assert len(log) == 25
    assert r1.best_sbox == r2.best_sbox
    assert r1.mean_value == r2.mean_value == Fraction(sum(log), 25)
    assert min(log) == r1.best_value


def test_search_worker_split_changes_streams():
    one = run_search(small_config(tries=24, workers=1))
    two = run_search(small_config(tries=24, workers=2))
    # spawned child streams differ from the single-stream run by design
    assert one.mean_value != two.mean_value or one.best_sbox != two.best_sbox


def test_search_streams_beyond_processes_keep_the_result(monkeypatch):
    cfg = small_config(tries=30, workers=3)
    pooled = run_search(cfg).to_dict()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # all three streams inline
    inline = run_search(cfg).to_dict()
    del pooled["elapsed"], inline["elapsed"]
    assert inline == pooled


def test_search_spawns_no_more_streams_than_tries(traced_peak_mb):
    # streams at index >= tries would get no candidates, so none are spawned
    cfg = small_config(n=4, tries=3, workers=100_000)
    few = run_search(small_config(n=4, tries=3, workers=3))
    peak = traced_peak_mb(lambda: run_search(cfg))
    many = run_search(cfg)
    assert (many.best_sbox, many.best_value, many.mean_value) == (few.best_sbox, few.best_value, few.mean_value)
    assert many.to_dict()["workers"] == 100_000
    assert peak < 5


class InlinePool:
    """ProcessPoolExecutor stand-in that runs each job at submit and records the pools it makes."""

    sizes = []  # max_workers of every pool made
    submitted = []  # args of every job submitted

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(InlinePool, "submitted", [])
    return InlinePool


def test_pool_size_never_exceeds_cpus(monkeypatch, inline_pool):
    def processes(streams, cpus):
        """Processes run_search uses for `streams` streams on `cpus` CPUs (1: no pool, all inline)."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        inline_pool.sizes.clear()
        inline_pool.submitted.clear()
        run_search(small_config(n=3, tries=streams, workers=streams))
        assert len(inline_pool.sizes) <= 1
        if not inline_pool.sizes:
            return 1
        assert len(inline_pool.submitted) == inline_pool.sizes[0]  # one job per process
        return inline_pool.sizes[0]

    assert processes(5000, 2) == 2
    assert processes(3, 8) == 3
    assert processes(1, 64) == 1
    assert processes(4, None) == 1  # os.cpu_count() may not know


def test_search_submits_one_job_per_process(monkeypatch, inline_pool):
    cfg = small_config(n=3, tries=20_000, workers=20_000)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pooled = run_search(cfg).to_dict()
    assert len(inline_pool.submitted) == 2  # never more processes than CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: no pool, every stream inline
    inline = run_search(cfg).to_dict()
    assert len(inline_pool.submitted) == 2
    del pooled["elapsed"], inline["elapsed"]
    assert inline == pooled
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    run_search(small_config(n=3, tries=30, workers=3))
    assert len(inline_pool.submitted) == 2 + 3  # never more processes than streams


GOLDEN = Path(__file__).parent / "data"


def _assert_recorded_runs(name):
    """Search JSON minus `elapsed` equals each run recorded in tests/data/`name`, byte for byte."""
    for doc in json.loads((GOLDEN / name).read_text()):
        spec = doc["cycle_spec"]
        cfg = SearchConfig(n=doc["n"], metric=doc["metric"], tries=doc["tries"], seed=doc["seed"],
                           workers=doc["workers"], cycle_spec=sk.CycleSpec(spec) if spec else None)
        got = run_search(cfg).to_dict()
        del got["elapsed"]
        assert json.dumps(got) == json.dumps(doc), (cfg.n, cfg.metric, cfg.seed, cfg.workers, spec and spec[:3])


def test_du_search_json_matches_recorded_runs():
    """`du` runs recorded from the full-pair DDT kernel, at n = 6, 8, 10 and
    several (seed, workers)."""
    _assert_recorded_runs("search_du_golden.json")


def test_walsh_search_json_matches_recorded_runs():
    """`max_bias`/`nl` runs recorded from the doubling-sign Walsh kernel: n = 8
    at seeds 1, 2 x workers 1, 2 and with the rijndael cycles, n = 3, 6, and
    n = 9, 10, 12, which span several Walsh blocks."""
    _assert_recorded_runs("search_walsh_golden.json")


def test_cycle_search_json_matches_recorded_runs():
    """Cycle-constrained `dsac`/`dbic` runs recorded from the per-cycle ring
    builder: the five built-in specs at workers 1, 2, 3, and specs with fixed
    points at n = 3, 6, 10, 12."""
    _assert_recorded_runs("search_cycles_golden.json")


# ---------------------------------------------------------------------------
# persistence


def test_search_result_round_trip(tmp_path, monkeypatch):
    results = []  # the result `sboxkit search -o` writes, elapsed time included

    def recorded_run_search(config, **kw):
        results.append(run_search(config, **kw))
        return results[-1]

    monkeypatch.setattr(cli, "run_search", recorded_run_search)
    path = tmp_path / "result.json"
    assert cli.main(["search", "--n", "6", "--metric", "dbic", "--tries", "8", "--seed", "77",
                     "--cycles", "64", "--workers", "1", "-o", str(path)]) == 0
    (result,) = results
    assert result.config == SearchConfig(
        n=6, metric="dbic", tries=8, seed=77, cycle_spec=sk.CycleSpec((64,)), workers=1
    )
    doc = json.loads(path.read_text())
    assert doc == result.to_dict()
    assert doc["generator"] == "numpy-pcg64"
    assert doc["cycle_spec"] == [64]
    assert doc["best_sbox"] == [int(v) for v in result.best_sbox.table]
    assert doc["best_value"] == str(doc["best_value"])  # serialized as text
