import functools
import math
import os
import re
import threading

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import core, spn
from sboxkit.core import MAX_N, MIN_N, _monomial_exponent
from sboxkit.data import IRREDUCIBLE
from sboxkit.search import SearchConfig, run_search

import reference


# ---------------------------------------------------------------------------
# SBox container


def test_sbox_basic_accessors(aes):
    assert aes.n == 8
    assert aes.size == 256
    assert len(aes) == 256
    assert aes[0] == 0x63
    assert aes[0xFF] == 0x16


def test_sbox_table_is_read_only(aes):
    with pytest.raises(ValueError):
        aes.table[0] = 0


def test_sbox_copies_its_input():
    src = np.arange(16)
    s = sk.SBox(4, src)
    src[0] = 7
    assert s[0] == 0


@pytest.mark.parametrize("n", [MIN_N - 1, MAX_N + 1, 0])
def test_sbox_rejects_bad_width(n):
    with pytest.raises(ValueError):
        sk.SBox(n, np.arange(max(1 << n, 1)))


def test_sbox_rejects_wrong_length():
    with pytest.raises(ValueError):
        sk.SBox(4, np.arange(15))


def test_sbox_rejects_out_of_range_entry():
    tab = np.arange(16)
    tab[5] = 16
    with pytest.raises(ValueError, match="index 5"):
        sk.SBox(4, tab)


@pytest.mark.parametrize("table", [[0.5, 1.7, 2, 3], [True, False, True, False]])
def test_sbox_rejects_non_integer_table(table):
    with pytest.raises(ValueError, match="integers"):
        sk.SBox(2, table)


def test_sbox_accepts_integer_inputs_of_any_kind():
    assert sk.SBox(8, sk.AES_SBOX) == sk.SBox(8, np.array(sk.AES_SBOX, dtype=np.uint8))
    assert sk.parse_sbox("3 2 1 0") == sk.SBox(2, [3, 2, 1, 0])
    ctx = sk.default_context(8)
    gold = sk.build_monomial_sbox(ctx, "gold", i=1)  # x^3
    assert gold == sk.SBox(8, reference.monomial_table(ctx, 3))


def test_sbox_equality_and_hash(aes):
    again = sk.SBox(8, np.array(sk.AES_SBOX))
    assert aes == again
    assert hash(aes) == hash(again)
    assert aes != sk.SBox(8, np.arange(256))
    assert aes != "not an sbox"


def test_sbox_repr_shows_the_first_six_entries(aes):
    assert repr(aes) == "SBox(n=8, table=[99, 124, 119, 123, 242, 107, ...])"


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_decimal_whitespace_and_commas():
    s = sk.parse_sbox("3, 1\n2 0")
    assert s.n == 2
    assert list(s.table) == [3, 1, 2, 0]


def test_parse_hex_with_and_without_prefix():
    s = sk.parse_sbox("0x0 a 0xF 3 1 2 4 5 6 7 8 9 b c d e", base=16)
    assert s[1] == 10
    assert s[2] == 15
    assert list(sk.parse_sbox("0X3 00 0x01 2", base=16).table) == [3, 0, 1, 2]
    assert list(sk.parse_sbox("03 000 1 2").table) == [3, 0, 1, 2]


def test_parse_rejects_bad_base():
    for base in (8, 12, 16.0, True):
        with pytest.raises(sk.SboxParseError, match="base must be 10 or 16"):
            sk.parse_sbox("0 1 2 3", base=base)


def test_parse_rejects_non_power_of_two_count():
    with pytest.raises(sk.SboxParseError, match="power of two"):
        sk.parse_sbox("0 1 2 3 4")


def test_parse_reports_offending_line():
    with pytest.raises(sk.SboxParseError, match="line 2"):
        sk.parse_sbox("0 1 2 3\n4 5 6 zebra")


def test_parse_rejects_out_of_range_value():
    with pytest.raises(sk.SboxParseError, match="outside"):
        sk.parse_sbox("0 1 2 9")


def test_parse_rejects_hex_token_in_decimal_mode():
    with pytest.raises(sk.SboxParseError):
        sk.parse_sbox("0x0 1 2 3", base=10)


@pytest.mark.parametrize("base,token", [
    (10, "1_0"), (10, "+3"), (10, "-0"), (10, "\u0663"), (10, "\uff13"),
    (16, "0x0x3"), (16, "+0x3"), (16, "+3"), (16, "-0"), (16, "1_0"), (16, "0x_3"), (16, "\u0663"), (16, "0x"),
])
def test_parse_refuses_tokens_outside_the_grammar(base, token):
    # int() alone reads most of these as a value in range, so the grammar is checked first
    text = "0 " * 31 + "\n" + token
    with pytest.raises(sk.SboxParseError, match=re.escape(f"line 2: token {token!r} is not a base-{base} integer")):
        sk.parse_sbox(text, base=base)


def test_format_parse_round_trip(aes):
    text = sk.format_sbox(aes)
    assert len(text.splitlines()) == 16
    assert sk.parse_sbox(text) == aes


# ---------------------------------------------------------------------------
# bijectivity and inversion


def test_is_bijective(aes, identity8):
    assert sk.is_bijective(aes)
    assert sk.is_bijective(identity8)
    assert not sk.is_bijective(sk.SBox(4, np.zeros(16, dtype=np.int64)))


def test_inverse_round_trip(aes):
    inv = sk.inverse_sbox(aes)
    assert sk.inverse_sbox(inv) == aes
    for x in range(256):
        assert inv[aes[x]] == x


def test_inverse_requires_bijection():
    with pytest.raises(sk.NotBijectiveError):
        sk.inverse_sbox(sk.SBox(4, np.zeros(16, dtype=np.int64)))


# ---------------------------------------------------------------------------
# field arithmetic


@pytest.fixture(scope="module")
def gf8():
    return sk.default_context(8)


def test_default_context_moduli():
    assert sk.default_context(8).irreducible == 0x11B
    assert sk.default_context(4).irreducible == 0x13
    with pytest.raises(ValueError, match="n=13"):
        sk.default_context(13)


def test_context_rejects_wrong_degree_modulus():
    with pytest.raises(ValueError, match="degree"):
        sk.GFContext(8, 0x1B)


def test_context_rejects_negative_modulus():
    with pytest.raises(ValueError, match="negative"):
        sk.GFContext(8, -0x11B)
    for modulus in (283.0, True):  # a float or bool modulus is refused, not read as a mask
        with pytest.raises(ValueError, match="modulus"):
            sk.GFContext(8, modulus)
    assert type(sk.GFContext(np.int64(8), np.int64(0x11B)).irreducible) is int


# 0x1bb = 0x13 * 0x19 and 0x129b = 0x43 * 0x49: their only factors have degree n/2
@pytest.mark.parametrize(
    "n,modulus", [(8, 0x100), (8, 0x101), (4, 0x15), (8, 0x1BB), (12, 0x1001), (12, 0x129B)]
)
def test_context_rejects_reducible_modulus(n, modulus):
    with pytest.raises(ValueError, match="reducible"):
        sk.GFContext(n, modulus)


def test_bundled_moduli_are_irreducible():
    for n, modulus in IRREDUCIBLE.items():
        assert sk.GFContext(n, modulus).irreducible == modulus


def test_gf_mul_known_product(gf8):
    # the classic worked multiplication in the AES field
    assert sk.gf_mul(gf8, 0x57, 0x83) == 0xC1


def test_gf_mul_identity_and_zero(gf8):
    for x in (0, 1, 0x53, 0xFF):
        assert sk.gf_mul(gf8, x, 1) == x
        assert sk.gf_mul(gf8, x, 0) == 0


def test_gf_mul_range_check(gf8):
    with pytest.raises(ValueError):
        sk.gf_mul(gf8, 256, 1)


def test_gf_mul_field_laws_exhaustive_n4():
    ctx = sk.default_context(4)
    for a in range(16):
        for b in range(16):
            assert sk.gf_mul(ctx, a, b) == sk.gf_mul(ctx, b, a)
            for c in range(16):
                left = sk.gf_mul(ctx, a, b ^ c)
                right = sk.gf_mul(ctx, a, b) ^ sk.gf_mul(ctx, a, c)
                assert left == right


def test_gf_mul_associative_sampled(gf8):
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(0, 256, size=3))
        assert sk.gf_mul(gf8, a, sk.gf_mul(gf8, b, c)) == sk.gf_mul(
            gf8, sk.gf_mul(gf8, a, b), c
        )


def test_gf_pow_small_field():
    ctx = sk.default_context(3)  # x^3 + x + 1
    assert sk.gf_pow(ctx, 2, 3) == 3
    assert sk.gf_pow(ctx, 2, 7) == 1


def test_gf_pow_conventions(gf8):
    assert sk.gf_pow(gf8, 0, 0) == 1
    assert sk.gf_pow(gf8, 0, 5) == 0
    assert sk.gf_pow(gf8, 0xAB, 0) == 1
    for e in (-1, True, 2.0):
        with pytest.raises(ValueError, match="exponent"):
            sk.gf_pow(gf8, 2, e)


def test_gf_pow_group_order():
    ctx = sk.default_context(4)
    for x in range(1, 16):
        assert sk.gf_pow(ctx, x, 15) == 1
        assert sk.gf_mul(ctx, x, sk.gf_pow(ctx, x, 14)) == 1


def _trace(ctx, x):
    """Tr(x) = x + x^2 + x^4 + ... + x^(2^(n-1)), squaring with the public gf_mul."""
    acc = 0
    for _ in range(ctx.n):
        acc ^= x
        x = sk.gf_mul(ctx, x, x)
    return acc


def test_trace_is_binary_and_balanced(gf8):
    # Tr is a GF(2)-linear map onto {0, 1}, so half the field has trace 0
    values = [_trace(gf8, x) for x in range(256)]
    assert set(values) <= {0, 1}
    assert values.count(0) == 128


def test_trace_additive():
    # squaring, and so the trace, is additive in characteristic 2
    ctx = sk.default_context(4)
    for x in range(16):
        for y in range(16):
            assert _trace(ctx, x ^ y) == _trace(ctx, x) ^ _trace(ctx, y)


@pytest.mark.parametrize("n", range(MIN_N, MAX_N + 1))
def test_field_scalars_match_the_int_oracle_and_the_field_laws(n):
    # the public scalars run the kernels on one int; reference.gf_mul/gf_pow are independent int loops
    ctx = sk.default_context(n)
    rng = np.random.default_rng(700 + n)
    mul = functools.partial(sk.gf_mul, ctx)
    for a, b, c in rng.integers(0, ctx.size, size=(64, 3)).tolist():
        ab = mul(a, b)
        assert ab == reference.gf_mul(ctx, a, b) == mul(b, a)
        assert mul(ab, c) == mul(a, mul(b, c))
        assert mul(a, b ^ c) == ab ^ mul(a, c)
    big = 2**64 + int(rng.integers(1 << 16))
    for x in [0] + rng.integers(1, ctx.size, size=4).tolist():
        e = int(rng.integers(2, 2 << n))
        assert sk.gf_pow(ctx, x, e) == reference.gf_pow(ctx, x, e)
        assert (sk.gf_pow(ctx, x, 0), sk.gf_pow(ctx, x, 1)) == (1, x)
        assert sk.gf_pow(ctx, x, ctx.size - 1) == int(x != 0)
        reduced = reference.gf_pow(ctx, x, big % (ctx.size - 1)) if x else 0  # x^(2^n - 1) = 1 for x != 0
        assert sk.gf_pow(ctx, x, big) == reference.gf_pow(ctx, x, big) == reduced


# ---------------------------------------------------------------------------
# power-map families


def test_gold_matches_direct_power():
    ctx = sk.default_context(8)
    s = sk.build_monomial_sbox(ctx, "gold", i=1)
    assert np.array_equal(s.table, reference.monomial_table(ctx, 3))
    assert s[0] == 0
    assert not sk.is_bijective(s)  # gcd(3, 255) = 3


def test_kasami_matches_direct_power():
    ctx = sk.default_context(8)
    s = sk.build_monomial_sbox(ctx, "kasami", i=3)
    assert np.array_equal(s.table, reference.monomial_table(ctx, 57))


def test_welch_and_niho_exponents_n7():
    ctx = sk.default_context(7)
    welch = sk.build_monomial_sbox(ctx, "welch")
    niho = sk.build_monomial_sbox(ctx, "niho")
    assert np.array_equal(welch.table, reference.monomial_table(ctx, 11))  # 2^3 + 3
    assert np.array_equal(niho.table, reference.monomial_table(ctx, 39))  # t = 3 odd


def test_niho_even_t_branch():
    ctx = sk.default_context(5)  # t = 2
    s = sk.build_monomial_sbox(ctx, "niho")
    assert np.array_equal(s.table, reference.monomial_table(ctx, 5))  # 2^2 + 2^1 - 1


def test_dobbertin_n10():
    ctx = sk.default_context(10)
    s = sk.build_monomial_sbox(ctx, "dobbertin")
    assert np.array_equal(s.table[::37], reference.monomial_table(ctx, 339)[::37])


def test_inverse_family_squares_to_field_inverse():
    ctx = sk.default_context(7)
    s = sk.build_monomial_sbox(ctx, "inverse")
    assert sk.is_bijective(s)
    for x in range(1, 128):
        sq = sk.gf_mul(ctx, s[x], s[x])
        assert sk.gf_mul(ctx, x, sq) == 1


def test_raw_exponent():
    ctx = sk.default_context(4)
    assert sk.build_monomial_sbox(ctx, "raw", e=1) == sk.SBox(4, np.arange(16))


def _family_parameters(n):
    """(family, kwargs) for every valid parameter of every family at width n.

    i and i + n give the same Gold/Kasami map (x^(2^n) = x), so i runs over
    [1, n); raw takes every e <= 2^(n+1) up to n = 5, and beyond it e = 1,
    2^n - 2 (inverse), 2^n - 1 (non-bijective) and 3 * 2^n + 5 (above 2^n).
    """
    out = [(f, {"i": i}) for f in ("gold", "kasami") for i in range(1, n) if math.gcd(i, n) == 1]
    out += [(f, {}) for f in ("welch", "niho", "inverse") if n % 2]
    if n % 5 == 0:
        out.append(("dobbertin", {}))
    raw = range(1, (2 << n) + 1) if n <= 5 else (1, (1 << n) - 2, (1 << n) - 1, 3 * (1 << n) + 5)
    return out + [("raw", {"e": e}) for e in raw]


@pytest.mark.parametrize("n", range(MIN_N, MAX_N + 1))
def test_every_family_matches_the_per_element_builder(n):
    ctx = sk.GFContext(n, IRREDUCIBLE[n])
    for family, kwargs in _family_parameters(n):
        e = _monomial_exponent(ctx, family, kwargs.get("i"), kwargs.get("e"))
        table = sk.build_monomial_sbox(ctx, family, **kwargs).table
        assert np.array_equal(table, reference.monomial_table(ctx, e)), (family, kwargs)


def test_power_map_oracle_shares_nothing_with_the_kernels(monkeypatch):
    # the test above checks the kernels against this oracle, so it must not run them
    ctx = sk.default_context(8)
    inverse = sk.build_monomial_sbox(ctx, "raw", e=254).table

    def kernel(*args):
        raise AssertionError("the oracle reached the array kernels")
    monkeypatch.setattr(core, "_gf_mul_array", kernel)
    monkeypatch.setattr(core, "_gf_pow_array", kernel)
    assert np.array_equal(reference.monomial_table(ctx, 254), inverse)
    assert reference.gf_mul(ctx, 0x57, 0x83) == 0xC1
    for call in (lambda: sk.build_monomial_sbox(ctx, "raw", e=254), lambda: sk.gf_pow(ctx, 3, 254),
                 lambda: sk.gf_mul(ctx, 0x57, 0x83)):
        with pytest.raises(AssertionError, match="array kernels"):
            call()


@pytest.mark.parametrize(
    "family,kwargs,fragment",
    [
        ("gold", {}, "requires parameter i"),
        ("gold", {"i": 0}, "i >= 1"),
        ("gold", {"i": 2}, "gcd"),
        ("kasami", {"i": 4}, "gcd"),
        ("welch", {}, "odd n"),
        ("niho", {}, "odd n"),
        ("inverse", {}, "odd n"),
        ("raw", {}, "requires parameter e"),
        ("raw", {"e": 0}, "e >= 1"),
        ("xyzzy", {}, "unknown family"),
        ("gold", {"i": True}, "i >= 1"),
        ("gold", {"i": 1.0}, "i >= 1"),
        ("raw", {"e": True}, "e >= 1"),
        ("raw", {"e": 3.0}, "e >= 1"),
        ("gold", {"i": 1, "e": 7}, "gold takes no parameter e"),
        ("raw", {"e": 3, "i": 5}, "raw takes no parameter i"),
        ("welch", {"i": 2}, "welch takes no parameter i"),
    ],
)
def test_family_condition_errors(family, kwargs, fragment):
    ctx = sk.default_context(8)
    with pytest.raises(sk.MonomialConditionError, match=fragment):
        sk.build_monomial_sbox(ctx, family, **kwargs)


def test_dobbertin_needs_multiple_of_five():
    with pytest.raises(sk.MonomialConditionError, match="n = 5i"):
        sk.build_monomial_sbox(sk.default_context(8), "dobbertin")


def test_aes_sbox_from_field_arithmetic(gf8, aes):
    """Rebuild AES as affine(x^254) and compare against the stored table."""

    def affine(y):
        out = 0
        for bit in range(8):
            v = (
                (y >> bit)
                ^ (y >> ((bit + 4) % 8))
                ^ (y >> ((bit + 5) % 8))
                ^ (y >> ((bit + 6) % 8))
                ^ (y >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            out |= v << bit
        return out

    rebuilt = [affine(sk.gf_pow(gf8, x, 254)) for x in range(256)]
    assert rebuilt == list(aes.table)


# ---------------------------------------------------------------------------
# cycle structure


def test_cycles_identity(identity8):
    cs = sk.cycle_decomposition(identity8)
    assert cs.lengths == (1,) * 256
    assert cs.fixed_points == 256
    assert cs.opposite_fixed_points == 0


def test_cycles_complement():
    s = sk.SBox(8, np.arange(256) ^ 0xFF)
    cs = sk.cycle_decomposition(s)
    assert cs.lengths == (2,) * 128
    assert cs.fixed_points == 0
    assert cs.opposite_fixed_points == 256


def test_cycles_single_shift():
    s = sk.SBox(4, (np.arange(16) + 1) % 16)
    cs = sk.cycle_decomposition(s)
    assert cs.lengths == (16,)
    assert cs.cycles[0] == tuple(range(16))


def test_cycles_aes(aes):
    cs = sk.cycle_decomposition(aes)
    assert cs.lengths == (2, 27, 59, 81, 87)
    assert cs.fixed_points == 0
    assert cs.opposite_fixed_points == 0


def test_cycles_ordering_and_walk():
    rng = np.random.default_rng(11)
    s = sk.SBox(6, rng.permutation(64))
    cs = sk.cycle_decomposition(s)
    assert sorted(v for c in cs.cycles for v in c) == list(range(64))
    leaders = [c[0] for c in cs.cycles]
    assert leaders == sorted(leaders)
    for cyc in cs.cycles:
        assert cyc[0] == min(cyc)
        for i, v in enumerate(cyc):
            assert s[v] == cyc[(i + 1) % len(cyc)]
    assert math.prod(len(c) for c in cs.cycles) > 0  # decomposition is total


def test_cycles_require_bijection():
    with pytest.raises(sk.NotBijectiveError):
        sk.cycle_decomposition(sk.SBox(4, np.zeros(16, dtype=np.int64)))


# ---------------------------------------------------------------------------
# the split rule


@pytest.mark.parametrize("cpus", [None, 1, 2, 8])
@pytest.mark.parametrize("total", [0, 1, 2, 5, 5000])
@pytest.mark.parametrize("most", [1, 2, 3, 10**6])
def test_even_ranges_are_as_many_as_most_cpus_and_total_allow(monkeypatch, cpus, total, most):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    ranges = core.even_ranges(total, most)
    assert len(ranges) == max(1, min(most, cpus or 1, total))
    assert [i for r in ranges for i in r] == list(range(total))  # contiguous, in order, covering range(total)
    assert max(map(len, ranges)) - min(map(len, ranges)) <= 1


def _no_cpu_count():
    raise AssertionError("a one-range call read the CPU count")


def test_one_range_runs_in_the_caller(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", _no_cpu_count)
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a one-range call started a thread"))
    caller = threading.get_ident()
    for total, most in ((5, 1), (1, 8), (0, 8)):
        (result,) = core.run_ranges(total, most, lambda lo, hi, stop: (lo, hi, stop.is_set(), threading.get_ident()))
        assert result == (0, total, False, caller)


def test_one_range_calls_read_no_cpu_count(aes, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", _no_cpu_count)
    for n in range(2, 9):  # each kernel is one block
        sk.full_report(sk.SBox(n, np.arange(1 << n)))
    cfg = spn.SpnConfig(sbox=aes, rounds=12)
    words = np.arange(2 * spn._BLOCK_WORDS + 1, dtype=np.uint64)
    cts = spn.encrypt_blocks(words[:1], words[:1], cfg)  # one block
    spn.decrypt_blocks(words, words, cfg)  # every round key of a block fills the budget
    assert spn.decrypt_blocks(cts, words[:1], cfg)[0] == 0
    run_search(SearchConfig(n=4, metric="du", tries=3, seed=1, workers=1))
