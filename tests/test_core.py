import math

import numpy as np
import pytest

import sboxkit as sk
from sboxkit.core import MAX_N, MIN_N, _monomial_exponent
from sboxkit.data import IRREDUCIBLE

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
    assert gold == sk.SBox(8, [sk.gf_pow(ctx, x, 3) for x in range(256)])


def test_sbox_equality_and_hash(aes):
    again = sk.SBox(8, np.array(sk.AES_SBOX))
    assert aes == again
    assert hash(aes) == hash(again)
    assert aes != sk.SBox(8, np.arange(256))
    assert aes != "not an sbox"


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


def test_format_parse_round_trip(aes):
    text = sk.format_sbox(aes)
    assert len(text.splitlines()) == 16
    assert sk.parse_sbox(text) == aes


def test_format_per_line_override(dillon):
    assert len(sk.format_sbox(dillon, per_line=8).splitlines()) == 8
    for per_line in (0, -1, 2.5):
        with pytest.raises(ValueError, match="per_line"):
            sk.format_sbox(dillon, per_line=per_line)


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


@pytest.mark.parametrize(
    "x,y,n,expected",
    [
        (0, 0, 8, 0),
        (0xFF, 0, 8, 8),
        (0b1010, 0b0110, 4, 2),
        (1, 2, 2, 2),
        (4095, 0, 12, 12),
    ],
)
def test_hamming_distance(x, y, n, expected):
    assert sk.hamming_distance(x, y, n) == expected
    assert sk.hamming_distance(y, x, n) == expected


def test_hamming_distance_range_check():
    for x, y, n in ((16, 0, 4), (True, 0, 4), (1.0, 0, 4), (0, 0, 4.0), (0, 0, True)):
        with pytest.raises(ValueError):
            sk.hamming_distance(x, y, n)


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


def test_trace_is_binary_and_balanced(gf8):
    values = [sk.trace(gf8, x) for x in range(256)]
    assert set(values) <= {0, 1}
    assert values.count(0) == 128


def test_trace_additive():
    ctx = sk.default_context(4)
    for x in range(16):
        for y in range(16):
            assert sk.trace(ctx, x ^ y) == sk.trace(ctx, x) ^ sk.trace(ctx, y)


# ---------------------------------------------------------------------------
# power-map families


def test_gold_matches_direct_power():
    ctx = sk.default_context(8)
    s = sk.build_monomial_sbox(ctx, "gold", i=1)
    assert all(s[x] == sk.gf_pow(ctx, x, 3) for x in range(256))
    assert s[0] == 0
    assert not sk.is_bijective(s)  # gcd(3, 255) = 3


def test_kasami_matches_direct_power():
    ctx = sk.default_context(8)
    s = sk.build_monomial_sbox(ctx, "kasami", i=3)
    assert all(s[x] == sk.gf_pow(ctx, x, 57) for x in range(256))


def test_welch_and_niho_exponents_n7():
    ctx = sk.default_context(7)
    welch = sk.build_monomial_sbox(ctx, "welch")
    niho = sk.build_monomial_sbox(ctx, "niho")
    assert all(welch[x] == sk.gf_pow(ctx, x, 11) for x in range(128))  # 2^3 + 3
    assert all(niho[x] == sk.gf_pow(ctx, x, 39) for x in range(128))  # t = 3 odd


def test_niho_even_t_branch():
    ctx = sk.default_context(5)  # t = 2
    s = sk.build_monomial_sbox(ctx, "niho")
    assert all(s[x] == sk.gf_pow(ctx, x, 5) for x in range(32))  # 2^2 + 2^1 - 1


def test_dobbertin_n10():
    ctx = sk.default_context(10)
    s = sk.build_monomial_sbox(ctx, "dobbertin")
    assert all(s[x] == sk.gf_pow(ctx, x, 339) for x in range(0, 1024, 37))


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
