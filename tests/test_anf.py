import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sboxkit as sk
from sboxkit import anf

import reference


def tt(n, bits):
    return anf.TruthTable(n, np.array(bits, dtype=np.uint8))


# ---------------------------------------------------------------------------
# containers


def test_truth_table_validation():
    with pytest.raises(ValueError, match="entries"):
        tt(3, [0] * 7)
    with pytest.raises(ValueError, match="0 or 1"):
        tt(2, [0, 1, 2, 0])
    for n in (2.0, True, None):
        with pytest.raises(ValueError, match="n must be an integer"):
            tt(n, [0, 1])
    assert type(tt(np.int64(2), [0, 1, 1, 0]).n) is int


@pytest.mark.parametrize("cls", [anf.TruthTable, anf.AnfCoefficients])
@pytest.mark.parametrize("value", [2, 256, -1])
def test_containers_reject_non_bits_before_the_cast(cls, value):
    # a uint8 cast first would read 256 as 0 and -1 as 255
    with pytest.raises(ValueError, match="0 or 1"):
        cls(2, np.array([value, 0, 0, 1]))
    with pytest.raises(ValueError, match="0 or 1"):
        cls(2, [0, 1, 1, value])
    stored = getattr(cls(2, np.array([1, 0, 0, 1])), "bits" if cls is anf.TruthTable else "coeffs")
    assert stored.dtype == np.uint8 and stored.tolist() == [1, 0, 0, 1] and not stored.flags.writeable


def test_component_truth_table(aes):
    t = anf.component_truth_table(aes, 1)
    assert list(t.bits[:4]) == [v & 1 for v in (0x63, 0x7C, 0x77, 0x7B)]
    for mask in (256, True, 1.0):
        with pytest.raises(ValueError, match="mask"):
            anf.component_truth_table(aes, mask)


# ---------------------------------------------------------------------------
# Mobius transform


def test_mobius_known_small_cases():
    # f = x0 AND x1 on two variables: single top monomial
    a = anf.mobius_transform(tt(2, [0, 0, 0, 1]))
    assert list(a.coeffs) == [0, 0, 0, 1]
    assert anf.anf_monomials(a) == [3]
    # f = 1 everywhere: constant plus full telescoping pattern collapses to c0
    b = anf.mobius_transform(tt(2, [1, 1, 1, 1]))
    assert list(b.coeffs) == [1, 0, 0, 0]


def test_mobius_matches_subset_sum_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(10):
        bits = rng.integers(0, 2, size=16).astype(np.uint8)
        fast = anf.mobius_transform(tt(4, bits))
        assert list(fast.coeffs) == reference.anf_brute(bits, 4)


@given(st.lists(st.integers(0, 1), min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_mobius_is_an_involution(bits):
    t = tt(4, bits)
    back = anf.evaluate_anf(anf.mobius_transform(t))
    assert list(back.bits) == bits


def test_mobius_involution_larger_width():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=1024).astype(np.uint8)
    t = tt(10, bits)
    assert np.array_equal(anf.evaluate_anf(anf.mobius_transform(t)).bits, bits)


def test_mobius_does_not_mutate_input():
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    t = tt(2, bits)
    anf.mobius_transform(t)
    assert list(t.bits) == [1, 0, 1, 1]


# ---------------------------------------------------------------------------
# degree


def test_degree_linear_and_constant():
    assert sk.algebraic_degree(sk.SBox(4, np.arange(16))) == 1
    # constant-ish: every output 0 except the container minimum width demands
    # valid range, so use a map whose components are all constants
    assert sk.algebraic_degree(sk.SBox(2, np.zeros(4, dtype=np.int64))) == 0


def test_degree_aes(aes):
    assert sk.algebraic_degree(aes) == 7


def test_degree_matches_componentwise_maximum():
    rng = np.random.default_rng(23)
    s = sk.SBox(4, rng.permutation(16))
    best = 0
    for b in range(1, 16):
        coeffs = anf.mobius_transform(anf.component_truth_table(s, b))
        best = max(best, max((m.bit_count() for m in anf.anf_monomials(coeffs)), default=0))
    assert sk.algebraic_degree(s) == best


def _degree_maps(n):
    """Random, non-bijective, constant and power maps of width n."""
    size = 1 << n
    rng = np.random.default_rng(200 + n)
    ctx = sk.default_context(n)
    return {
        "permutation": rng.permutation(size),
        "random": rng.integers(0, size, size=size),
        "constant": np.full(size, size - 1),
        "cube": sk.build_monomial_sbox(ctx, "raw", e=3).table,
        "inverse": sk.build_monomial_sbox(ctx, "raw", e=size - 2).table,
    }


@pytest.mark.parametrize("n", range(2, 13))
def test_degree_matches_all_component_oracle_every_width(n):
    for kind, table in _degree_maps(n).items():
        assert sk.algebraic_degree(sk.SBox(n, table)) == reference.degree_all_components(table, n), kind


@pytest.mark.parametrize("n", range(2, 7))
def test_degree_matches_brute_anf_of_every_component(n):
    for kind, table in _degree_maps(n).items():
        best = 0
        for b in range(1, 1 << n):
            bits = [(b & int(y)).bit_count() & 1 for y in table]
            coeffs = reference.anf_brute(bits, n)
            best = max([best] + [m.bit_count() for m, c in enumerate(coeffs) if c])
        assert sk.algebraic_degree(sk.SBox(n, table)) == best, kind


def test_dump_anf_format():
    s = sk.SBox(2, np.arange(4))
    lines = anf.dump_anf(s).splitlines()
    assert lines[0] == "1: 1"  # component x0 is the monomial x0
    assert lines[1] == "2: 2"
    assert lines[2] == "3: 1 2"
    assert len(lines) == 3


@pytest.mark.parametrize("n", range(2, 9))
def test_dump_anf_matches_per_component_transform(n):
    for kind, table in _degree_maps(n).items():
        s = sk.SBox(n, table)
        listing = ""
        for b in range(1, 1 << n):
            monomials = anf.anf_monomials(anf.mobius_transform(anf.component_truth_table(s, b)))
            listing += f"{b:x}: " + " ".join(f"{m:x}" for m in monomials) + "\n"
        assert anf.dump_anf(s) == listing, kind


# ---------------------------------------------------------------------------
# algebraic immunity


def test_immunity_trivial_functions():
    zero = tt(4, [0] * 16)
    assert anf.algebraic_immunity(zero, 4) == 0  # g = 1 annihilates f = 0
    x0 = anf.component_truth_table(sk.SBox(4, np.arange(16)), 1)
    assert anf.algebraic_immunity(x0, 4) == 1


def test_immunity_sentinel_when_cap_too_low():
    bent_ish = anf.component_truth_table(sk.SBox(4, np.array(sk.KEY_SBOX)), 1)
    assert anf.algebraic_immunity(bent_ish, 0) is None


def test_immunity_rejects_bad_cap():
    for cap in (3, True, 1.0):
        with pytest.raises(ValueError, match="max_degree"):
            anf.algebraic_immunity(tt(2, [0, 1, 1, 0]), cap)


def test_immunity_symmetric_in_complement():
    rng = np.random.default_rng(31)
    for _ in range(8):
        bits = rng.integers(0, 2, size=32).astype(np.uint8)
        t = tt(5, bits)
        tc = tt(5, bits ^ 1)
        assert anf.algebraic_immunity(t, 5) == anf.algebraic_immunity(tc, 5)


def test_immunity_matches_dense_rank_oracle():
    rng = np.random.default_rng(32)
    for _ in range(12):
        bits = rng.integers(0, 2, size=16).astype(np.uint8)
        assert anf.algebraic_immunity(tt(4, bits), 4) == reference.immunity_brute(bits, 4, 4)


def test_immunity_upper_bound_half_n():
    rng = np.random.default_rng(33)
    for _ in range(6):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        ai = anf.algebraic_immunity(tt(6, bits), 3)
        assert ai is not None and ai <= 3


def test_sbox_immunity_values(aes, identity8):
    assert sk.sbox_algebraic_immunity(identity8) == 1
    assert sk.sbox_algebraic_immunity(aes) == 4
    assert sk.sbox_algebraic_immunity(sk.SBox(4, np.zeros(16, dtype=np.int64))) == 0


def test_aes_every_coordinate_reaches_four(aes):
    for j in range(8):
        t = anf.component_truth_table(aes, 1 << j)
        assert anf.algebraic_immunity(t, 4) == 4


def test_sbox_immunity_all_components_flag():
    rng = np.random.default_rng(34)
    s = sk.SBox(4, rng.permutation(16))
    coord = sk.sbox_algebraic_immunity(s)
    full = sk.sbox_algebraic_immunity(s, all_components=True)
    assert full <= coord
    brute = min(
        reference.immunity_brute(anf.component_truth_table(s, b).bits, 4, 2)
        for b in range(1, 16)
    )
    assert full == brute


@st.composite
def _truth_tables(draw, n):
    """Random, weight <= 2, weight >= 2^n - 2 and constant truth tables."""
    size = 1 << n
    kind = draw(st.sampled_from(("random", "sparse", "dense", "constant")))
    if kind == "random":
        bits = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    elif kind == "constant":
        bits = [draw(st.integers(0, 1))] * size
    else:
        ones = draw(st.sets(st.integers(0, size - 1), max_size=2))
        bits = [int((x in ones) == (kind == "sparse")) for x in range(size)]
    return np.array(bits, dtype=np.uint8)


@pytest.mark.parametrize("n", range(2, 9))
def test_immunity_matches_dense_oracle_every_width_and_cap(n):
    @given(_truth_tables(n))
    @settings(max_examples=15, deadline=None, derandomize=True)  # the oracle's cost depends on the draw
    def check(bits):
        for cap in range(n + 1):
            assert anf.algebraic_immunity(tt(n, bits), cap) == reference.immunity_brute(bits, n, cap), cap

    check()


@pytest.mark.parametrize("n", range(2, 13))
def test_majority_has_immunity_half_n(n):
    # Dalai-Maitra-Sarkar (2006): the majority function reaches ceil(n/2)
    majority = (np.bitwise_count(np.arange(1 << n)) > n // 2).astype(np.uint8)
    assert anf.algebraic_immunity(tt(n, majority), n) == (n + 1) // 2


@pytest.mark.parametrize("n", range(2, 6))
def test_sbox_immunity_all_components_matches_brute_minimum(n):
    size = 1 << n
    rng = np.random.default_rng(40 + n)
    maps = [rng.permutation(size), rng.integers(0, size, size=size),
            sk.build_monomial_sbox(sk.default_context(n), "raw", e=size - 2).table]
    for table in maps:
        s = sk.SBox(n, table)
        brute = min(
            reference.immunity_brute(anf.component_truth_table(s, b).bits, n, (n + 1) // 2)
            for b in range(1, size)
        )
        assert sk.sbox_algebraic_immunity(s, all_components=True) == brute


@pytest.mark.parametrize("n", range(8, 12))
def test_immunity_matches_rank_per_degree_oracle(n):
    size = 1 << n
    rng = np.random.default_rng(50 + n)
    weight = np.bitwise_count(np.arange(size))
    inverse = sk.build_monomial_sbox(sk.default_context(n), "raw", e=size - 2)
    tables = [rng.integers(0, 2, size=size), (weight > n // 2), (weight == 1), (weight <= 1),
              anf.component_truth_table(inverse, 1).bits, anf.component_truth_table(inverse, size - 1).bits]
    for bits in tables:
        bits = np.asarray(bits, dtype=np.uint8)
        for cap in range(n + 1):
            assert anf.algebraic_immunity(tt(n, bits), cap) == reference.immunity_rank_per_degree(bits, n, cap), cap


def _immunity_maps(n):
    """Random permutation, inverse, Gold (i = 1) and Kasami maps of width n; the
    Kasami parameter is the smallest i >= 2 prime to n (i = 1 would give Gold's x^3)."""
    size = 1 << n
    ctx = sk.default_context(n)
    kasami_i = next(i for i in range(2, n + 2) if math.gcd(i, n) == 1)
    return {
        "random": sk.SBox(n, np.random.default_rng(60 + n).permutation(size)),
        "inverse": sk.build_monomial_sbox(ctx, "raw", e=size - 2),
        "gold": sk.build_monomial_sbox(ctx, "gold", i=1),
        "kasami": sk.build_monomial_sbox(ctx, "kasami", i=kasami_i),
    }


def _incremental_minimum(s, masks):
    """Minimum of the incremental-elimination oracle over the components `masks`."""
    cap = (s.n + 1) // 2
    return min(reference.immunity_incremental(anf.component_truth_table(s, b).bits, s.n, cap) for b in masks)


@pytest.mark.parametrize("n", range(2, 11))
def test_sbox_immunity_matches_incremental_oracle(n):
    maps = _immunity_maps(n)
    coordinates = [1 << j for j in range(n)]
    for kind, s in maps.items():
        assert sk.sbox_algebraic_immunity(s) == _incremental_minimum(s, coordinates), kind
    if n == 10:
        return  # the oracle takes 7-12 s over the 1023 components of one n=10 map
    for kind, s in maps.items():
        assert sk.sbox_algebraic_immunity(s, all_components=True) == _incremental_minimum(s, range(1, 1 << n)), kind


def test_immunity_matches_incremental_oracle_inverse12_coordinates():
    s = sk.build_monomial_sbox(sk.default_context(12), "raw", e=(1 << 12) - 2)
    for j in range(12):
        bits = anf.component_truth_table(s, 1 << j).bits
        assert anf.algebraic_immunity(tt(12, bits), 6) == reference.immunity_incremental(bits, 12, 6), j
