import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sboxkit as sk
from sboxkit import anf

import reference


def immunity(bits, cap):
    """The kernel sbox_algebraic_immunity runs on each coordinate, on one 0/1 truth table."""
    return anf._immunity(np.asarray(bits, dtype=bool), cap)


def component(s, b):
    """Truth table of the component x -> parity(b & S(x))."""
    return (np.bitwise_count(s.table & b) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# coordinates: the truth tables algebraic_degree and sbox_algebraic_immunity read


def test_component_truth_table(aes):
    coords = anf._coordinates(aes)
    assert coords.dtype == bool and coords.shape == (8, 256)
    assert list(coords[0, :4]) == [bool(v & 1) for v in (0x63, 0x7C, 0x77, 0x7B)]
    for j in range(8):
        assert np.array_equal(coords[j], component(aes, 1 << j))


# ---------------------------------------------------------------------------
# Mobius transform: the kernel algebraic_degree runs, on arrays


def test_mobius_known_small_cases():
    # f = x0 AND x1 on two variables: single top monomial
    a = anf._mobius(np.array([0, 0, 0, 1], dtype=np.uint8))
    assert list(a) == [0, 0, 0, 1]
    assert np.flatnonzero(a).tolist() == [3]
    # f = 1 everywhere: constant plus full telescoping pattern collapses to c0
    assert list(anf._mobius(np.array([1, 1, 1, 1], dtype=np.uint8))) == [1, 0, 0, 0]


def test_mobius_matches_subset_sum_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(10):
        bits = rng.integers(0, 2, size=16).astype(np.uint8)
        assert list(anf._mobius(bits)) == reference.anf_brute(bits, 4)


@given(st.lists(st.integers(0, 1), min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_mobius_is_an_involution(bits):
    assert list(anf._mobius(anf._mobius(np.array(bits, dtype=np.uint8)))) == bits


def test_mobius_involution_larger_width():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=1024).astype(np.uint8)
    assert np.array_equal(anf._mobius(anf._mobius(bits)), bits)


def test_mobius_does_not_mutate_input():
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    anf._mobius(bits)
    assert list(bits) == [1, 0, 1, 1]


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
    assert sk.algebraic_degree(s) == reference.degree_all_components(s.table, 4)


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


# ---------------------------------------------------------------------------
# algebraic immunity


def test_immunity_trivial_functions():
    assert immunity([0] * 16, 4) == 0  # g = 1 annihilates f = 0
    assert immunity(component(sk.SBox(4, np.arange(16)), 1), 4) == 1


def test_immunity_sentinel_when_cap_too_low():
    bent_ish = component(sk.SBox(4, np.array(sk.KEY_SBOX)), 1)
    assert immunity(bent_ish, 0) is None


def test_immunity_symmetric_in_complement():
    rng = np.random.default_rng(31)
    for _ in range(8):
        bits = rng.integers(0, 2, size=32).astype(np.uint8)
        assert immunity(bits, 5) == immunity(bits ^ 1, 5)


def test_immunity_matches_dense_rank_oracle():
    rng = np.random.default_rng(32)
    for _ in range(12):
        bits = rng.integers(0, 2, size=16).astype(np.uint8)
        assert immunity(bits, 4) == reference.immunity_brute(bits, 4, 4)


def test_immunity_upper_bound_half_n():
    rng = np.random.default_rng(33)
    for _ in range(6):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        ai = immunity(bits, 3)
        assert ai is not None and ai <= 3


def test_sbox_immunity_values(aes, identity8):
    assert sk.sbox_algebraic_immunity(identity8) == 1
    assert sk.sbox_algebraic_immunity(aes) == 4
    assert sk.sbox_algebraic_immunity(sk.SBox(4, np.zeros(16, dtype=np.int64))) == 0


def test_aes_every_coordinate_reaches_four(aes):
    for j in range(8):
        assert immunity(component(aes, 1 << j), 4) == 4


def test_sbox_immunity_is_the_coordinate_minimum():
    rng = np.random.default_rng(34)
    s = sk.SBox(4, rng.permutation(16))
    brute = {b: reference.immunity_brute(component(s, b), 4, 2) for b in range(1, 16)}
    for b, ai in brute.items():
        assert immunity(component(s, b), 2) == ai, b
    assert sk.sbox_algebraic_immunity(s) == min(brute[1 << j] for j in range(4)) >= min(brute.values())


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
        a = reference.immunity_brute(bits, n, n)  # steps d up from 0: each cap's answer is a, if a <= cap
        for cap in range(n + 1):
            assert immunity(bits, cap) == (a if a is not None and a <= cap else None), cap

    check()


@pytest.mark.parametrize("n", range(2, 13))
def test_majority_has_immunity_half_n(n):
    # Dalai-Maitra-Sarkar (2006): the majority function reaches ceil(n/2)
    majority = np.bitwise_count(np.arange(1 << n)) > n // 2
    assert immunity(majority, n) == (n + 1) // 2


@pytest.mark.parametrize("n", range(2, 6))
def test_sbox_immunity_all_components_matches_brute_minimum(n):
    # every nonzero component of each map, through the kernel, against the dense oracle
    size = 1 << n
    cap = (n + 1) // 2
    rng = np.random.default_rng(40 + n)
    maps = [rng.permutation(size), rng.integers(0, size, size=size),
            sk.build_monomial_sbox(sk.default_context(n), "raw", e=size - 2).table]
    for table in maps:
        s = sk.SBox(n, table)
        for b in range(1, size):
            bits = component(s, b)
            assert immunity(bits, cap) == reference.immunity_brute(bits, n, cap), b


@pytest.mark.parametrize("n", range(8, 12))
def test_immunity_matches_rank_per_degree_oracle(n):
    size = 1 << n
    rng = np.random.default_rng(50 + n)
    weight = np.bitwise_count(np.arange(size))
    inverse = sk.build_monomial_sbox(sk.default_context(n), "raw", e=size - 2)
    tables = [rng.integers(0, 2, size=size), (weight > n // 2), (weight == 1), (weight <= 1),
              component(inverse, 1), component(inverse, size - 1)]
    for bits in tables:
        bits = np.asarray(bits, dtype=np.uint8)
        for cap in range(n + 1):
            assert immunity(bits, cap) == reference.immunity_rank_per_degree(bits, n, cap), cap


def test_annihilator_rows_are_cached_per_width_and_degree():
    # the rows of A depend on (n, d) only: widths and caps interleaved, so that
    # rows cached for one width would be read at another if the key were d alone
    rng = np.random.default_rng(70)
    functions = {}
    for n in range(2, 11):
        coordinates = [component(sk.SBox(n, table), 1 << j) for table in reference.oracle_maps(n).values()
                       for j in range(n)]
        functions[n] = [(bits, reference.immunity_rank_per_degree(bits, n, n))
                        for bits in coordinates + [bits ^ 1 for bits in coordinates]]
    pairs = [(n, cap) for n in functions for cap in range(n + 1)]
    for i in rng.permutation(len(pairs)):
        n, cap = pairs[i]
        for bits, a in functions[n]:
            assert immunity(bits, cap) == (a if a is not None and a <= cap else None), (n, cap)
    entry = anf._annihilator_rows(8, 3)
    rows, low, high = entry
    assert anf._annihilator_rows(8, 3) is entry and isinstance(entry, tuple) and isinstance(rows, tuple)
    assert len(rows) == np.count_nonzero(low) == 93 and np.array_equal(high, ~low)
    for mask in (low, high):
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = not mask[0]


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


@pytest.mark.parametrize("n", range(2, 12))
def test_sbox_immunity_matches_incremental_oracle(n):
    cap = (n + 1) // 2
    for kind, s in _immunity_maps(n).items():
        coordinates = [reference.immunity_incremental(component(s, 1 << j), n, cap) for j in range(n)]
        assert sk.sbox_algebraic_immunity(s) == min(coordinates), kind
        if n >= 10:
            continue  # the oracle takes 7-12 s over the 1023 components of one n=10 map
        for b in range(1, 1 << n):
            bits = component(s, b)
            assert immunity(bits, cap) == reference.immunity_incremental(bits, n, cap), (kind, b)


def test_immunity_matches_incremental_oracle_inverse12_coordinates():
    s = sk.build_monomial_sbox(sk.default_context(12), "raw", e=(1 << 12) - 2)
    for j in range(12):
        bits = component(s, 1 << j)
        assert immunity(bits, 6) == reference.immunity_incremental(bits, 12, 6), j
