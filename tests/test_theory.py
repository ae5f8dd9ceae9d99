"""Oracles that share no code with the kernels: values the theory of power maps
fixes at every width, and the metrics that affine equivalence must keep.

The theorem table checks:
- Gold x^(2^i+1) and Kasami x^(4^i-2^i+1) with gcd(i, n) = 1 are APN, DU 2
  (Gold, 1968; Kasami, 1971).  At odd n they are almost bent: every Walsh sum
  is 0 or +-2^((n+1)/2), so max bias 2^((n-1)/2) and NL 2^(n-1) - 2^((n-1)/2)
  (Chabaud-Vaudenay, EUROCRYPT 1994).  i and n - i give exponents that differ
  by a power of 2, a linear map of the output, so i <= n/2 covers both.
- The inverse x^(2^n-2) has DU 4 at even n, reached once in each of the
  2^n - 1 nonzero rows, and DU 2 at odd n; at even n its Walsh extreme is
  2^(n/2+1), so max bias 2^(n/2) and NL 2^(n-1) - 2^(n/2) (Nyberg, EUROCRYPT
  1993).
- The algebraic degree of x^e is the binary weight of e, so the inverse's is n - 1.

Affine equivalence: for A, B in GL(n, 2) and constants c, d, the map
A.S(B.x xor d) xor c keeps DU, its count, max bias, the component NLs and
the degree (Biryukov et al., EUROCRYPT 2003).  DSAC, DBIC, fixed points and
coordinate-scope AI do move, so they are not compared.
"""

import math

import numpy as np
import pytest

import sboxkit as sk
from sboxkit.core import MAX_N, MIN_N

import reference

WIDTHS = range(3, MAX_N + 1)
INVARIANTS = ("du", "du_count", "max_bias", "nl", "nl_component_max", "nl_component_avg", "degree")


def _power_map(n, family, **parameter):
    return sk.build_monomial_sbox(sk.default_context(n), family, **parameter)


@pytest.mark.parametrize("n", WIDTHS)
def test_gold_and_kasami_are_apn_and_almost_bent_at_odd_n(n):
    for i in range(1, n // 2 + 1):
        if math.gcd(i, n) != 1:
            continue
        for family in ("gold", "kasami"):
            report = sk.full_report(_power_map(n, family, i=i))
            assert report.du == 2, (family, i)
            if n % 2:
                assert report.max_bias == 2 ** ((n - 1) // 2), (family, i)
                assert report.nl == 2 ** (n - 1) - 2 ** ((n - 1) // 2), (family, i)


@pytest.mark.parametrize("n", WIDTHS)
def test_inverse_map_spectra_and_degree(n):
    inverse = _power_map(n, "raw", e=2**n - 2)
    report = sk.full_report(inverse, with_degree=True)
    assert report.degree == n - 1
    if n % 2:
        assert report.du == 2
    else:
        assert (report.du, report.du_count) == (4, 2**n - 1)
        assert report.max_bias == 2 ** (n // 2)
        assert report.nl == 2 ** (n - 1) - 2 ** (n // 2)


@pytest.mark.parametrize("n", WIDTHS)
def test_degree_of_a_power_map_is_the_weight_of_its_exponent(n):
    """Every exponent coprime to 2^n - 1 up to n = 8; a seeded sample of three above."""
    exponents = [e for e in range(1, 2**n - 1) if math.gcd(e, 2**n - 1) == 1]
    if n > 8:
        exponents = np.random.default_rng(17 + n).choice(exponents, size=3, replace=False).tolist()
    for e in exponents:
        assert sk.algebraic_degree(_power_map(n, "raw", e=e)) == e.bit_count(), e


@pytest.mark.parametrize("n", range(MIN_N, MAX_N + 1))
def test_affine_equivalent_maps_keep_the_invariants(n):
    size = 1 << n
    rng = np.random.default_rng(2003 + n)
    x = np.arange(size, dtype=np.int64)
    maps = {**reference.oracle_maps(n), "inverse": _power_map(n, "raw", e=size - 2).table}
    for name, table in maps.items():
        a, b = reference.gl2_matrix(rng, n), reference.gl2_matrix(rng, n)
        c, d = (int(v) for v in rng.integers(0, size, size=2))
        inner = reference.affine_map(b, x, d)
        assert np.unique(inner).size == size, name  # B.x xor d permutes the inputs
        moved = reference.affine_map(a, np.asarray(table, dtype=np.int64)[inner], c)
        before = sk.full_report(sk.SBox(n, table), with_degree=True)
        after = sk.full_report(sk.SBox(n, moved), with_degree=True)
        assert [getattr(after, f) for f in INVARIANTS] == [getattr(before, f) for f in INVARIANTS], name
