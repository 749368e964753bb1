"""Tests for the governing series, its subsums and the bit-to-digit bridge."""

import math
import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest

from test_digits import _numerator_walk
from tern4 import digits as D
from tern4 import measure as M
from tern4 import series as S

F = Fraction


def test_terms():
    assert [S.series_term(n) for n in (1, 2, 3, 4)] == [F(1, 3)] * 3 + [F(1, 9)]
    assert S.series_term(9) == F(1, 27)
    with pytest.raises(ValueError):
        S.series_term(0)


def test_remainders():
    assert S.series_remainder(0) == F(3, 2)
    assert S.series_remainder(1) == F(7, 6)
    assert S.series_remainder(3) == F(1, 2)
    assert S.series_remainder(12) == F(1, 54)


def test_term_plus_remainder_consistency():
    partial = F(0)
    for n in range(1, 40):
        partial += S.series_term(n)
        assert partial + S.series_remainder(n) == F(3, 2)


def test_kakeya_check():
    # u_n <= r_n compared term by term up to n_max, apart from the library's reduction to n <= 3
    for n_max in range(1, 301):
        loop = all(S.series_term(n) <= S.series_remainder(n) for n in range(1, n_max + 1))
        assert S.kakeya_check(n_max) == loop, n_max
    start = time.perf_counter()
    assert S.kakeya_check(10 ** 12)
    assert time.perf_counter() - start < 1


def test_subsum():
    assert S.subsum(()) == 0
    assert S.subsum((1, 1, 1)) == 1
    assert S.subsum((1, 0, 0, 1)) == F(4, 9)
    with pytest.raises(ValueError):
        S.subsum((1, 2))


def test_greedy_examples():
    n = 9
    all_ones = S.greedy_approximate(F(3, 2), n)
    assert all_ones == (1,) * n
    assert F(3, 2) - S.subsum(all_ones) == S.series_remainder(n)
    assert S.greedy_approximate(F(0), n) == (0,) * n
    g = S.greedy_approximate(F(1, 2), 12)
    assert F(1, 2) - S.subsum(g) <= S.series_remainder(12)


def test_greedy_attains_finite_subsums_exactly():
    bits = (1, 0, 1, 0, 0, 1)
    x = S.subsum(bits)
    assert S.subsum(S.greedy_approximate(x, 6)) == x


def test_greedy_error_bound_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        x = F(rng.randrange(0, 3001), 2000)  # spans [0, 3/2]
        n = rng.randrange(1, 25)
        err = x - S.subsum(S.greedy_approximate(x, n))
        assert 0 <= err <= S.series_remainder(n)


def test_greedy_rejects_out_of_range():
    with pytest.raises(ValueError):
        S.greedy_approximate(F(8, 5), 5)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("f", [D.admissible_prefixes, D.count_expansion_prefixes,
                               pytest.param(lambda x, m: D.largest_expansion(x), id="largest_expansion"),
                               S.greedy_approximate,
                               pytest.param(lambda x, m: M.ProbVector(x, 0.0, 0.0, 0.0), id="ProbVector"),
                               pytest.param(lambda x, m: M.eta_params(x), id="eta_params")])
def test_non_finite_values_raise_value_error(f, x):
    with pytest.raises(ValueError, match="finite"):
        f(x, 3)


@pytest.mark.parametrize("call", [lambda: S.series_remainder(-1), lambda: S.kakeya_check(0),
                                  lambda: S.greedy_approximate(F(1, 2), 0),
                                  lambda: S.greedy_approximate(F(1, 2), 10 ** 12)])
def test_bad_indices_and_lengths_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_eta_subsum_digits():
    assert S.eta_subsum_digits((1, 1, 1, 0, 0, 0)) == (3, 0)
    assert S.eta_subsum_digits((1, 0, 1, 0, 1, 0)) == (2, 1)
    with pytest.raises(ValueError):
        S.eta_subsum_digits((1, 0))


def test_bridge_identity_randomized():
    # the subsum equals the base-3 value of the packed digit word, exactly
    rng = random.Random(4)
    for _ in range(100):
        bits = tuple(rng.randrange(2) for _ in range(3 * rng.randrange(1, 9)))
        assert S.subsum(bits) == D.evaluate(S.digits_of_subsum(bits))


def test_binomial_bridge_matches_eta_law():
    # packing Bernoulli bits three at a time reproduces the binomial digit law
    import numpy as np
    from tern4 import measure as M

    q0 = F(3, 10)
    p = M.eta_params(q0)
    n = 100_000
    rng = np.random.default_rng(12)
    rows = (rng.random((n, 3)) < float(1 - q0)).astype(int)
    counts = [0, 0, 0, 0]
    for row in rows:
        (digit,) = S.eta_subsum_digits(tuple(row))
        counts[digit] += 1
    expected = [float(v) * n for v in p.probs]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    assert chi2 < 11.345  # 1% critical value, 3 degrees of freedom


def _greedy_fraction(x, n_max):
    """The greedy term by term in Fraction arithmetic: the reference for the integer walk."""
    bits, partial = [], F(0)
    for n in range(1, n_max + 1):
        t = S.series_term(n)
        if partial + t <= x:
            partial += t
            bits.append(1)
        else:
            bits.append(0)
    return tuple(bits)


def _subsum_fraction(bits):
    return sum((S.series_term(n + 1) for n, b in enumerate(bits) if b), F(0))


def test_integer_greedy_and_subsum_match_fraction_reference_exhaustive():
    # every n/q in [0, 3/2] with q <= 60, every length up to 31 (short last groups included)
    points = sorted({F(m, q) for q in range(1, 61) for m in range(3 * q // 2 + 1)})
    assert len(points) == 1654
    for x in points:
        # the reference takes its n-th bit before it looks at n_max, so each length is a prefix
        ref = _greedy_fraction(x, 31)
        ref_sums = list(accumulate((S.series_term(n) * b for n, b in enumerate(ref, 1)), initial=F(0)))
        assert ref_sums[-1] == _subsum_fraction(ref)
        for n_max in range(1, 32):
            bits = S.greedy_approximate(x, n_max)
            assert bits == ref[:n_max], (x, n_max)
            assert S.subsum(bits) == ref_sums[n_max], (x, n_max)


def test_greedy_takes_the_numerator_walks_digits_exhaustive():
    # group k of the selector is min(g, c_k) ones, then zeros, for the k-th digit c_k of the
    # largest-digit walk over numerators and the g <= 3 terms of the group
    for q in range(1, 121):
        for a in range(3 * q // 2 + 1):
            for n_max in (1, 2, 3, 10, 30, 31):
                expected = ()
                for n, (c, _) in zip(range(0, n_max, 3), _numerator_walk(a, q)):
                    g = min(3, n_max - n)
                    expected += (1,) * min(g, c) + (0,) * (g - min(g, c))
                assert S.greedy_approximate(F(a, q), n_max) == expected, (a, q, n_max)


def test_subsum_matches_fraction_reference_on_random_bits():
    rng = random.Random(17)
    for n in range(0, 40):
        for _ in range(20):
            bits = tuple(rng.randrange(2) for _ in range(n))
            assert S.subsum(bits) == _subsum_fraction(bits)
    assert type(S.subsum(())) is F


def test_greedy_is_linear_in_n_max():
    # the term-by-term Fraction greedy costs quadratically in n_max
    import time

    start = time.perf_counter()
    bits = S.greedy_approximate(F(1, 7), 100_000)
    value = S.subsum(bits)
    assert time.perf_counter() - start < 1.0
    assert 0 <= F(1, 7) - value <= S.series_remainder(100_000)
