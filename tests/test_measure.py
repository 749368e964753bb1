"""Tests for the digit-law distribution: classification, sampling, CDF, charfn."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tern4 import fractal
from tern4 import measure as M
from tern4.measure import DistributionKind, ProbVector

F = Fraction
CHI2_1PCT_DF3 = 11.345


def pv(*vals, exact=True):
    return ProbVector(*[F(v) for v in vals], exact=exact)


# ---------------------------------------------------------------------------
# ProbVector

def test_probvector_validation():
    with pytest.raises(ValueError):
        pv(1, 0, 0, 0)  # degenerate digit law: every p must stay below 1
    with pytest.raises(ValueError):
        pv("1/2", "1/2", "1/2", "-1/2")
    with pytest.raises(ValueError):
        pv("1/2", "1/4", "1/8", "1/16")  # sums to 15/16


def test_probvector_parse_exact_and_decimal():
    p = ProbVector.parse(["1/6", "1/3", "1/3", "1/6"])
    assert p.exact and p.p0 == F(1, 6)
    q = ProbVector.parse(["0.25", "0.25", "0.25", "0.25"])
    assert not q.exact and q.p0 == F(1, 4)
    with pytest.raises(ValueError):
        ProbVector.parse(["1/6", "1/3", "1/3"])
    with pytest.raises(ValueError):
        ProbVector.parse(["a", "b", "c", "d"])


def test_probvector_float_inputs_marked_inexact():
    p = ProbVector(0.25, 0.25, 0.25, 0.25)
    assert not p.exact
    # tiny drift below 1e-12 is tolerated only in inexact mode
    drift = 0.25 + 2 ** -54
    assert not ProbVector(drift, 0.25, 0.25, 0.25).exact


@pytest.mark.parametrize("texts", [
    # sums to 1 exactly, but each text is a rounded 1/6 or 1/3: inexact, so absolutely continuous
    ("0.16666666666667", "0.33333333333333", "0.33333333333333", "0.16666666666667"),
    ("1/6", "1/3", "1/3", "1/6"),
    ("0.25", "1/4", "1/4", "1/4"),
])
def test_probvector_and_parse_read_text_alike(texts):
    p, q = ProbVector(*texts), ProbVector.parse(texts)
    assert p == q and p.exact == q.exact == ("." not in "".join(texts))
    assert M.classify(p) == M.classify(q)


@pytest.mark.parametrize("call", [
    lambda: ProbVector(0.25, 0.25, 0.25, 0.25 + 1e-9),  # inexact, yet off by more than 1e-12
    lambda: M.sample_many(pv("1/4", "1/4", "1/4", "1/4"), 0, 5, 1),
    lambda: M.limsup_lower_bound(pv("1/4", "1/4", "1/4", "1/4"), 0),
])
def test_refusals_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# classification

@pytest.mark.parametrize("vals,kind,dim", [
    (("1/6", "1/3", "1/3", "1/6"), DistributionKind.ABSOLUTELY_CONTINUOUS, None),
    (("1/3", "1/3", "1/3", "0"), DistributionKind.ABSOLUTELY_CONTINUOUS, None),
    (("0", "1/3", "1/3", "1/3"), DistributionKind.ABSOLUTELY_CONTINUOUS, None),
    (("1/4", "1/4", "1/4", "1/4"), DistributionKind.SINGULAR_FULL_OVERLAP, None),
    (("1/2", "0", "1/4", "1/4"), DistributionKind.SINGULAR_CANTOR, math.log((3 + math.sqrt(5)) / 2, 3)),
    (("1/4", "1/4", "0", "1/2"), DistributionKind.SINGULAR_CANTOR, math.log((3 + math.sqrt(5)) / 2, 3)),
    (("1/2", "1/4", "1/4", "0"), DistributionKind.SINGULAR_INCREASING, 1.5 * math.log(2, 3)),
    (("0", "1/4", "1/4", "1/2"), DistributionKind.SINGULAR_INCREASING, None),
    (("1/2", "0", "0", "1/2"), DistributionKind.SINGULAR_CANTOR, math.log(2, 3)),
    (("0", "1/2", "1/2", "0"), DistributionKind.SINGULAR_CANTOR, math.log(2, 3)),
])
def test_classify(vals, kind, dim):
    c = M.classify(pv(*vals))
    assert c.kind is kind
    if dim is not None:
        assert c.dimension == pytest.approx(dim, abs=1e-12)


def test_classify_uniform_payloads():
    assert M.classify(pv("1/3", "1/3", "1/3", 0)).uniform_on == (F(0), F(1))
    assert M.classify(pv(0, "1/3", "1/3", "1/3")).uniform_on == (F(1, 2), F(3, 2))
    assert M.classify(pv("1/6", "1/3", "1/3", "1/6")).uniform_on is None


def test_classify_inexact_tolerance():
    third = 1 / 3
    c = M.classify(ProbVector(1 / 6, third, third, 1 - 1 / 6 - 2 * third))
    assert c.kind is DistributionKind.ABSOLUTELY_CONTINUOUS


def _classify_by_zero_pattern(p):
    """(kind, dimension) from the law's zero pattern, one branch per pattern: the reference for classify."""
    if p.matches(p.p1, M.THIRD) and p.matches(p.p2, M.THIRD):
        return DistributionKind.ABSOLUTELY_CONTINUOUS, None
    zeros = [i for i, v in enumerate(p.probs) if p.matches(v, 0)]
    if not zeros:
        return DistributionKind.SINGULAR_FULL_OVERLAP, None
    if len(zeros) == 2:
        return DistributionKind.SINGULAR_CANTOR, math.log(2, 3)
    if zeros[0] in (1, 2):
        return DistributionKind.SINGULAR_CANTOR, math.log((3 + math.sqrt(5)) / 2, 3)
    active = [v for i, v in enumerate(p.probs) if i != zeros[0]]
    return DistributionKind.SINGULAR_INCREASING, fractal.eggleston_dimension(active)


def test_classify_by_support_matches_the_zero_pattern_branches():
    # every exact law p_i = a_i / q with q <= 12; q = 10 is _simplex_grid_tenths()
    laws = []
    for q in range(1, 13):
        for a in itertools.product(range(q), repeat=3):
            if q - sum(a) in range(q):  # the last probability is at least 0 and below 1
                laws.append(tuple(F(x, q) for x in (*a, q - sum(a))))
    for vals in laws:
        p = ProbVector(*vals)
        c = M.classify(p)
        kind, dim = _classify_by_zero_pattern(p)
        assert c.kind is kind and c.dimension == dim, (vals, c, dim)
        assert dim is None or c.dimension.hex() == dim.hex(), vals


# ---------------------------------------------------------------------------
# characteristic function

def test_charfn_at_zero():
    r = M.charfn(pv("1/4", "1/4", "1/4", "1/4"), 0.0, 40)
    assert r.value == 1 + 0j and r.tail_bound == 0.0


def test_charfn_first_factor_values():
    # quarters: the cube roots of unity cancel, leaving (p0 + p3) + p1*w + p2*w^2 = 1/4
    r = M.charfn(pv("1/4", "1/4", "1/4", "1/4"), 2 * math.pi, 1)
    assert r.value == pytest.approx(0.25, abs=1e-12)
    # on the absolutely continuous line the first factor vanishes
    r = M.charfn(pv("1/6", "1/3", "1/3", "1/6"), 2 * math.pi, 1)
    assert abs(r.value) < 1e-12


def test_charfn_certifies_its_truncation():
    p = pv("1/4", "1/4", "1/4", "1/4")
    coarse = M.charfn(p, 5.0, 8)
    fine = M.charfn(p, 5.0, 60)
    assert abs(coarse.value - fine.value) <= coarse.tail_bound


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_charfn_rejects_non_finite_t(t):
    with pytest.raises(ValueError):
        M.charfn(pv("1/4", "1/4", "1/4", "1/4"), t, 40)


def test_charfn_rejects_t_too_large_to_bound():
    # the truncation bound would overflow a float
    with pytest.raises(ValueError):
        M.charfn(pv("1/4", "1/4", "1/4", "1/4"), 1e300, 40)


def _charfn_mpmath(p, t):
    """The full product prod_k sum_m p_m exp(i m t 3**-k) at 60 digits, to below 1e-40."""
    import mpmath

    with mpmath.workdps(60):
        ps = [mpmath.mpf(v.numerator) / v.denominator for v in p.probs]
        t = mpmath.mpf(t)
        f = mpmath.mpc(1)
        k = 1
        while 3 * abs(t) / mpmath.mpf(3) ** k > mpmath.mpf(10) ** -40:
            z = mpmath.expj(t / mpmath.mpf(3) ** k)
            f *= ((ps[3] * z + ps[2]) * z + ps[1]) * z + ps[0]
            k += 1
        return complex(f)


def test_charfn_bound_holds_against_mpmath_at_large_t():
    # the phase m * t * 3**-k is rounded to float: its error grows with |t|
    rng = random.Random(2024)
    laws = [pv("1/4", "1/4", "1/4", "1/4")]
    for _ in range(4):
        w = [rng.randrange(1, 30) for _ in range(4)]
        laws.append(pv(*[F(x, sum(w)) for x in w]))
    ts = [2 * math.pi * 3 ** 8, 2 * math.pi * 3 ** 12, 2 * math.pi * 3 ** 20, 1e11, -1e11]
    ts += [rng.choice((-1, 1)) * 10 ** rng.uniform(0, 11) for _ in range(10)]
    for p in laws:
        for t in ts:
            r = M.charfn(p, t, 40)
            err = abs(r.value - _charfn_mpmath(p, t))
            assert err <= r.tail_bound, (p, t, err, r.tail_bound)


def _charfn_reference(laws, t):
    """The full product prod_k sum_m p_m exp(i m t 3**-k) for each law, to 1e-24 before rounding to floats.

    mpmath gives each exp(i t 3**-k) at 40 digits, once for all laws; the
    products run in integers scaled by 2**100, which keeps 30 laws at 120
    points within a second where mpmath complex arithmetic takes several.
    """
    import mpmath

    one = 1 << 100
    zs = []
    with mpmath.workdps(40):
        t, k = mpmath.mpf(t), 1
        while 3 * abs(t) / mpmath.mpf(3) ** k > 1e-26:
            z = mpmath.expj(t / mpmath.mpf(3) ** k)
            zs.append((int(mpmath.nint(z.real * one)), int(mpmath.nint(z.imag * one))))
            k += 1
    values = []
    for p in laws:
        c = [round(v * one) for v in p.probs]
        fr, fi = one, 0
        for zr, zi in zs:
            ar, ai = c[3], 0
            for cm in (c[2], c[1], c[0]):  # Horner
                ar, ai = ((ar * zr - ai * zi) >> 100) + cm, (ar * zi + ai * zr) >> 100
            fr, fi = (fr * ar - fi * ai) >> 100, (fr * ai + fi * ar) >> 100
        values.append(complex(fr / one, fi / one))
    return values


def test_charfn_bound_holds_for_every_zero_pattern():
    # the bench laws, then two seeded laws per zero pattern (at least two nonzero
    # digits) and four with full support: the bench t grid, the lbound witnesses
    # and seeded |t| up to 1e11
    rng = random.Random(7)
    laws = [pv("1/4", "1/4", "1/4", "1/4"), pv("1/6", "1/3", "1/3", "1/6"),
            pv("1/2", "1/4", "1/4", 0), pv("1/2", 0, 0, "1/2")]
    patterns = [m for m in range(1, 16) if bin(m).count("1") >= 2]
    for mask in patterns * 2 + [15] * 4:
        w = [rng.randrange(1, 30) if mask >> i & 1 else 0 for i in range(4)]
        laws.append(pv(*[F(x, sum(w)) for x in w]))
    ts = [0.5 * j for j in range(101)] + [2 * math.pi * n for n in range(1, 11)]
    ts += [rng.choice((-1, 1)) * 10 ** rng.uniform(0, 11) for _ in range(10)]
    for t in ts:
        for p, true in zip(laws, _charfn_reference(laws, t)):
            r = M.charfn(p, t, 40)
            err = abs(r.value - true)
            assert err <= r.tail_bound, (p, t, err, r.tail_bound)
            if 0 < abs(t) < 100:  # f(0) = 1 takes no factors; one factor bounds no large t
                p0, p1, p2, p3 = (float(v) for v in p.probs)
                w = t * 3.0 ** -1
                z = complex(math.cos(w), math.sin(w))
                assert M.charfn(p, t, 1).value == ((p3 * z + p2) * z + p1) * z + p0


def test_charfn_functional_equation():
    rng = np.random.default_rng(5)
    for _ in range(3):
        p = ProbVector(*rng.dirichlet((1.0, 1.0, 1.0, 1.0)))
        for t in rng.uniform(0.0, 100.0, 20):
            ft = M.charfn(p, t, 40)
            ft3 = M.charfn(p, t / 3, 40)
            phi1 = M.charfn(p, t, 1).value
            assert abs(ft.value - phi1 * ft3.value) <= ft.tail_bound + ft3.tail_bound


def test_charfn_conjugate_and_palindromic_symmetry():
    rng = np.random.default_rng(11)
    p_any = ProbVector(*rng.dirichlet((2.0, 1.0, 1.0, 2.0)))
    palindromic = pv("1/8", "3/8", "3/8", "1/8")
    for t in (0.7, 3.3, 12.9, 47.1):
        r_plus = M.charfn(p_any, t, 40)
        r_minus = M.charfn(p_any, -t, 40)
        assert abs(r_plus.value - r_minus.value.conjugate()) < 1e-12
        # palindromic law: the variable is symmetric about 3/4, so
        # exp(-3it/4) * f(t) is real
        r = M.charfn(palindromic, t, 60)
        assert abs((np.exp(-0.75j * t) * r.value).imag) < 1e-10


def test_limsup_lower_bound_examples():
    assert M.limsup_lower_bound(pv("1/6", "1/3", "1/3", "1/6"), 3, 40) == 0.0
    assert M.limsup_lower_bound(pv("1/4", "1/4", "1/4", "1/4"), 3, 40) > 1e-3
    assert M.limsup_lower_bound(pv(0, "1/2", "1/4", "1/4"), 3, 40) > 1e-3


def _charfn_one(p, t, K):
    """The truncated product and its bound for one t, written out as a single call computes them."""
    if t == 0:
        return 1 + 0j, 0.0
    p0, p1, p2, p3 = (float(v) for v in p.probs)
    value = 1 + 0j
    for k in range(1, K + 1):
        w = t * 3.0 ** -k
        z = complex(math.cos(w), math.sin(w))
        value *= ((p3 * z + p2) * z + p1) * z + p0
    bound = (abs(value) * math.expm1(1.5 * abs(t) * 3.0 ** -K)
             + 8 * M._FLOAT_EPS * abs(t) * (1 - 3.0 ** -K) / 2 + 16 * K * M._FLOAT_EPS)
    return value, bound


def _bits(value, bound):
    return value.real.hex(), value.imag.hex(), bound.hex()


def test_charfn_grid_equals_charfn_bit_for_bit():
    laws = [pv("1/4", "1/4", "1/4", "1/4"), pv("1/6", "1/3", "1/3", "1/6"),
            pv("1/2", "1/4", "1/4", 0), pv("1/2", 0, 0, "1/2"),
            ProbVector.parse(("0.1", "0.2", "0.3", "0.4"))]
    ts = [0.5 * j for j in range(101)] + [2 * math.pi * n for n in range(1, 11)]
    ts += [0, 0.0, -0.0, -0.5, -2 * math.pi, -17.25, 3]
    for p in laws:
        for K, big in ((1, 1e3), (12, 1e5), (40, 1e11)):  # the largest |t| each K can bound
            grid_ts = ts + [big, -big]
            grid = [_bits(r.value, r.tail_bound) for r in M.charfn_grid(p, grid_ts, K)]
            one_by_one = [_bits(M.charfn(p, t, K).value, M.charfn(p, t, K).tail_bound) for t in grid_ts]
            assert grid == one_by_one == [_bits(*_charfn_one(p, t, K)) for t in grid_ts], (p, K)
        # lbound streams the same witnesses and keeps the best, clamped at 0
        for N in (1, 10):
            witnesses = M.charfn_grid(p, [2 * math.pi * n for n in range(1, N + 1)], 40)
            best = max(abs(r.value) - r.tail_bound for r in witnesses)
            assert M.limsup_lower_bound(p, N, 40) == max(0.0, best)


def test_charfn_real_parts_round_as_the_complex_product():
    # charfn_grid multiplies in real and imaginary parts; the complex loop of
    # _charfn_one must give the same bits, zero signs included, for every zero
    # pattern, at tiny, negative and large t, and on the witnesses of lbound
    rng = random.Random(14)
    laws = [pv("1/4", "1/4", "1/4", "1/4"), pv("1/6", "1/3", "1/3", "1/6"),
            pv("1/2", "1/4", "1/4", 0), pv("1/2", 0, 0, "1/2"),
            ProbVector.parse(("0.1", "0.2", "0.3", "0.4"))]
    for mask in [m for m in range(1, 16) if bin(m).count("1") >= 2] * 2:
        w = [rng.randrange(1, 30) if mask >> i & 1 else 0 for i in range(4)]
        laws.append(pv(*[F(x, sum(w)) for x in w]))
    ts = [0.5 * j for j in range(101)] + [2 * math.pi * n for n in range(1, 41)] + [5e-324, -5e-324, -0.0]
    ts += [rng.uniform(-60, 60) for _ in range(20)]
    for K in (1, 12, 40, 60):
        big = min(1e5, 400 * 3.0 ** K)  # expm1 of the truncation term stays finite
        grid_ts = ts + [rng.uniform(-big, big) for _ in range(20)]
        for p in laws:
            grid = [_bits(r.value, r.tail_bound) for r in M.charfn_grid(p, grid_ts, K)]
            assert grid == [_bits(*_charfn_one(p, t, K)) for t in grid_ts], (p, K)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
def test_charfn_grid_refuses_a_bad_t_when_it_reaches_it(bad):
    grid = M.charfn_grid(pv("1/4", "1/4", "1/4", "1/4"), iter([0.5, 1.0, bad, 2.0]), 40)
    assert next(grid).value == M.charfn(pv("1/4", "1/4", "1/4", "1/4"), 0.5, 40).value
    next(grid)
    with pytest.raises(ValueError):
        next(grid)


@pytest.mark.parametrize("K", [0, -3])
def test_charfn_grid_refuses_k_below_one(K):
    p = pv("1/4", "1/4", "1/4", "1/4")
    with pytest.raises(ValueError, match="K must be positive"):
        list(M.charfn_grid(p, [], K))  # before any t is read
    with pytest.raises(ValueError, match="K must be positive"):
        M.charfn(p, 1.0, K)


@pytest.mark.parametrize("K", [0, -3])
def test_charfn_grid_refuses_k_below_one_when_called(K):
    # as cdf_grid refuses a bad tolerance: at the call, not at the first next()
    with pytest.raises(ValueError, match="K must be positive"):
        M.charfn_grid(pv("1/4", "1/4", "1/4", "1/4"), iter([math.nan]), K)


@pytest.mark.parametrize("n, K", [(1023, 40), (1024, 40), (1025, 40), (101, 1000), (1, 9000)])
def test_charfn_grid_tiles_match_the_scalar_loop(monkeypatch, n, K):
    # chunks of 1024 t's, each in tiles of 8192 // n powers by n t's: one chunk and a one-t
    # second chunk, and k-tiles of 8, 81 and 8192 rows with a shorter last one; np.cos and
    # np.sin must round as math.cos and math.sin do, and no tile may pass _BLOCK entries
    sizes = []
    for name in ("cos", "sin"):
        f = getattr(np, name)
        monkeypatch.setattr(np, name, lambda w, f=f: sizes.append(w.size) or f(w))
    p = ProbVector.parse(("0.1", "0.2", "0.3", "0.4"))
    ts = [0.05 * j * (-1) ** j for j in range(n - 1)] + [1e6]
    grid = [_bits(r.value, r.tail_bound) for r in M.charfn_grid(p, ts, K)]
    assert grid == [_bits(*_charfn_one(p, t, K)) for t in ts]
    assert 0 < max(sizes) <= M._BLOCK


@pytest.mark.parametrize("K", [1, 40, 9000])
def test_charfn_grid_narrow_chunks_match_the_scalar_loop(monkeypatch, K):
    # a chunk of fewer than _NARROW t's runs its product down each t's column in Python
    # floats, a wider one row by row in numpy: every width up to past the crossover must give
    # the scalar loop's bits, and no np.cos or np.sin tile may pass _BLOCK entries
    sizes = []
    for name in ("cos", "sin"):
        f = getattr(np, name)
        monkeypatch.setattr(np, name, lambda w, f=f: sizes.append(w.size) or f(w))
    p = ProbVector.parse(("0.1", "0.2", "0.3", "0.4"))
    big = float(min(10 ** 6, 400 * 3 ** K))  # expm1 of the truncation term stays finite
    for n in range(1, M._NARROW + 3):
        ts = [0.05 * j * (-1) ** j for j in range(n - 1)] + [big]
        grid = [_bits(r.value, r.tail_bound) for r in M.charfn_grid(p, ts, K)]
        assert grid == [_bits(*_charfn_one(p, t, K)) for t in ts], (n, K)
    assert 0 < max(sizes) <= M._BLOCK


def test_charfn_grid_refuses_a_bad_t_after_the_chunk_before_it():
    p = pv("1/4", "1/4", "1/4", "1/4")
    read = []
    ts = itertools.chain([0.5 * j for j in range(1024)], [math.nan], map(read.append, [2.0]))
    grid = M.charfn_grid(p, ts, 40)
    assert len(list(itertools.islice(grid, 1024))) == 1024
    with pytest.raises(ValueError, match="t must be finite"):
        next(grid)
    assert read == []  # nothing past the bad t was read


def test_charfn_grid_reads_an_endless_sequence_lazily():
    p = pv("1/6", "1/3", "1/3", "1/6")
    assert next(M.charfn_grid(p, itertools.count(1), 40)) == M.charfn(p, 1, 40)


def test_charfn_grid_memory_is_bounded_in_k():
    import tracemalloc

    p = pv("1/4", "1/4", "1/4", "1/4")
    list(M.charfn_grid(p, [1.0], 10))  # numpy's own first-use allocations are not the grid's
    tracemalloc.start()
    try:
        list(M.charfn_grid(p, [1.0], 2 * 10 ** 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # a list of the 2 * 10**5 powers alone takes 6.4 MB


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e300, -1e300])
def test_truncation_growth_refuses_what_charfn_refuses(t):
    with pytest.raises(ValueError):
        M.truncation_growth(t, 40)
    with pytest.raises(ValueError):
        M.charfn(pv("1/4", "1/4", "1/4", "1/4"), t, 40)


def _simplex_grid_tenths():
    pts = []
    for i in range(11):
        for j in range(11 - i):
            for k in range(11 - i - j):
                l = 10 - i - j - k
                if max(i, j, k, l) < 10:  # each probability stays below 1
                    pts.append((F(i, 10), F(j, 10), F(k, 10), F(l, 10)))
    return pts


def test_classification_consistency_with_charfn():
    # analytic label and certified numerics agree across the simplex
    rng = random.Random(17)
    pts = rng.sample(_simplex_grid_tenths(), 95)
    pts += [(p0, F(1, 3), F(1, 3), F(1, 3) - p0) for p0 in
            (F(0), F(1, 12), F(1, 6), F(1, 4), F(1, 3))]
    for vals in pts:
        p = ProbVector(*vals)
        is_ac = M.classify(p).kind is DistributionKind.ABSOLUTELY_CONTINUOUS
        bound = M.limsup_lower_bound(p, 3, 40)
        phi1 = abs(M.charfn(p, 2 * math.pi, 1).value)
        assert is_ac == (bound == 0.0 and phi1 < 1e-12), (vals, bound, phi1)


# ---------------------------------------------------------------------------
# sampling

def test_sample_reproducible_and_consistent():
    p = pv("1/4", "1/4", "1/4", "1/4")
    assert M.sample(p, 12, seed=3) == M.sample(p, 12, seed=3)
    assert float(M.sample(p, 12, seed=3)) == pytest.approx(M.sample_many(p, 1, 12, seed=3)[0])


def test_sample_draws_pinned():
    # a fixed (seed, count, depth) must keep giving these draws
    p = pv("1/4", "1/4", "1/4", "1/4")
    assert M.sample(p, 12, seed=3) == F(73202, 531441)
    assert M.sample_many(p, 5, 12, seed=3).tolist() == [
        0.1377424775280793, 0.6746506197301299, 1.2996532070352118, 0.6462090805940829, 1.1594043365114846]
    p = pv("1/2", "1/4", "1/4", 0)
    assert M.sample(p, 12, seed=3) == F(45955, 531441)
    assert M.sample_many(p, 5, 12, seed=3).tolist() == [
        0.08647244002626821, 0.17470236583176682, 0.8039274350304172, 0.1585575821210633, 0.6717528380384652]


# (law, seed, sha1 of sample_many(p, 10**4, 40, seed), sample(p, 40, seed)) for the bench laws and shape
_BENCH_SAMPLES = [
    (("1/4", "1/4", "1/4", "1/4"), 1, "f808a275f3d13516b884a89b1b3bf434e23f13c5",
     "4231563901704895003/4052555153018976267"),
    (("1/4", "1/4", "1/4", "1/4"), 2, "d4e4d0ce9529d734846f97479b8cb0d347aa8602",
     "6888857237991373969/12157665459056928801"),
    (("1/4", "1/4", "1/4", "1/4"), 3, "aced8de9ddae6a67f35c6dc3ca4417f0a201054a",
     "558214131728736053/4052555153018976267"),
    (("1/6", "1/3", "1/3", "1/6"), 1, "e08eef0b8860f306f4f192155df4fe7ab5f794a7",
     "4229687160534342427/4052555153018976267"),
    (("1/6", "1/3", "1/3", "1/6"), 2, "b352235ec3ef65e3443465821ffca4fc5cd14ad8",
     "6444132396110689492/12157665459056928801"),
    (("1/6", "1/3", "1/3", "1/6"), 3, "9c91cb9da6b0d92f6b088c91cbb69ef671f844ca",
     "2575210206967671688/12157665459056928801"),
    (("1/2", "1/4", "1/4", "0"), 1, "025e9110137cdc9a2eae379702f21c7445025b7d",
     "785149875245892043/1350851717672992089"),
    (("1/2", "1/4", "1/4", "0"), 2, "d406fe40fa1f294b85fe2b0371684e6219865d11",
     "322518034931603765/4052555153018976267"),
    (("1/2", "1/4", "1/4", "0"), 3, "0b76d1d053c33c9c7f88cb55ab21ed3e38f0ab74",
     "350435664644034577/4052555153018976267"),
    (("1/2", "0", "0", "1/2"), 1, "860faccd7e1038f9c57c6b1378adc7d8e45bd073",
     "617752476690396832/450283905890997363"),
    (("1/2", "0", "0", "1/2"), 2, "3610611d493dc539132bd6a046db13f4d265c1d0",
     "172423368194552653/1350851717672992089"),
    (("1/2", "0", "0", "1/2"), 3, "b3bcaa4f2acbf5c5ce1c447d90b09b4b33baf0fd",
     "200340935069756107/1350851717672992089"),
]


@pytest.mark.parametrize("law, seed, sha1, exact", _BENCH_SAMPLES)
def test_sample_draws_pinned_at_the_bench_shape(law, seed, sha1, exact):
    p = ProbVector.parse(law)
    assert hashlib.sha1(M.sample_many(p, 10 ** 4, 40, seed).tobytes()).hexdigest() == sha1
    assert M.sample(p, 40, seed) == F(exact)


def _draw_reference(weights, count, depth, seed):
    """The inverse-CDF draw by binary search over the cumulative weights."""
    u = np.random.default_rng(seed).random((count, depth))
    cum = np.cumsum([float(x) for x in weights])[:-1]
    return np.searchsorted(cum, u, side="right").astype(float)


def _draw(weights, count, depth, seed):
    """The (count, depth) array of digits: the blocks of _draw_blocks, concatenated."""
    return np.concatenate([block for _, block in M._draw_blocks(weights, count, depth, seed)])


def test_draw_matches_binary_search_bit_for_bit():
    # every zero pattern of four weights repeats entries of the cumulative sums
    rng = random.Random(3)
    cases = []
    for mask in range(1, 16):
        w = [rng.randrange(1, 10) if mask >> i & 1 else 0 for i in range(4)]
        cases.append([F(x, sum(w)) for x in w])
    for _ in range(10):
        w = [rng.random() if rng.random() > 0.2 else 0.0 for _ in range(4)]
        cases.append([x / sum(w) for x in w] if any(w) else [1.0, 0.0, 0.0, 0.0])
    for i, w in enumerate(cases):
        for count, depth in ((300, 30), (1, 1), (1, 40), (50, 1)):
            got = _draw(w, count, depth, seed=i)
            assert np.array_equal(got, _draw_reference(w, count, depth, seed=i)), (w, count, depth)
    # a uniform equal to a cumulative weight counts that weight, as side="right" does
    u0 = np.random.default_rng(5).random()
    w = (u0, 0, 0, 1 - u0)
    got = _draw(w, 4, 3, seed=5)
    assert got[0, 0] == 3
    assert np.array_equal(got, _draw_reference(w, 4, 3, seed=5))


@pytest.mark.parametrize("block", [64, 1000])
def test_draw_blocks_match_one_array_at_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(M, "_BLOCK", block)
    w = (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
    p = ProbVector(*w)
    for depth in (1, 12, 40, 41):
        rows = len(next(M._draw_blocks(w, 10 ** 6, depth, seed=0))[1])
        assert rows % 8 == 0 and (rows == 8 or rows * depth <= block)
        powers = 3.0 ** -np.arange(1, depth + 1)
        for count in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1, 12345} - {0}):
            seed = count + depth
            ref = _draw_reference(w, count, depth, seed)
            sizes = [(start, len(b)) for start, b in M._draw_blocks(w, count, depth, seed)]
            assert [s for s, _ in sizes] == [0, *np.cumsum([n for _, n in sizes])[:-1]]
            assert all(n == rows for _, n in sizes[:-1]) and (count == 1 or sizes[-1][1] > 1)
            assert np.array_equal(_draw(w, count, depth, seed), ref), (depth, count)
            got = M.sample_many(p, count, depth, seed)
            assert np.array_equal(got, ref @ powers), (depth, count)


def _partition(count, size):
    """Blocks of `size` from 0 to `count`, a lone last entry folded into the block before it."""
    sizes = [size] * (count // size) + [count % size] * (count % size > 0)
    if len(sizes) > 1 and sizes[-1] == 1:
        sizes[-2:] = [size + 1]
    return [(start - n, n) for start, n in zip(itertools.accumulate(sizes), sizes)]


@pytest.mark.parametrize("block", [64, 1000])
def test_draw_spans_keep_the_block_partition_bit_for_bit(monkeypatch, block):
    # the uniforms of whole blocks are drawn a span at a time and counted in place, one
    # comparison per distinct cumulative weight below 1: at the span's edges, and with a lone
    # last row inside the last span, the digits must be those of one (count, depth) draw and
    # the blocks today's partition, for a repeated weight (p1 = p2 = 0), a weight of 0
    # (p0 = 0) and a weight of exactly 1.0 (p3 = 0)
    monkeypatch.setattr(M, "_BLOCK", block)
    compares = []
    ge = np.greater_equal
    monkeypatch.setattr(np, "greater_equal", lambda *a, **k: compares.append(1) or ge(*a, **k))
    laws = {(F(1, 2), 0, 0, F(1, 2)): 1, (0, F(1, 3), F(1, 3), F(1, 3)): 3,
            (F(1, 2), F(1, 4), F(1, 4), 0): 2, (0, F(1, 2), 0, F(1, 2)): 2, (0, 0, F(1, 2), F(1, 2)): 2}
    for depth in (1, 12, 40, 41, 100):
        rows, span = M._block_rows(depth)
        assert span % rows == 0 and (span == rows or span * depth <= 4 * block)
        powers = 3.0 ** -np.arange(1, depth + 1)
        for count in sorted({span - 1, span, span + 1, 2 * span + 1, 2 * span + rows + 1} - {0}):
            for w, distinct in laws.items():
                seed = count + depth
                ref = _draw_reference(w, count, depth, seed)
                del compares[:]
                blocks = list(M._draw_blocks(w, count, depth, seed))
                assert len(compares) == distinct * len(_partition(count, span)), (w, depth, count)
                assert [(start, len(b)) for start, b in blocks] == _partition(count, rows), (depth, count)
                assert np.array_equal(np.concatenate([b for _, b in blocks]), ref), (w, depth, count)
                got = M.sample_many(ProbVector(*w), count, depth, seed)
                assert np.array_equal(got, ref @ powers), (w, depth, count)


def test_sample_many_memory_stays_block_sized():
    import tracemalloc

    p = pv("1/6", "1/3", "1/3", "1/6")
    M.sample_many(p, 10, 40, seed=1)  # numpy's own first-use allocations are not the sampler's
    tracemalloc.start()
    try:
        M.sample_many(p, 10 ** 5, 40, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # the (10**5, 40) draw in one array would take 32 MB for the uniforms alone


_THREADS_SCRIPT = """
import hashlib
from tern4 import measure
p = measure.ProbVector.parse(("1/4", "1/4", "1/4", "1/4"))
for count, depth in ((205, 8193), (10000, 40)):
    print(count, depth, hashlib.sha1(measure.sample_many(p, count, depth, seed=1).tobytes()).hexdigest())
"""


def test_sample_many_does_not_depend_on_blas_thread_count():
    # one large matrix product is split across BLAS threads, which changes how it rounds
    src = str(Path(M.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              capture_output=True, text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


_SPANS_THREADS_SCRIPT = """
import hashlib
from tern4 import measure
p = measure.ProbVector.parse(("1/2", "0", "0", "1/2"))
for depth in (40, 700):
    rows, span = measure._block_rows(depth)
    for count in (3 * span + 9, 3 * span + rows + 1):  # a short last span, and a lone last row folded
        print(count, depth, hashlib.sha1(measure.sample_many(p, count, depth, seed=2).tobytes()).hexdigest())
"""


def test_sample_many_across_draw_spans_does_not_depend_on_blas_thread_count():
    src = str(Path(M.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SPANS_THREADS_SCRIPT],
                              capture_output=True, text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert len(outs[0].splitlines()) == 4 and outs[0] == outs[1]


def test_sample_support_bounds():
    p = pv(0, 0, "1/2", "1/2")
    vals = M.sample_many(p, 2000, 25, seed=8)
    assert vals.min() >= 1 - 3.0 ** -25
    assert vals.max() <= 1.5


def test_sample_first_digit_law_chi_square():
    p = pv("1/6", "1/3", "1/3", "1/6")
    n = 100_000
    vals = M.sample_many(p, n, 1, seed=42) * 3  # depth 1: the first digit itself
    counts = np.bincount(vals.round().astype(int), minlength=4)
    expected = np.array([float(v) * n for v in p.probs])
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < CHI2_1PCT_DF3


# ---------------------------------------------------------------------------
# distribution function

def test_cdf_uniform_case():
    p = pv("1/3", "1/3", "1/3", 0)
    for x in (F(1, 10), F(1, 2), F(9, 10)):
        lo, hi = M.cdf(p, x, 1e-4)
        assert lo <= x <= hi and hi - lo <= F(1, 10000)


def test_cdf_boundaries():
    p = pv("1/4", "1/4", "1/4", "1/4")
    assert M.cdf(p, F(3, 2), 1e-4) == (1, 1)
    lo, hi = M.cdf(p, 0, 1e-4)
    assert lo == 0 and hi <= F(1, 10000)
    lo, hi = M.cdf(p, F(-1, 2), 1e-4)
    assert (lo, hi) == (0, 0)


def test_cdf_symmetric_midpoint():
    # palindromic law: the variable equals 3/2 minus itself in law, so F(3/4) = 1/2
    lo, hi = M.cdf(pv("1/4", "1/4", "1/4", "1/4"), F(3, 4), 1e-4)
    assert lo <= F(1, 2) <= hi


def test_cdf_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        M.cdf(pv("1/4", "1/4", "1/4", "1/4"), F(1, 2), 0.0)


@pytest.mark.parametrize("tol", [-1e-4, math.nan, math.inf,
                                 *(pytest.param(t, id=repr(t)) for t in ("abc", "nan", "-1e-4"))])
def test_cdf_rejects_non_positive_or_non_finite_tolerance(tol):
    with pytest.raises(ValueError):
        M.cdf(pv("1/4", "1/4", "1/4", "1/4"), F(1, 2), tol)


def test_cdf_reads_a_text_tolerance_through_the_number_grammar():
    p = pv("1/2", "1/4", "1/4", "0")
    for x in (F(1, 7), 0.3, F(5, 4)):
        assert M.cdf(p, x, "1e-4") == M.cdf(p, x, F(1, 10 ** 4))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_cdf_rejects_non_finite_x(x):
    with pytest.raises(ValueError):
        M.cdf(pv("1/4", "1/4", "1/4", "1/4"), x, 1e-4)


def test_cdf_reaches_tolerance_for_heavy_laws():
    # a digit of probability near 1 makes F very steep; the bracket must still reach tol
    e = F(1, 10 ** 9)
    lo, hi = M.cdf(ProbVector(e, 1 - 3 * e, e, e), F(1, 2), 1e-4)
    assert lo == hi  # 1/2 = 0.111... in base 3: the remainder repeats at once
    lo, hi = M.cdf(ProbVector(1 - 3 * e, e, e, e), 2.0 ** -1074, 1e-4)
    assert 0 <= hi - lo <= 1e-4


def _cdf_by_elimination(p, points):
    """Exact F at rational points, by sparse elimination of (I - A) F = b.

    The unknowns are F at the residual states y in (0, 3/2) reachable from the
    points under y -> 3y - c, each row being F(y) = sum_c p_c F(3y - c), with
    F = 0 at and left of 0 and F = 1 at and right of 3/2.  A state y is kept
    as the integer y * L over the common denominator L.  Unknowns are
    eliminated successors first (depth-first post-order), so rows stay short;
    back substitution then gives every value.  Uses only Fraction arithmetic.
    """
    L = math.lcm(*(F(y).denominator for y in points))
    top = 3 * L // 2
    rows, todo = {}, [int(y * L) for y in points if 0 < y < F(3, 2)]
    while todo:
        m = todo.pop()
        if m in rows:
            continue
        row, const = {}, F(0)  # F(m) = sum row[z] F(z) + const
        for c, pc in enumerate(p):
            z = 3 * m - c * L
            if pc and z >= top:
                const += pc
            elif pc and z > 0:
                row[z] = pc
                todo.append(z)
        rows[m] = [row, const]
    order, visited = [], set()
    for root in rows:
        if root in visited:
            continue
        visited.add(root)
        stack = [(root, iter(rows[root][0]))]
        while stack:
            m, it = stack[-1]
            z = next((z for z in it if z not in visited), None)
            if z is None:
                stack.pop()
                order.append(m)
            else:
                visited.add(z)
                stack.append((z, iter(rows[z][0])))
    users = defaultdict(set)
    for m, (row, _) in rows.items():
        for z in row:
            users[z].add(m)
    done = set()
    for m in order:
        row, const = rows[m]
        a = row.pop(m, 0)
        if a:
            for z in row:
                row[z] /= 1 - a
            rows[m][1] = const = const / (1 - a)
        done.add(m)
        for u in users.pop(m, ()):
            if u not in done:
                urow = rows[u][0]
                coef = urow.pop(m)
                for z, v in row.items():
                    urow[z] = urow.get(z, 0) + coef * v
                    users[z].add(u)
                rows[u][1] += coef * const
    value = {}
    for m in reversed(order):
        row, const = rows[m]
        value[m] = const + sum(v * value[z] for z, v in row.items())
    return {y: F(0) if y <= 0 else F(1) if y >= F(3, 2) else value[int(y * L)] for y in points}


# the four bench laws, then one law per remaining zero pattern (two digits stay positive)
_EXHAUSTIVE_LAWS = [
    ("1/4", "1/4", "1/4", "1/4"), ("1/6", "1/3", "1/3", "1/6"), ("1/2", "1/4", "1/4", "0"), ("1/2", "0", "0", "1/2"),
    ("0", "1/3", "1/3", "1/3"), ("1/3", "0", "1/3", "1/3"), ("1/4", "1/4", "0", "1/2"),
    ("1/2", "1/2", "0", "0"), ("0", "1/2", "1/2", "0"), ("0", "0", "1/3", "2/3"), ("0", "1/4", "0", "3/4"),
    ("2/3", "0", "1/3", "0"),
]


def test_cdf_exact_at_rationals_against_elimination_oracle():
    points = sorted({F(m, q) for q in range(1, 61) for m in range(3 * q // 2 + 1)})
    assert len(points) == 1654
    for vals in _EXHAUSTIVE_LAWS:
        p = pv(*vals)
        exact = _cdf_by_elimination(p.probs, points)
        for x in points:
            lo, hi = M.cdf(p, x, 1e-300)
            assert lo == hi == exact[x], (vals, x, lo, hi, exact[x])


@pytest.mark.parametrize("tol", [0.5, 1e-2])
def test_cdf_brackets_the_oracle_under_a_coarse_tolerance(tol):
    # a bracket holds F and meets tol; a closed period is solved whatever tol is, so lo == hi is F
    points = sorted({F(m, q) for q in range(1, 61) for m in range(3 * q // 2 + 1)})
    for vals in _EXHAUSTIVE_LAWS:
        p = pv(*vals)
        exact = _cdf_by_elimination(p.probs, points)
        for x in points:
            lo, hi = M.cdf(p, x, tol)
            assert lo <= exact[x] <= hi and hi - lo <= tol, (vals, x, lo, hi, exact[x])
            assert lo != hi or lo == exact[x]


def test_cdf_grid_equals_cdf_bit_for_bit():
    # the bench grid, random rationals (some outside [0, 3/2]) and random floats, each law
    rng = random.Random(23)
    grid = [F(3 * j, 100) for j in range(51)]
    rationals = [F(rng.randrange(-20, 400), rng.randrange(1, 250)) for _ in range(60)]
    floats = [rng.uniform(-0.1, 1.6) for _ in range(30)] + [0.0, -0.0, 1.5, 2.0 ** -1074]
    for vals in _EXHAUSTIVE_LAWS:
        p = pv(*vals)
        for xs, tol in ((grid, 1e-4), (rationals, 1e-9), (floats, 1e-4), (floats, 0.25)):
            got = list(M.cdf_grid(p, xs, tol))
            assert got == [M.cdf(p, x, tol) for x in xs], vals
            assert all(type(v) is F for pair in got for v in pair)


def _reference_cdf_point(p, tol):
    """A reference for `_cdf_point`, made differently: the pass keeps a set of every remainder it
    read and stops when one comes back, and each row of the period's [M | beta] is a second walk
    from that remainder, with the tolerance test switched off by a width bound of -1."""
    tol_num, tol_den = F(tol).as_integer_ratio()
    D = math.lcm(*(v.denominator for v in p.probs))
    w = [0] + [v.numerator * (D // v.denominator) for v in p.probs] + [0, 0]
    below = [sum(w[:j]) for j in range(len(w))]
    f1_num, f1_den = w[1] + w[2], D - w[3]

    def walk(n, q, r0, r1, s, den, tol_num):
        seen = set()
        while n not in seen:
            if (r0 * f1_num + r1 * w[4]) * tol_den <= tol_num * den:
                return r0, r1, s, den, None
            seen.add(n)
            t, n = divmod(3 * n, q)
            r0, r1, s = (r0 * w[t + 1] + r1 * w[t + 4], r0 * w[t] + r1 * w[t + 3],
                         s * D + r0 * below[t] + r1 * below[t + 3])
            den *= D
        return r0, r1, s, den, n

    def point(n, q):
        if n <= 0:
            return 0, 0, 1
        if 2 * n >= 3 * q:
            return 1, 1, 1
        i, n = divmod(n, q)
        r0, r1, s, den, m = walk(n, q, 1 - i, i, 0, f1_den, tol_num)
        if m is None:
            lo = s * f1_den + r1 * f1_num
            return lo, lo + r0 * f1_num + r1 * w[4], den
        a, b, beta0, E, _ = walk(m, q, 1, 0, 0, 1, -1)
        c, d, beta1, _, _ = walk(m, q, 0, 1, 0, 1, -1)
        det = (E - a) * (E - d) - b * c
        v0 = beta0 * (E - d) + b * beta1
        v1 = beta1 * (E - a) + c * beta0
        value = r0 * v0 + r1 * v1 + s * det
        return value, value, den // f1_den * det

    return point


def test_cdf_point_stops_where_the_reference_walk_stops():
    # all three integers: a bracket stops at the same digit, and a period is solved on the same rows
    quarters = {tuple(F(k, d) for k in ks) for d in range(2, 5)
                for ks in itertools.product(range(d), repeat=4) if sum(ks) == d}
    laws = sorted(quarters | {tuple(map(F, vals)) for vals in _EXHAUSTIVE_LAWS})
    assert len(laws) == 48
    rng = random.Random(28)
    calls = 0
    for vals in laws:
        p = ProbVector(*vals)
        floats = [F(rng.uniform(-0.1, 1.6)) for _ in range(20)]
        args = [(g * n, g * q) for q in range(1, 31) for n in range(-1, 3 * q // 2 + 2) for g in (1, 2)]
        args += [(x.numerator, x.denominator) for x in floats]
        for tol in (0.5, 1e-4, 1e-12, 1e-300):
            point, reference = M._cdf_point(p, tol), _reference_cdf_point(p, tol)
            for n, q in args:
                assert point(n, q) == reference(n, q), (vals, tol, n, q)
            calls += len(args)
    assert calls == 48 * 4 * 1580


def test_cdf_tolerance_pass_keeps_no_state_per_digit():
    # a float x of the uniform law at tol 1e-300 reads about 600 digits and never repeats a
    # remainder; the pass holds a few integers, not the remainders it has read
    p = pv("1/4", "1/4", "1/4", "1/4")
    point = M._cdf_point(p, 1e-300)
    n, q = (0.1).as_integer_ratio()
    lo, hi, den = point(n, q)
    assert lo < hi and (den // 3).bit_length() - 1 >= 2 * 500  # den = 3 * 4**k after k digits
    tracemalloc.start()
    try:
        point(n, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024, peak


@given(st.sampled_from(_EXHAUSTIVE_LAWS), st.sampled_from([1e-2, 1e-4, 1e-300]),
       st.integers(-5, 400), st.integers(1, 250))
@settings(max_examples=300, deadline=None)
def test_cdf_point_is_the_same_for_an_unreduced_fraction(vals, tol, n, q):
    # every remainder of the pass at gn/gq is g times the one at n/q
    p = pv(*vals)
    point = M._cdf_point(p, tol)
    lo, hi, den = point(n, q)
    for g in range(1, 6):
        assert point(g * n, g * q) == (lo, hi, den), g
    assert (F(lo, den), F(hi, den)) == M.cdf(p, F(n, q), tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cdf_grid_refuses_a_non_finite_x_when_it_reaches_it(bad):
    p = pv("1/4", "1/4", "1/4", "1/4")
    grid = M.cdf_grid(p, iter([F(1, 2), 0.25, bad, F(1, 3)]), 1e-4)
    assert next(grid) == M.cdf(p, F(1, 2), 1e-4)
    assert next(grid) == M.cdf(p, 0.25, 1e-4)
    with pytest.raises(ValueError, match="finite"):
        next(grid)


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
def test_cdf_grid_refuses_a_bad_tolerance_before_any_x(tol):
    with pytest.raises(ValueError, match="tolerance"):
        M.cdf_grid(pv("1/4", "1/4", "1/4", "1/4"), iter([math.nan]), tol)


def test_cdf_functional_equation():
    rng = random.Random(31)
    pts = rng.sample(_simplex_grid_tenths(), 8)
    tol = 1e-6
    for vals in pts:
        p = ProbVector(*vals)
        for _ in range(4):
            x = F(rng.randrange(0, 301), 200)
            lo, hi = M.cdf(p, x, tol)
            mid = (lo + hi) / 2
            acc_mid, acc_err = F(0), (hi - lo) / 2
            for i, pi in enumerate(p.probs):
                if pi:
                    l, h = M.cdf(p, 3 * x - i, tol)
                    acc_mid += pi * (l + h) / 2
                    acc_err += pi * (h - l) / 2
            assert abs(mid - acc_mid) <= acc_err


def _ks_upper_bound(samples, dist_fn, grid=1500):
    """Rigorous upper bound on sup |empirical - F| using F at grid quantiles."""
    xs = np.sort(samples)
    n = len(xs)
    idxs = np.unique(np.linspace(0, n - 1, grid).astype(int))
    fs = np.array([dist_fn(xs[i]) for i in idxs])
    lo_emp = idxs / n
    hi_emp = (idxs + 1) / n
    d = max(np.abs(lo_emp - fs).max(), np.abs(hi_emp - fs).max())
    d = max(d, fs[0], 1.0 - fs[-1])
    for j in range(len(idxs) - 1):
        d = max(d, fs[j + 1] - (idxs[j] + 1) / n, idxs[j + 1] / n - fs[j])
    return d


@pytest.mark.parametrize("vals,seed", [
    (("1/3", "1/3", "1/3", "0"), 1001),
    (("1/6", "1/3", "1/3", "1/6"), 1002),
    (("1/4", "1/4", "1/4", "1/4"), 1003),
    (("1/8", "3/8", "3/8", "1/8"), 1004),
    (("0", "1/2", "1/4", "1/4"), 1005),
])
def test_sampler_matches_cdf_under_ks(vals, seed):
    p = pv(*vals)
    n = 100_000
    samples = M.sample_many(p, n, 30, seed=seed)
    cache = {}

    def dist_fn(x):
        if x not in cache:
            lo, hi = M.cdf(p, F(x), 1e-4)
            cache[x] = float(lo + hi) / 2
        return cache[x]

    critical = 1.628 / math.sqrt(n)  # one-sample KS, 1% level
    assert _ks_upper_bound(samples, dist_fn) < critical - 5e-5


# ---------------------------------------------------------------------------
# decompositions

def test_decompose_uniform_plus_cantor():
    assert M.decompose_uniform_plus_cantor(pv("1/6", "1/3", "1/3", "1/6")) == F(1, 2)
    assert M.decompose_uniform_plus_cantor(pv("1/3", "1/3", "1/3", 0)) == 1
    with pytest.raises(ValueError):
        M.decompose_uniform_plus_cantor(pv("1/4", "1/4", "1/4", "1/4"))


def test_decompose_cantor_pair():
    assert M.decompose_cantor_pair(pv("1/4", "1/4", "1/4", "1/4")) == (F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        M.decompose_cantor_pair(pv("1/6", "1/3", "1/3", "1/6"))


def test_decompose_cantor_pair_round_trip():
    rng = random.Random(6)
    for _ in range(20):
        u = F(rng.randrange(1, 20), 20)
        v = F(rng.randrange(1, 20), 20)
        p = ProbVector(u * v, u * (1 - v), (1 - u) * v, (1 - u) * (1 - v))
        assert M.decompose_cantor_pair(p) == (u, v)


def test_eta_params():
    p = M.eta_params(F(1, 2))
    assert p.probs == (F(1, 8), F(3, 8), F(3, 8), F(1, 8))
    assert M.classify(p).kind is DistributionKind.SINGULAR_FULL_OVERLAP
    for bad in (0, 1, F(3, 2), F(-1, 2)):
        with pytest.raises(ValueError):
            M.eta_params(bad)


@pytest.mark.parametrize("q0, exact", [("0.5", False), (0.5, False), ("1/2", True), (F(1, 2), True)])
def test_eta_params_exactness_follows_the_input(q0, exact):
    p = M.eta_params(q0)
    assert p.exact is exact and p.probs == (F(1, 8), F(3, 8), F(3, 8), F(1, 8))


def test_eta_params_always_singular():
    for k in range(1, 10):
        assert M.classify(M.eta_params(F(k, 10))).is_singular
