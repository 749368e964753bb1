"""Tests for cell counting, dimension estimates and the base-4 level-set map."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from test_digits import _edges, _numerator_walk
from tern4 import digits as D
from tern4 import fractal as Fr

F = Fraction


def _brute_count(V, n, base=3):
    sums = set()
    for word in product(V, repeat=n):
        acc = 0
        for c in word:
            acc = acc * base + c
        sums.add(acc)
    return len(sums)


def test_count_cells_two_digits():
    for n in range(1, 11):
        assert Fr.count_cells((1, 2), n) == 2 ** n


def test_count_cells_sparse_triple():
    assert [Fr.count_cells((0, 1, 3), n) for n in (1, 2, 3)] == [3, 8, 21]


def test_count_cells_full_alphabet():
    for n in range(1, 7):
        assert Fr.count_cells((0, 1, 2, 3), n) == (3 ** (n + 1) - 1) // 2
        assert Fr.count_cells((0, 1, 2, 3), n) < 4 ** n or n == 1


# the first six keep their former ids V0-V5; the other nine subsets follow
_FIRST_SIX = [(1, 2), (0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2), (0, 1, 2, 3)]
_SUBSETS = [c for r in (1, 2, 3, 4) for c in combinations(range(4), r)]


# the base-3 sets keep their ids V0-V14; every digit set of bases 2 and 4 follows
_BRUTE_SETS = ([(V, 3) for V in _FIRST_SIX + [V for V in _SUBSETS if V not in _FIRST_SIX]]
               + [(V, base) for base in (2, 4) for r in range(1, base + 2)
                  for V in combinations(range(base + 1), r)])


@pytest.mark.parametrize("V, base", _BRUTE_SETS, ids=[f"V{i}" for i in range(len(_BRUTE_SETS))])
def test_count_cells_against_brute_force(V, base):
    for n in range(1, 8):
        assert Fr.count_cells(V, n, base) == _brute_count(V, n, base)


def test_count_cells_over_three_states():
    # base 2 over (0, 1, 2) hits every integer from 0 to 2**(n+1) - 2, through three states
    assert len(Fr._automaton((0, 1, 2), 2)) == 3
    for n in range(1, 11):
        assert Fr.count_cells((0, 1, 2), n, base=2) == _brute_count((0, 1, 2), n, 2)
    assert Fr.count_cells((0, 1, 2), 500, base=2) == 2 ** 501 - 1


def test_count_cells_keeps_one_level():
    # N(20000) has about 4 KB; a count of every level up to it would hold about 40 MB
    tracemalloc.start()
    try:
        assert Fr.count_cells((0, 1, 2, 3), 20000) == (3 ** 20001 - 1) // 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_cell_counts_base_16_against_brute_force():
    assert list(islice(Fr._cell_counts((3, 4), 16), 7)) == [_brute_count((3, 4), n, 16) for n in range(1, 8)]


def _fibonacci(m):
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def test_count_cells_deep_levels():
    n = 500
    for V in _SUBSETS:
        if len(V) == 2:
            assert Fr.count_cells(V, n) == 2 ** n
    assert Fr.count_cells((0, 1, 2, 3), n) == (3 ** (n + 1) - 1) // 2
    assert Fr.count_cells((0, 1, 3), n) == Fr.count_cells((0, 2, 3), n) == _fibonacci(2 * n + 2)
    assert Fr.count_cells((0, 1, 2), n) == Fr.count_cells((1, 2, 3), n) == 3 ** n
    for c in range(4):
        assert Fr.count_cells((c,), n) == 1
    assert Fr.count_cells((3, 4), n, base=16) == 2 ** n
    for V in _SUBSETS:
        n200, n201 = islice(Fr._cell_counts(V, 3), 199, 201)
        assert abs(math.log(n201 / n200, 3) - Fr.dimension_target(V)) < 1e-6, V


@pytest.mark.parametrize("V", _SUBSETS)
def test_automaton_fits_the_two_state_closed_form(V):
    # dimension_target reads the eigenvalue from a 2x2 matrix; a third state would be lost
    assert len(Fr._automaton(V, 3)) <= 2


@pytest.mark.parametrize("base", [1, 0])
def test_base_below_two_is_refused(base):
    # at base 1 the automaton's filter |d| * (base - 1) <= span keeps every difference,
    # so its build would not end, and the fit would divide by log(1) = 0
    with pytest.raises(ValueError, match="at least 2"):
        Fr.count_cells((0, 1), 5, base=base)
    with pytest.raises(ValueError, match="at least 2"):
        Fr.box_dimension((0, 1), 5, base=base)


def test_count_cells_guards():
    assert Fr.count_cells((0, 1, 3), 15) == 2178309  # F_32: no level cap
    with pytest.raises(ValueError):
        Fr.count_cells((), 3)
    with pytest.raises(ValueError):
        Fr.count_cells((0, 1), 0)


def test_count_cells_reflection_symmetry():
    # the digit map c -> 3-c is an isometry of the expansion set
    for n in range(1, 13):
        assert Fr.count_cells((0, 1, 3), n) == Fr.count_cells((0, 2, 3), n)


def test_count_cells_monotone_in_digit_set():
    digit_sets = [c for r in (1, 2, 3, 4) for c in combinations(range(4), r)]
    for V in digit_sets:
        for W in digit_sets:
            if set(V) <= set(W):
                for n in (2, 5, 8):
                    assert Fr.count_cells(V, n) <= Fr.count_cells(W, n)


def test_growth_ratio_sparse_triple():
    n12 = Fr.count_cells((0, 1, 3), 12)
    n11 = Fr.count_cells((0, 1, 3), 11)
    assert abs(n12 / n11 - (3 + math.sqrt(5)) / 2) < 0.01


def test_box_dimension_two_digits():
    est = Fr.box_dimension((1, 2), 12)
    assert all(c == 2 ** n for n, c in est.counts)
    assert abs(est.slope - math.log(2, 3)) < 1e-9
    assert est.r2 == pytest.approx(1.0)


def test_box_dimension_sparse_triple():
    est = Fr.box_dimension((0, 1, 3), 13)
    assert abs(est.slope - math.log((3 + math.sqrt(5)) / 2, 3)) < 0.02
    mirrored = Fr.box_dimension((0, 2, 3), 13)
    assert [c for _, c in mirrored.counts] == [c for _, c in est.counts]


@pytest.mark.parametrize("n_max", [-1, 0, 1, 2])
def test_box_dimension_needs_two_levels_to_fit(n_max):
    # n_max = 1 or 2 leaves one level above n_max/2, whose fit used to read slope 0.0, r2 1.0
    with pytest.raises(ValueError, match="at least 3"):
        Fr.box_dimension((0, 1, 3), n_max)
    with pytest.raises(ValueError, match="at least 3"):
        Fr.continuum_levelset_dimension(n_max)


def test_box_dimension_fits_two_levels_at_n_max_3():
    est = Fr.box_dimension((1, 2), 3)
    assert est.slope == pytest.approx(math.log(2, 3)) and est.r2 == 1.0


def test_dimension_targets():
    assert Fr.dimension_target((1, 2)) == math.log(2, 3)
    assert Fr.dimension_target((0, 1, 3)) == math.log((3 + math.sqrt(5)) / 2, 3)
    assert Fr.dimension_target((0, 1, 2)) == 1.0
    assert Fr.dimension_target((0, 1, 2, 3)) == 1.0
    assert Fr.dimension_target((2,)) == 0.0
    pinned = {
        (0,): "0x0.0p+0", (1,): "0x0.0p+0", (2,): "0x0.0p+0", (3,): "0x0.0p+0",
        (0, 1): "0x1.430939835353dp-1", (0, 2): "0x1.430939835353dp-1",
        (0, 3): "0x1.430939835353dp-1", (1, 2): "0x1.430939835353dp-1",
        (1, 3): "0x1.430939835353dp-1", (2, 3): "0x1.430939835353dp-1",
        (0, 1, 2): "0x1.0000000000000p+0", (0, 1, 3): "0x1.c087c24dd2524p-1",
        (0, 2, 3): "0x1.c087c24dd2524p-1", (1, 2, 3): "0x1.0000000000000p+0",
        (0, 1, 2, 3): "0x1.0000000000000p+0",
    }
    assert sorted(pinned) == sorted(_SUBSETS)
    for V in _SUBSETS:
        assert Fr.dimension_target(V).hex() == pinned[V], V


def test_eggleston_dimension():
    assert Fr.eggleston_dimension((F(1, 3), F(1, 3), F(1, 3))) == pytest.approx(1.0)
    assert Fr.eggleston_dimension((F(1, 2), F(1, 4), F(1, 4))) == pytest.approx(1.5 * math.log(2, 3))
    with pytest.raises(ValueError):
        Fr.eggleston_dimension((1, 0, 0))
    with pytest.raises(ValueError):
        Fr.eggleston_dimension((F(1, 2), F(1, 4), F(1, 8)))


def test_eggleston_dimension_refuses_nan():
    # nan compares False both ways, so only a test for `f > 0` turns it away
    with pytest.raises(ValueError, match="positive"):
        Fr.eggleston_dimension([math.nan, 0.5, 0.5])


@pytest.mark.parametrize("frequencies", [["1/0", "1"], [" 1/2", "1/2"], ["1_0/20", "1/2"]])
def test_eggleston_dimension_refuses_bad_text(frequencies):
    with pytest.raises(ValueError):
        Fr.eggleston_dimension(frequencies)


def test_eggleston_dimension_reads_decimal_text_as_inexact():
    # the decimals sum to 1 - 1e-16: within 1e-12 of 1, as floats may
    assert Fr.eggleston_dimension(["0.5", "0.4999999999999999"]) == pytest.approx(math.log(2, 3))
    assert Fr.eggleston_dimension(["1/2", "1/2"]) == pytest.approx(math.log(2, 3))


# ---------------------------------------------------------------------------
# the unique-expansion set: the nine cells [k/6, (k+1)/6] of [0, 3/2]

def _unique_cells():
    """The cells with one admissible digit, read at their midpoints (2k+1)/12, each with the
    kept cells among the middle cell of its image under y -> 3y - c and the cells either side."""
    kept = [k for k in range(9) if len(_edges(2 * k + 1, 12)) == 1]
    successors = {}
    for k in kept:
        [(c, t)] = _edges(2 * k + 1, 12)
        middle = (t - 1) // 2  # the cell of the midpoint's image t/12
        successors[k] = [j for j in (middle - 1, middle, middle + 1) if j in kept]
    return successors


def test_unique_expansion_set_has_dimension_log3_2():
    # the paper's last theorem: every kept cell has two kept successors, so 6 * 2**n paths
    successors = _unique_cells()
    assert sorted(successors) == [0, 1, 3, 5, 7, 8]
    level = {k: 1 for k in successors}
    for n in range(41):
        assert sum(level.values()) == 6 * 2 ** n
        nxt = dict.fromkeys(successors, 0)
        for k, paths in level.items():
            for j in successors[k]:
                nxt[j] += paths
        level = nxt
    assert math.log(sum(level.values()) / (6 * 2 ** 40), 3) == math.log(2, 3)


def _walk_enters_a_branching_cell(x):
    """Whether the largest-digit walk of x meets [1/3, 1/2], [2/3, 5/6] or [1, 7/6]."""
    n, q = x.numerator, x.denominator
    seen = {n}
    for _, n in _numerator_walk(n, q):
        if n in seen:
            break
        seen.add(n)
    return any(lo * q <= 6 * s <= (lo + 1) * q for s in seen for lo in (2, 4, 6))


def test_unique_expansions_are_the_walks_that_avoid_the_branching_cells():
    values = {F(n, q) for q in range(1, 61) for n in range(3 * q // 2 + 1)}
    assert len(values) == 1654
    for x in values:
        unique = D.classify_cardinality(D.largest_expansion(x)).kind is D.Cardinality.UNIQUE
        assert unique is not _walk_enters_a_branching_cell(x), x


# ---------------------------------------------------------------------------
# base-4 reinterpretation map

def test_quaternary_to_delta_anchor_points():
    for text, v4, v3 in [("(0)", F(0), F(0)), ("(3)", F(1), F(3, 2)), ("(12)", F(2, 5), F(5, 8))]:
        d = Fr.quaternary_to_delta(D.parse(text))
        assert D.evaluate(d, base=4) == v4
        assert D.evaluate(d, base=3) == v3


def test_quaternary_to_delta_keeps_digits():
    d = D.parse("301(102)")
    assert Fr.quaternary_to_delta(d) == d


def test_quaternary_to_delta_rejects_repeating_three():
    with pytest.raises(ValueError):
        Fr.quaternary_to_delta(D.parse("12(3)"))
    with pytest.raises(ValueError):
        Fr.quaternary_to_delta(D.parse("120"))


def test_level_set_finite():
    ls = Fr.level_set(D.parse("1010(12)"), 4)
    assert ls.cardinality.kind is D.Cardinality.FINITE
    reps = D.enumerate_representations(D.parse("1010(12)"), 4)
    assert ls.members == tuple(D.evaluate(r, base=4) for r in reps)
    assert D.evaluate(D.parse("1010(12)"), base=4) in ls.members
    assert len(set(ls.members)) == len(ls.members)


def test_level_set_countable():
    ls = Fr.level_set(D.parse("(1)"), 5)
    assert ls.cardinality.kind is D.Cardinality.COUNTABLE
    assert F(1, 3) in ls.members  # the base-4 value of (1) itself
    assert F(1, 4) in ls.members  # the base-4 value of 0(3)


def test_level_set_continuum_constraint():
    ls = Fr.level_set(D.parse("(10)"), 4)
    assert ls.cardinality.kind is D.Cardinality.CONTINUUM
    assert ls.members is None
    assert ls.constraints == ((1, (1, 0), (0, 3)),)


def test_level_set_continuum_constraints_read_the_block_cyclically():
    # three sites; the last pairs the block's last digit with its first
    expected = ((1, (0, 3), (1, 0)), (2, (3, 0), (2, 3)), (4, (1, 0), (0, 3)))
    assert Fr.level_set(D.parse("(0301)"), 4).constraints == expected
    assert Fr.level_set(D.parse("2(0301)"), 5).constraints == expected  # the preperiod plays no part
    for length in range(1, 6):
        for per in product(range(4), repeat=length):
            ls = Fr.level_set(D.DigitString((), per), 1)
            if ls.constraints is None:
                continue
            per = D.DigitString((), per).period  # the primitive block
            pairs = [(per[j], per[(j + 1) % len(per)]) for j in range(len(per))]
            assert ls.constraints == tuple((j + 1, pair, D.REWRITES[pair])
                                           for j, pair in enumerate(pairs) if pair in D.REWRITES), per


def test_level_set_cardinality_agrees_with_classification():
    rng = random.Random(123)
    for _ in range(50):
        pre = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        per = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        d = D.DigitString(pre, per)
        ls = Fr.level_set(d, len(d.preperiod) + 2)
        assert ls.cardinality == D.classify_cardinality(d)


def test_continuum_levelset_dimension():
    est = Fr.continuum_levelset_dimension()
    assert est.base == 16
    assert [c for _, c in est.counts] == [2 ** n for n in range(1, 11)]
    assert abs(est.slope - 0.25) < 1e-9


def test_hex_pair_packing():
    # consecutive digit pairs (a, b) pack to the base-16 digit 4a + b
    assert {4 * a + b for a, b in ((1, 0), (0, 3))} == set(Fr.HEX_PAIR_DIGITS) == {3, 4}
