"""Exact-arithmetic tests for digit strings, rewrites, cylinders and expansion counts."""

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import _residual_graph_expansions
from tern4 import digits as D
from tern4.digits import Cardinality, Cylinder, DigitString, ParseError, ReprCardinality

F = Fraction
HALF_WIDTH = F(3, 2)


# ---------------------------------------------------------------------------
# parsing and canonical form

def test_parse_basic():
    assert D.parse("3(0)") == DigitString((3,), (0,))
    assert D.parse("(12)") == DigitString((), (1, 2))
    assert D.parse("101") == DigitString((1, 0, 1))


def test_parse_canonicalizes():
    assert D.parse("12(1212)") == D.parse("(12)")
    assert D.parse("2(12)") == D.parse("(21)")
    assert D.parse("0(0)") == D.parse("(0)")
    assert D.parse("33(3)") == D.parse("(3)")


@pytest.mark.parametrize("bad", ["", "4", "()", "1(", "(12", "1 2", "12()", "(4)", "-1",
                                 "1010(12)\n"])  # `$` alone would let a final newline through
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        D.parse(bad)


@pytest.mark.parametrize("call", [
    lambda: DigitString((4,), (0,)),
    lambda: DigitString((1,), ()),                 # an empty period
    lambda: DigitString(()),                       # no digit at all
    lambda: D.evaluate(D.parse("(1)"), base=1),
    lambda: D.rewrite_sites(D.parse("(03)"), 0),
    lambda: Cylinder(()),
    lambda: D.admissible_prefixes(F(1, 2), 0),
    lambda: D.count_expansion_prefixes(F(1, 2), -1),
    lambda: ReprCardinality(Cardinality.FINITE, 1),
    lambda: ReprCardinality(Cardinality.UNIQUE, 3),
    lambda: D.parse("12(3)").expand(-1),
    lambda: D.count_expansion_prefixes(F(1, 2), 10 ** 12),  # a walk past 2**20 levels, not allocated
])
def test_refusals_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


# short texts only: Fraction builds 10**e for an exponent e, so a long exponent takes long
@given(st.one_of(st.text(max_size=7), st.text(alphabet="0123456789+-./eE_ \t\n\u0661\u0663", max_size=7)))
@example("2 / 3")
@example("1_0/30")
@example("\u0661/\u0663")
@example("1/0")
@example("0/0")
@example("1e99999")
@settings(max_examples=500)
def test_fraction_reads_one_grammar(text):
    # the text fullmatches _NUMBER: the value Fraction reads, or ValueError for a zero
    # denominator; otherwise ValueError, whatever Fraction's grammar on this Python takes
    try:
        want = F(text) if D._NUMBER.fullmatch(text) else None
    except ZeroDivisionError:
        want = None
    if want is None:
        with pytest.raises(ValueError):
            D._fraction(text)
    else:
        assert D._fraction(text) == want



def test_fraction_caps_the_exponent_at_four_digits():
    # Fraction builds 10**e: an exponent of five digits or more is refused before that
    with pytest.raises(ValueError, match="bad number"):
        D._fraction("1e10000")
    assert D._fraction("1e-9999") == F(1, 10 ** 9999)
    assert D._fraction("-2.5E+0012") == F(-25 * 10 ** 11)


def _primitive_root_by_divisors(word):
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def test_primitive_root_matches_the_divisor_loop_exhaustive():
    for k in range(1, 9):
        for word in product(range(4), repeat=k):
            assert D._primitive_root(word) == _primitive_root_by_divisors(word), word


def test_digit_check_names_the_first_bad_digit():
    with pytest.raises(ValueError, match=r"digit 7 outside 0\.\.3"):
        DigitString((1, 7, 9))
    with pytest.raises(ValueError, match="digit -1 "):
        DigitString((0,), (2, -1))
    assert Cylinder("0123").base == (0, 1, 2, 3)
    assert DigitString("12", "3") == DigitString((1, 2), (3,))


digit_words = st.lists(st.integers(0, 3), max_size=6).map(tuple)
periodic_strings = st.tuples(
    digit_words, st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)
).map(lambda t: DigitString(*t))


@given(periodic_strings)
def test_parse_render_round_trip(d):
    assert D.parse(str(d)) == d


@given(periodic_strings, st.integers(0, 6))
def test_unrolling_preserves_canonical_form(d, k):
    # moving k leading period digits into the preperiod denotes the same sequence
    L = len(d.period)
    pre = d.expand(len(d.preperiod) + k)
    per = d.period[k % L:] + d.period[:k % L]
    assert DigitString(pre, per) == d


# ---------------------------------------------------------------------------
# evaluation

@pytest.mark.parametrize("text,value", [
    ("(3)", F(3, 2)),
    ("(2)", F(1)),
    ("(12)", F(5, 8)),
    ("(1)", F(1, 2)),
    ("(0)", F(0)),
    ("3(0)", F(1)),
    ("0(3)", F(1, 2)),
])
def test_evaluate_known_values(text, value):
    assert D.evaluate(D.parse(text)) == value


def test_evaluate_other_bases():
    assert D.evaluate(D.parse("(12)"), base=4) == F(2, 5)
    assert D.evaluate(D.parse("(3)"), base=4) == F(1)


def test_evaluate_against_geometric_series_exhaustive():
    # oracle in Fractions alone: the preperiod's digit sum, plus the period's
    # digit sum times b**-m / (1 - b**-L), for a preperiod of m and a period of L digits
    words = [w for n in range(4) for w in product(range(4), repeat=n)]
    for base in (2, 3, 4, 10):
        for pre in words:
            head = sum(F(c, base ** k) for k, c in enumerate(pre, 1))
            for per in words[1:]:
                block = sum(F(c, base ** k) for k, c in enumerate(per, 1))
                expected = head + block * F(1, base ** len(pre)) / (1 - F(1, base ** len(per)))
                assert D.evaluate(DigitString(pre, per), base) == expected, (base, pre, per)


def test_evaluate_of_a_long_block_is_its_horner_value_in_a_small_part_of_the_time():
    # past _HORNER_DIGITS digits the numerator is summed as two halves: a 10**5-digit block must
    # give the digit-by-digit Horner value, without Horner's quadratic cost
    rng = random.Random(25)
    word = tuple(rng.randrange(4) for _ in range(10 ** 5))
    start = time.perf_counter()
    horner = 0
    for c in word:
        horner = 3 * horner + c
    horner_s = time.perf_counter() - start
    d = DigitString((), word)
    assert d.period == word
    start = time.perf_counter()
    value = D.evaluate(d)
    assert time.perf_counter() - start < horner_s / 4
    assert value == F(horner, 3 ** len(word) - 1)
    assert D.word_value(list(word)) == F(horner, 3 ** len(word))


def test_evaluate_requires_period():
    with pytest.raises(ValueError):
        D.evaluate(D.parse("12"))


@given(periodic_strings)
def test_evaluate_matches_truncated_sums(d):
    # independent oracle: partial sums of the digit series bracket the value
    value = D.evaluate(d)
    n = 60
    partial = D.word_value(d.expand(n))
    assert partial <= value <= partial + HALF_WIDTH / 3 ** n


# ---------------------------------------------------------------------------
# rewrites

def test_rewrite_sites_examples():
    sites = D.rewrite_sites(D.parse("03(0)"), 4)
    assert (1, (0, 3), (1, 0)) in [(s.position, s.src, s.dst) for s in sites]
    assert D.rewrite_sites(D.parse("(12)"), 10) == []
    sites = {(s.position, s.src, s.dst) for s in D.rewrite_sites(D.parse("(30)"), 4)}
    assert {(1, (3, 0), (2, 3)), (2, (0, 3), (1, 0))} <= sites


def test_rewrite_sites_scan_is_complete():
    # every position whose pair is one of the six oriented pairs is reported
    d = D.parse("(30)")
    got = sorted(s.position for s in D.rewrite_sites(d, 5))
    assert got == [1, 2, 3, 4, 5]


def test_apply_rewrite_examples():
    d = D.parse("03(0)")
    site = D.rewrite_sites(d, 1)[0]
    assert D.apply_rewrite(d, site) == D.parse("10(0)")
    d = D.parse("1(3)")
    out = D.apply_rewrite(d, D.rewrite_sites(d, 1)[0])
    assert out == D.parse("20(3)")
    assert D.evaluate(out) == D.evaluate(d) == F(5, 6)


def test_apply_rewrite_on_a_finite_word():
    assert D.apply_rewrite(D.parse("03"), D.RewriteSite(1, (0, 3), (1, 0))) == DigitString((1, 0))


def test_apply_rewrite_rejects_bad_site():
    d = D.parse("(2)")
    assert D.rewrite_sites(d, 8) == []
    with pytest.raises(ValueError):
        D.apply_rewrite(d, D.RewriteSite(1, (0, 3), (1, 0)))


@given(periodic_strings, st.integers(1, 8))
@settings(max_examples=200)
def test_rewrite_invariance(d, horizon):
    value = D.evaluate(d)
    for site in D.rewrite_sites(d, horizon):
        out = D.apply_rewrite(d, site)
        assert D.evaluate(out) == value
        assert D.parse(str(out)) == out  # canonical


# ---------------------------------------------------------------------------
# cylinders

@pytest.mark.parametrize("base,lo,hi", [
    ((3,), F(1), F(4, 3)),
    ((1, 3), F(2, 3), F(7, 9)),
    ((0,), F(0), F(1, 3)),
])
def test_cylinder_interval(base, lo, hi):
    assert D.cylinder_interval(Cylinder(base)) == (lo, hi)


def test_cylinder_overlap_examples():
    c = D.cylinder_overlap((), 0)
    assert c.base == (0, 3)
    assert D.cylinder_number_interval(c) == (F(1, 3), F(1, 2))
    assert D.cylinder_overlap((2,), 1).base == (2, 1, 3)
    with pytest.raises(ValueError):
        D.cylinder_overlap((), 3)


def test_cylinder_overlap_identity_exhaustive():
    # number sets: the overlap equals the exact intersection, for all ranks <= 5
    for rank in range(0, 5):
        for base in product(range(4), repeat=rank):
            for i in range(3):
                c = D.cylinder_overlap(base, i)
                lo1, hi1 = D.cylinder_number_interval(Cylinder(base + (i,)))
                lo2, hi2 = D.cylinder_number_interval(Cylinder(base + (i + 1,)))
                meet = (max(lo1, lo2), min(hi1, hi2))
                assert D.cylinder_number_interval(c) == meet
                assert D.cylinder_number_interval(Cylinder(base + (i + 1, 0))) == meet


# ---------------------------------------------------------------------------
# admissible prefixes

def test_admissible_prefixes_examples():
    assert D.admissible_prefixes(F(0), 3) == [(0, 0, 0)]
    assert D.admissible_prefixes(F(1), 1) == [(2,), (3,)]
    assert D.admissible_prefixes(F(5, 8), 2) == [(1, 2)]


def _brute_force_prefixes(x, m):
    scaled = x * 3 ** m
    out = []
    for word in product(range(4), repeat=m):
        acc = 0
        for c in word:
            acc = acc * 3 + c
        if 0 <= scaled - acc <= HALF_WIDTH:
            out.append(word)
    return out


@pytest.mark.parametrize("x", [F(0), F(1), F(5, 8), F(245, 648), F(3, 2), F(17, 40)])
def test_admissible_prefixes_against_brute_force(x):
    for m in (1, 3, 6):
        assert D.admissible_prefixes(x, m) == _brute_force_prefixes(x, m)


def test_admissible_prefixes_brute_force_depth_8():
    x = F(5, 8)
    assert D.admissible_prefixes(x, 8) == _brute_force_prefixes(x, 8)


def test_admissible_prefixes_rejects_out_of_range():
    with pytest.raises(ValueError):
        D.admissible_prefixes(F(8, 5), 2)
    with pytest.raises(ValueError):
        D.admissible_prefixes(F(-1, 5), 2)


def _edges(n, q):
    """The edges (c, 3n - cq) of state n over q, in digit order, read off one level of the
    remainder walk: n is the lower state of n mod q, or its upper state when n >= q."""
    r, edges = 3 * n % q, D._EDGES[D._walk(n, q, 1)[0]][n >= q]
    return [(c, r + up * q) for c, up in edges]


def test_graph_edges_match_the_four_digit_filter_exhaustive():
    # the digit range of each state against testing every digit c for 0 <= 3n - cq <= 3q/2
    for q in range(1, 61):
        for n in range(3 * q // 2 + 1):
            expected = [(c, 3 * n - c * q) for c in range(4) if 0 <= 2 * (3 * n - c * q) <= 3 * q]
            assert _edges(n, q) == expected and expected, (n, q)


def test_graph_two_edge_rule_matches_the_digit_interval_exhaustive():
    # the admissible digits are ceil((6n - 3q)/2q) .. floor(3n/q), cut to 0..3
    for q in range(1, 401):
        for n in range(3 * q // 2 + 1):
            lo, hi = max(0, -((3 * q - 6 * n) // (2 * q))), min(3, 3 * n // q)
            assert _edges(n, q) == [(c, 3 * n - c * q) for c in range(lo, hi + 1)], (n, q)


def _filtered_prefixes(x, m_max):
    """The admissible words of each length 0..m_max, in lexicographic order, over Fractions
    apart from the library: each word of a level extended by the digits c in 0..3 whose
    residual 3y - c stays in [0, 3/2]."""
    level, out = [((), x)], [[()]]
    for _ in range(m_max):
        level = [(w + (c,), z) for w, y in level for c in range(4) for z in (3 * y - c,)
                 if 0 <= z <= HALF_WIDTH]
        out.append([w for w, _ in level])
    return out


def test_prefix_counts_and_lists_against_the_four_digit_filter_exhaustive():
    values = {F(a, q) for q in range(1, 61) for a in range(3 * q // 2 + 1)}
    assert len(values) == 1654
    for x in values:
        for m, words in enumerate(_filtered_prefixes(x, 8)):
            assert D.count_expansion_prefixes(x, m) == len(words), (x, m)
            if m:
                assert D.admissible_prefixes(x, m) == words, (x, m)


def test_largest_expansion_is_the_last_admissible_prefix_exhaustive():
    # each state has an out-edge, so the largest length-m prefix begins the largest expansion
    for q in range(1, 31):
        for n in range(3 * q // 2 + 1):
            x = F(n, q)
            e = D.largest_expansion(x)
            assert D.evaluate(e) == x
            assert e.expand(8) == D.admissible_prefixes(x, 8)[-1], x
    assert str(D.largest_expansion(F(245, 648))) == "1010(12)"
    with pytest.raises(ValueError):
        D.largest_expansion(F(8, 5))


def _numerator_walk(n, q):
    """The largest-digit walk of the residual graph over numerators, apart from the remainder
    walk: from state n it yields (c, 3n - cq) for the largest admissible digit
    c = min(3, floor(3n/q)), without end."""
    while True:
        c = min(3, 3 * n // q)
        n = 3 * n - c * q
        yield c, n


def _walked_largest_expansion(x):
    """The largest expansion of x read off `_numerator_walk` with a dict of the states met: the
    digits since the first visit of the state that repeats are the block."""
    n, q = x.numerator, x.denominator
    seen, word = {n: 0}, []
    for c, n in _numerator_walk(n, q):
        word.append(c)
        if n in seen:
            return DigitString(tuple(word[:seen[n]]), tuple(word[seen[n]:]))
        seen[n] = len(word)


def test_largest_expansion_against_the_numerator_walk_exhaustive():
    values = [F(a, q) for q in range(1, 301) for a in range(3 * q // 2 + 1) if gcd(a, q) == 1]
    assert len(values) == 41098
    for x in values:
        assert D.largest_expansion(x) == _walked_largest_expansion(x), x


def test_largest_expansion_refuses_exactly_past_preperiod_plus_period(monkeypatch):
    # P and L of 3**k * a mod q, found apart from the library by the first remainder that repeats
    monkeypatch.setattr(D, "_WALK_STATES", 8)
    refusal, refused = "^the largest expansion does not repeat within 8 digits$", 0
    for q in range(1, 200):
        for a in range(3 * q // 2 + 1):
            if gcd(a, q) == 1:
                seen, r = {}, a % q
                while r not in seen:
                    seen[r], r = len(seen), 3 * r % q
                if len(seen) > 8:
                    refused += 1
                    with pytest.raises(ValueError, match=refusal):
                        D.largest_expansion(F(a, q))
                else:
                    assert D.largest_expansion(F(a, q)) == _walked_largest_expansion(F(a, q))
    assert refused > 0


def test_preperiod_and_period_against_the_first_repeat_exhaustive():
    # the first remainder of 3**k * n mod q that comes back, with the depth it first had, found
    # by a dict from remainder to depth; n = 0 and unreduced n/q included
    pairs = 0
    for q in range(1, 301):
        for n in range(q):
            depth, r = {}, n
            while r not in depth:
                depth[r], r = len(depth), 3 * r % q
            P, lo = D._preperiod(n, q)
            assert (P, lo) == (depth[r], r), (n, q)
            assert sum(D._period(n, q)) == len(depth), (n, q)
            pairs += 1
    assert pairs == 45150


def test_largest_expansion_refuses_a_walk_past_its_state_cap():
    # the period grows with q: 50000 digits at 1/10**6, under the cap; 500000 at 1/10**7, past it
    assert len(D.largest_expansion(F(1, 10 ** 6)).period) == 50000 < D._WALK_STATES
    with pytest.raises(ValueError, match="does not repeat"):
        D.largest_expansion(F(1, 10 ** 7))


@given(st.fractions(min_value=0, max_value=F(3, 2), max_denominator=200), st.integers(1, 6))
@settings(max_examples=60)
def test_prefix_count_matches_listing(x, m):
    assert D.count_expansion_prefixes(x, m) == len(D.admissible_prefixes(x, m))


# ---------------------------------------------------------------------------
# cardinality classification

@pytest.mark.parametrize("text,kind,count", [
    ("(0)", Cardinality.UNIQUE, None),
    ("(3)", Cardinality.UNIQUE, None),
    ("(2)", Cardinality.COUNTABLE, None),
    ("(1)", Cardinality.COUNTABLE, None),
    ("0(3)", Cardinality.COUNTABLE, None),
    ("3(0)", Cardinality.COUNTABLE, None),
    ("(12)", Cardinality.UNIQUE, None),
    ("3333(12)", Cardinality.UNIQUE, None),
    ("(10)", Cardinality.CONTINUUM, None),
    ("(30)", Cardinality.CONTINUUM, None),
    ("03(12)", Cardinality.FINITE, 2),
])
def test_classify_cardinality(text, kind, count):
    card = D.classify_cardinality(D.parse(text))
    assert card.kind is kind
    assert card.count == count


def test_classify_finite_census_1010_12():
    # five expansions of 245/648, as the residual-graph oracle of acceptance
    # criterion 5 also lists: the rewrite 30->23 inside 0303(12) yields 0233(12)
    card = D.classify_cardinality(D.parse("1010(12)"))
    assert card.kind is Cardinality.FINITE
    assert card.count == 5


def test_enumerate_representations_of_one():
    reps = {str(r) for r in D.enumerate_representations(D.parse("(2)"), 3)}
    assert reps == {"(2)", "3(0)", "23(0)", "223(0)"}
    assert all(D.evaluate(r) == 1 for r in D.enumerate_representations(D.parse("(2)"), 3))


def test_enumerate_representations_unique():
    assert D.enumerate_representations(D.parse("(12)"), 6) == [D.parse("(12)")]


def test_enumerate_representations_finite_census():
    reps = {str(r) for r in D.enumerate_representations(D.parse("1010(12)"), 4)}
    assert reps == {"1010(12)", "0310(12)", "0303(12)", "1003(12)", "0233(12)"}
    values = {D.evaluate(r) for r in D.enumerate_representations(D.parse("1010(12)"), 4)}
    assert values == {F(245, 648)}


def test_enumerate_refuses_continuum():
    with pytest.raises(ValueError):
        D.enumerate_representations(D.parse("(10)"), 4)


def test_enumerate_respects_depth():
    reps = D.enumerate_representations(D.parse("(2)"), 5)
    assert all(len(r.preperiod) <= 5 for r in reps)
    assert len(reps) == 6  # (2), 3(0), 23(0), ..., 22223(0)


def _random_periodic(rng):
    pre = tuple(rng.randrange(4) for _ in range(rng.randrange(5)))
    per = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
    return DigitString(pre, per)


def test_classification_against_prefix_count_oracle():
    rng = random.Random(20240611)
    for _ in range(120):
        d = _random_periodic(rng)
        card = D.classify_cardinality(d)
        x = D.evaluate(d)
        m = max(len(d.preperiod), 1) + 2
        c1 = D.count_expansion_prefixes(x, m)
        c2 = D.count_expansion_prefixes(x, m + 2)
        if card.kind is Cardinality.UNIQUE:
            assert c1 == c2 == 1
        elif card.kind is Cardinality.FINITE:
            c3 = D.count_expansion_prefixes(x, m + 6)
            assert card.count == c3 and c3 >= 2
        else:
            # counts sprout at least once per full period copy
            w = len(d.period) + 2
            assert D.count_expansion_prefixes(x, m + w) > c1


def test_enumeration_members_verify_by_value():
    rng = random.Random(7)
    for _ in range(40):
        d = _random_periodic(rng)
        card = D.classify_cardinality(d)
        if card.kind is Cardinality.CONTINUUM:
            continue
        m = len(d.preperiod) + 3
        reps = D.enumerate_representations(d, m)
        assert d in reps or any(r == d for r in reps)
        assert len({str(r) for r in reps}) == len(reps)
        for r in reps:
            assert D.evaluate(r) == D.evaluate(d)


# ---------------------------------------------------------------------------
# deep and long inputs: the walk has no recursion and no state cap, and its depth is bounded

def test_count_expansion_prefixes_deep():
    # from 1/2 a prefix is 1^k, or 1^k 0 followed by 3s: k + 1 words of length k
    assert D.count_expansion_prefixes(F(1, 2), 1500) == 1501


def test_admissible_prefixes_deep():
    assert D.admissible_prefixes(F(5, 8), 1500) == [(1, 2) * 750]


def test_classify_long_preperiod():
    d = D.parse("0" * 26 + "10(12)")
    assert D.classify_cardinality(d) == ReprCardinality(Cardinality.FINITE, 2)
    reps = {str(r) for r in D.enumerate_representations(d, len(d.preperiod) + 3)}
    assert reps == {str(D.parse(s)) for s in _residual_graph_expansions(D.evaluate(d))}


def _fraction_census(x):
    """The census of x read from its residual graph over Fractions by components, apart from the
    library: (kind, expansions listed by the path oracle, or None past finitely many).  A state's
    component is the states it reaches that reach it back: one with more edges than states holds
    two cycles, a continuum; a cycle with an edge out of it gives countably many."""
    ids, succ, todo = {x: 0}, [], [x]  # the states numbered as met, and their successors' numbers
    for y in todo:
        succ.append([])
        for z in (3 * y - c for c in range(4)):
            if 0 <= z <= HALF_WIDTH:
                if z not in ids:
                    ids[z] = len(todo)
                    todo.append(z)
                succ[-1].append(ids[z])
    reach = []  # the states each state reaches in one step or more
    for y in range(len(succ)):
        seen, stack = set(), list(succ[y])
        while stack:
            z = stack.pop()
            if z not in seen:
                seen.add(z)
                stack += succ[z]
        reach.append(seen)
    comps = {frozenset(z for z in reach[y] if y in reach[z]) for y in range(len(succ)) if y in reach[y]}
    if any(sum(z in comp for y in comp for z in succ[y]) > len(comp) for comp in comps):
        return Cardinality.CONTINUUM, None
    if any(len(succ[y]) > 1 for comp in comps for y in comp):
        return Cardinality.COUNTABLE, None
    found = {str(D.parse(s)) for s in _residual_graph_expansions(x)}
    return (Cardinality.UNIQUE if len(found) == 1 else Cardinality.FINITE), found


def _census_agrees_with_fraction_oracle(d):
    kind, expected = _fraction_census(D.evaluate(d))
    card = D.classify_cardinality(d)
    assert card.kind is kind, d
    if expected is not None:
        assert card.count == (len(expected) if kind is Cardinality.FINITE else None), d
        m = max(len(d.preperiod), *(len(D.parse(s).preperiod) for s in expected))
        assert {str(r) for r in D.enumerate_representations(d, m)} == expected, d
    return kind


def test_census_against_fraction_oracle_exhaustive():
    # every canonical string with preperiod <= 3 and period <= 3, against a decider of all
    # four classes that shares no code with the library's window census
    words = [w for n in range(4) for w in product(range(4), repeat=n)]
    strings = {DigitString(pre, per) for pre in words for per in words if per}
    kinds = Counter(map(_census_agrees_with_fraction_oracle, strings))
    assert len(strings) == 4864
    assert kinds == {Cardinality.UNIQUE: 178, Cardinality.FINITE: 336,
                     Cardinality.COUNTABLE: 254, Cardinality.CONTINUUM: 4096}


def test_census_of_largest_expansions_against_fraction_oracle():
    values = {F(a, q) for q in range(1, 61) for a in range(3 * q // 2 + 1) if gcd(a, q) == 1}
    assert len(values) == 1654
    for x in values:
        _census_agrees_with_fraction_oracle(D.largest_expansion(x))


def test_listing_refuses_more_paths_than_the_ceiling_at_once():
    # "03" * k + "(12)" has Fibonacci many expansions: 75,025 at k = 12, 196,418 at k = 13,
    # and about 4.5e41 at k = 100; each is refused before a word is spelled
    start = time.perf_counter()
    assert D.count_expansion_prefixes(D.evaluate(D.parse("03" * 12 + "(12)")), 30) == 75025
    for k in (13, 100):
        d = D.parse("03" * k + "(12)")
        with pytest.raises(ValueError, match="paths"):
            D.enumerate_representations(d, len(d.preperiod) + 6)
        with pytest.raises(ValueError, match="paths"):
            D.admissible_prefixes(D.evaluate(d), len(d.preperiod) + 6)
    assert time.perf_counter() - start < 1


def test_listing_ceiling_is_exact(monkeypatch):
    # from 1/2 there are k + 1 prefixes of length k: 4 words of 3 digits fit in 12 digits, 5 words
    # of 4 do not, nor a depth of 13
    monkeypatch.setattr(D, "_LISTED_DIGITS", 12)
    assert len(D.admissible_prefixes(F(1, 2), 3)) == 4
    assert len(D.enumerate_representations(D.parse("(1)"), 3)) == 4
    assert D.admissible_prefixes(0, 12) == [(0,) * 12]
    assert D.enumerate_representations(D.parse("(0)"), 12) == [D.parse("(0)")]
    for listing in (lambda: D.admissible_prefixes(F(1, 2), 4),
                    lambda: D.enumerate_representations(D.parse("(1)"), 4),
                    lambda: D.admissible_prefixes(0, 13),
                    lambda: D.enumerate_representations(D.parse("(0)"), 13)):
        with pytest.raises(ValueError):
            listing()


def test_listing_a_long_countable_census_is_not_cubic():
    # 1^600 0(3) is 1/2, whose expansions are (1) and 1^k 0(3): at depth 606 the paths share
    # their prefixes, and each canonical form drops a run of up to 606 trailing digits
    start = time.perf_counter()
    d = D.parse("1" * 600 + "0(3)")
    reps = D.enumerate_representations(d, 606)
    assert time.perf_counter() - start < 1
    assert len(reps) == 607 and d in reps
    assert len(set(reps)) == len(reps) and all(D.evaluate(r) == D.evaluate(d) for r in reps)


def test_listed_expansions_are_spelled_canonical_exhaustive():
    # each expansion a listing spells from its walk, with its period starting where its path's
    # final run on a cycle begins, is the form __post_init__ makes of the same two fields: for
    # every canonical string with preperiod <= 3 and period <= 3 short of a continuum, at 8 depths
    words = [w for n in range(4) for w in product(range(4), repeat=n)]
    listed = 0
    for d in {DigitString(pre, per) for pre in words for per in words if per}:
        card, expand = D._census(D.evaluate(d))
        if card.kind is not Cardinality.CONTINUUM:
            for m in range(len(d.preperiod), len(d.preperiod) + 8):
                for r in expand(m, len(d.preperiod)):
                    assert r == DigitString(r.preperiod, r.period), (d, m, r)
                    listed += 1
    assert listed == 27056


def test_census_of_a_long_continuum_peaks_small_and_keeps_nothing():
    # 1/10039 repeats after 10038 digits; the census walks its remainders with two counts per
    # level and keeps no state of the residual graph once it returns
    d = D.largest_expansion(F(1, 10039))
    assert len(d.period) == 10038
    tracemalloc.start()
    try:
        card, expand = D._census(D.evaluate(d))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert card.kind is Cardinality.CONTINUUM
    assert peak < 2 ** 20 and held < 2 ** 14, (peak, held)


def test_canonical_form_against_the_one_digit_rotation():
    # the preperiod's trailing run is dropped in one slice: the same as rotating it into the block
    # one digit at a time
    rng = random.Random(3)
    for _ in range(3000):
        per = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
        pre = (tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
               + per * rng.randrange(4) + per[rng.randrange(len(per)):])
        want_pre, want_per = pre, next(per[:n] for n in range(1, 6) if per[:n] * (len(per) // n) == per)
        while want_pre and want_pre[-1] == want_per[-1]:
            want_pre, want_per = want_pre[:-1], (want_per[-1],) + want_per[:-1]
        assert (DigitString(pre, per).preperiod, DigitString(pre, per).period) == (want_pre, want_per)
