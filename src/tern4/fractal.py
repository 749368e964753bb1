"""Box-counting dimension estimates for digit-restricted expansion sets.

Level-n cells are the distinct left endpoints sum(c_k * base**-k) over words
from a digit alphabet; their growth rate in log base `base` estimates the
fractal dimension of the closure.  The counts are exact at every level: a
finite automaton over the differences between a word and the smaller words
that may still reach its value counts them in time linear in the level, with
no level cap (the finite-type / neighbour-graph method of Lalley, Trans. AMS
349 (1997), and Ngai & Wang, J. London Math. Soc. 63 (2001)).  The dimension
target is computed from the same automaton, as log3 of the largest eigenvalue
of its integer matrix.  Also hosts the entropy (digit-frequency) dimension
formula, the reinterpretation map from ordinary base-4 expansions to redundant
base-3 digit strings, and its level sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from tern4 import digits
from tern4.digits import Cardinality, DigitString, ReprCardinality


def _checked_digit_set(digit_set: Iterable[int], base: int) -> tuple[int, ...]:
    V = tuple(sorted(set(int(c) for c in digit_set)))
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if not V:
        raise ValueError("digit set must be non-empty")
    if any(c < 0 or c > base for c in V):
        raise ValueError(f"digits {V} do not fit base {base}")
    return V


def _automaton(V: tuple[int, ...], base: int) -> list[list[tuple[int, int]]]:
    """The difference automaton over the digits V, built once by a walk from the empty set:
    row i holds the edges (c, j) of state i, one for each digit c whose next set does not
    hold 0.  State 0 is the empty set; the others are numbered as the walk first meets them."""
    span = V[-1] - V[0]
    states, rows = [frozenset()], []
    for S in states:  # the list grows while the walk numbers new states
        row = []
        for c in V:
            T = {base * d + e - c for d in S for e in V} | {e - c for e in V if e < c}
            T = frozenset(d for d in T if abs(d) * (base - 1) <= span)
            if 0 not in T:
                if T not in states:
                    states.append(T)
                row.append((c, states.index(T)))
        rows.append(row)
    return rows


def _levels(graph, start):
    """Path counts one level at a time, without end: for k = 0, 1, ... the number of
    length-k paths from `start` to each state they reach.  `graph` maps a state to its
    edges [(label, next state)]; a state with no edges ends its paths."""
    level = {start: 1}
    while True:
        yield level
        nxt = {}
        for s, k in level.items():
            for _, t in graph[s]:
                nxt[t] = nxt.get(t, 0) + k
        level = nxt


def _cell_counts(V: tuple[int, ...], n_max: int, base: int) -> list[int]:
    """Distinct values sum(c_k * base**(n-k)) over words of V**n, for n = 1..n_max.

    A word is counted when no lexicographically smaller word of the same
    length has its value.  Read left to right, a word w carries the set S of
    differences value(w') - value(w) over the smaller prefixes w' that can
    still catch up: a difference d survives only while |d|*(base-1) is at most
    max V - min V, the most the remaining digits can make up.  Reading the
    digit c maps S to {base*d + c' - c : d in S, c' in V} together with
    {c' - c : c' in V, c' < c}, then filters.  Once 0 is in S the word ties a
    smaller one, and so do all its extensions, so those edges are dropped.
    The states form a finite automaton (the differences are bounded integers);
    N(n) is the number of length-n paths from the empty set.
    """
    levels = itertools.islice(_levels(_automaton(V, base), 0), 1, n_max + 1)
    return [sum(level.values()) for level in levels]


def count_cells(digit_set: Iterable[int], n: int, base: int = 3) -> int:
    """Number of distinct level-n cells: values sum(c_k * base**(n-k)) over words.

    Exact at every level n >= 1; the time grows linearly in n (times the
    length of the counts, which have about n digits).
    """
    V = _checked_digit_set(digit_set, base)
    if n < 1:
        raise ValueError("level must be positive")
    return _cell_counts(V, n, base)[-1]


@dataclass(frozen=True)
class DimensionEstimate:
    """Cell counts per level and the fitted log-slope over the upper half of levels."""

    counts: tuple[tuple[int, int], ...]
    slope: float
    r2: float
    base: int = 3


def box_dimension(digit_set: Iterable[int], n_max: int, base: int = 3) -> DimensionEstimate:
    """Least-squares slope of log_base(N(n)) against n, fitted on levels > n_max/2.

    n_max must be at least 3, so that the fit has two levels or more.
    Memory grows as n_max**2: the returned `counts` keep the exact N(n) of
    every level, and N(n) has about n digits.
    """
    V = _checked_digit_set(digit_set, base)
    if n_max < 3:
        raise ValueError("n_max must be at least 3: the fit needs two levels above n_max/2")
    counts = _cell_counts(V, n_max, base)
    levels = list(range(1, n_max + 1))
    logs = [math.log(c) / math.log(base) for c in counts]
    xs = levels[n_max // 2:]
    ys = logs[n_max // 2:]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((u - xbar) ** 2 for u in xs)
    slope = sum((u - xbar) * (v - ybar) for u, v in zip(xs, ys)) / sxx
    ss_res = sum((v - ybar - slope * (u - xbar)) ** 2 for u, v in zip(xs, ys))
    ss_tot = sum((v - ybar) ** 2 for v in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DimensionEstimate(tuple(zip(levels, counts)), slope, r2, base)


def dimension_target(digit_set: Iterable[int]) -> float:
    """Dimension of the base-3 expansion set over the given digits, computed as log3 of the
    growth rate of its cell counts: the largest eigenvalue of the difference automaton's
    integer matrix.  For any subset of {0,1,2,3} the automaton has at most two states,
    so the eigenvalue is the closed form for a 2x2 matrix [[a, b], [c, d]]."""
    rows = _automaton(_checked_digit_set(digit_set, 3), 3)
    rows += [[]] * (2 - len(rows))  # pad one state with an idle one; a third fails to unpack
    (a, b), (c, d) = ([sum(j == k for _, j in row) for k in (0, 1)] for row in rows)
    return math.log((a + d + math.sqrt((a - d) ** 2 + 4 * b * c)) / 2, 3)


def eggleston_dimension(frequencies: Sequence) -> float:
    """Entropy dimension -sum(p * log3 p) of the set with prescribed digit frequencies."""
    try:
        fs = [digits._fraction(f) for f in frequencies]
    except ValueError as exc:  # nan, an infinity or bad text
        raise ValueError(f"frequencies must be positive: {exc}") from None
    if any(f <= 0 for f in fs):
        raise ValueError("frequencies must be positive")
    digits._sums_to_one(fs, not any(map(digits._inexact, frequencies)), "frequencies")
    return -sum(float(f) * math.log(float(f), 3) for f in fs)


# ---------------------------------------------------------------------------
# the base-4 reinterpretation map and its level sets

def quaternary_to_delta(d: DigitString) -> DigitString:
    """Reinterpret an ordinary base-4 expansion as a redundant base-3 digit string.

    The digit sequence is unchanged; only the value changes, from
    evaluate(d, base=4) in [0,1] to evaluate(d, base=3) in [0,3/2].  Base-4
    rationals have two expansions and the repeating-0 form is the one this map
    is defined on, so repeating-3 inputs are rejected; the bare "(3)" (the
    number one, which has no other base-4 expansion) is the one exception.
    """
    if d.period is None:
        raise ValueError("the map is defined on eventually periodic expansions")
    if d.period == (3,) and d.preperiod:
        raise ValueError("use the repeating-0 form of this base-4 rational")
    return d


@dataclass(frozen=True)
class LevelSet:
    """Preimage of one value: its cardinality, and either the base-4 points or,
    for continuum preimages, the free rewrite positions of the repeating block."""

    cardinality: ReprCardinality
    members: tuple[Fraction, ...] | None = None
    constraints: tuple[tuple[int, tuple[int, int], tuple[int, int]], ...] | None = None


def level_set(y: DigitString, depth: int) -> LevelSet:
    """Level set of the reinterpretation map at the value of y.

    Preimage points correspond one-to-one with expansions of the value, so the
    cardinality is the expansion cardinality.  For non-continuum levels the
    members are the base-4 values of the expansions visible at `depth`; for
    continuum levels the independently rewritable pairs of the repeating block
    are reported instead.
    """
    card, expand = digits._census(y)  # one walk of the residual graph serves both parts
    if card.kind is Cardinality.CONTINUUM:
        # the pairs of the block read cyclically: the last digit pairs with the first
        sites = digits.rewrite_sites(DigitString((), y.period), len(y.period))
        return LevelSet(card, constraints=tuple((r.position, r.src, r.dst) for r in sites))
    return LevelSet(card, members=tuple(digits.evaluate(r, base=4) for r in expand(depth)))


#: base-16 digits 4a+b packed from the continuation pairs (a,b) in {(1,0),(0,3)}
HEX_PAIR_DIGITS = (4, 3)


def continuum_levelset_dimension(n_max: int = 10) -> DimensionEstimate:
    """Box counting in base 16 for the continuum level set with pairs {(1,0),(0,3)}.

    Packing consecutive digit pairs via 4a+b turns those expansions into
    base-16 expansions over the digits {3,4}; their cell counts are exactly
    2**n, so the slope is log_16(2) = 1/4.
    """
    return box_dimension(HEX_PAIR_DIGITS, n_max, base=16)
