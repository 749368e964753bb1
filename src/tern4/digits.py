"""Exact engine for base-3 expansions over the redundant digit alphabet {0,1,2,3}.

A digit string is a finite word, optionally followed by a repeating block,
over the alphabet {0,1,2,3}.  Read in base 3 it denotes the number
``sum(digit_k * 3**-k)``, which lies in [0, 3/2].  Because the alphabet has
one digit more than the base, most numbers have many expansions.  Everything
in this module is exact rational arithmetic: evaluation, the value-preserving
pair rewrites (03<->10, 13<->20, 23<->30), cylinder intervals, admissible
prefixes, and the unique / finite / countable / continuum classification of
how many expansions a number has.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

BASE = 3
MAX_DIGIT = 3
#: supremum of a digit tail: sum over k >= 1 of 3 * 3**-k
TAIL_SUP = Fraction(3, 2)

#: the six oriented value-preserving adjacent-pair substitutions
REWRITES: dict[tuple[int, int], tuple[int, int]] = {
    (0, 3): (1, 0), (1, 0): (0, 3),
    (1, 3): (2, 0), (2, 0): (1, 3),
    (2, 3): (3, 0), (3, 0): (2, 3),
}


class ParseError(ValueError):
    """Text does not match the digit-string grammar ``[0-3]*(\\([0-3]+\\))?``."""


_DIGITS = frozenset(range(MAX_DIGIT + 1))


def _check_digits(word: Sequence[int]) -> tuple[int, ...]:
    out = tuple(map(int, word))
    if not _DIGITS.issuperset(out):
        raise ValueError(f"digit {next(c for c in out if c not in _DIGITS)!r} outside 0..{MAX_DIGIT}")
    return out


def _primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest word whose repetition equals `word`: as long as its least rotation onto itself."""
    b = bytes(word)
    return word[:(b + b).find(b, 1)]


@dataclass(frozen=True)
class DigitString:
    """A finite digit word plus an optional repeating block, kept canonical.

    Canonical form: the repeating block is primitive (not a power of a
    shorter word) and the preperiod never ends with the block's last digit;
    trailing matches are rotated into the block.  Two digit strings denote
    the same infinite digit sequence iff their canonical forms are equal,
    so dataclass equality is sequence equality.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] | None = None

    def __post_init__(self):
        pre = _check_digits(self.preperiod)
        per = None if self.period is None else _check_digits(self.period)
        if per is not None:
            if not per:
                raise ValueError("period must be non-empty when present")
            per = _primitive_root(per)
            if pre and pre[-1] == per[-1]:  # drop the k last digits, which run the block backwards
                lap = (bytes(per) * (len(pre) // len(per) + 1))[-len(pre):]
                x = int.from_bytes(bytes(pre), "big") ^ int.from_bytes(lap, "big")
                k = ((x & -x).bit_length() - 1) // 8 if x else len(pre)  # the zero bytes at x's low end
                pre, per = pre[:len(pre) - k], per[-k % len(per):] + per[:-k % len(per)]
        if not pre and per is None:
            raise ValueError("digit string needs at least one digit")
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def _spelled(cls, pre: tuple[int, ...], per: tuple[int, ...]) -> DigitString:
        """The digit string of a preperiod and a block that are already canonical, set without the
        checks of `__post_init__`; `_census`'s listing, which spells them so, is its one caller."""
        d = object.__new__(cls)
        object.__setattr__(d, "preperiod", pre)
        object.__setattr__(d, "period", per)
        return d

    def expand(self, n: int) -> tuple[int, ...]:
        """First n digits of the digit sequence (fewer if the word is finite)."""
        if n < 0:
            raise ValueError("digit count must be non-negative")
        if self.period is None or n <= len(self.preperiod):
            return self.preperiod[:n]
        laps = -((len(self.preperiod) - n) // len(self.period))  # ceil((n - len(pre)) / len(per))
        return (self.preperiod + self.period * laps)[:n]

    def __str__(self) -> str:
        body = "".join(map(str, self.preperiod))
        if self.period is not None:
            body += "(" + "".join(map(str, self.period)) + ")"
        return body


_GRAMMAR = re.compile(r"(?P<pre>[0-3]*)(?:\((?P<per>[0-3]+)\))?")


def parse(text: str) -> DigitString:
    """Parse ``digits`` or ``digits(period)`` into a canonical DigitString."""
    m = _GRAMMAR.fullmatch(text)
    if m is None:
        raise ParseError(f"not a digit string: {text!r}")
    pre = tuple(map(int, m.group("pre")))
    per = m.group("per")
    if per is None and not pre:
        raise ParseError("empty digit string")
    return DigitString(pre, None if per is None else tuple(map(int, per)))


_HORNER_DIGITS = 256  # the longest word `_numerator` sums by Horner; a longer one is split in halves


def _numerator(word: Sequence[int], base: int) -> int:
    """Integer sum of digit_k * base**(len(word) - k) over the word: by Horner up to `_HORNER_DIGITS`
    digits, else as its two halves joined by one shift, so a long word costs a few big products
    instead of one ever longer product per digit."""
    if len(word) > _HORNER_DIGITS:
        h = len(word) // 2
        return _numerator(word[:h], base) * base ** (len(word) - h) + _numerator(word[h:], base)
    acc = 0
    for c in word:
        acc = acc * base + c
    return acc


def word_value(word: Sequence[int]) -> Fraction:
    """Value of a finite digit word: sum of digit_k * 3**-k."""
    return Fraction(_numerator(word, BASE), BASE ** len(word))


def evaluate(d: DigitString, base: int = BASE) -> Fraction:
    """Exact value of an eventually periodic digit string in the given base.

    With a preperiod of m digits (numerator a) and a period of L digits
    (numerator b), the value is (a * (base**L - 1) + b) / ((base**L - 1) * base**m).
    """
    if d.period is None:
        raise ValueError("finite digit word has no value; append a period such as '(0)'")
    if base < 2:
        raise ValueError("base must be at least 2")
    lap = base ** len(d.period) - 1
    return Fraction(_numerator(d.preperiod, base) * lap + _numerator(d.period, base),
                    lap * base ** len(d.preperiod))


# ---------------------------------------------------------------------------
# rewrites

@dataclass(frozen=True)
class RewriteSite:
    """A value-preserving substitution of the digit pair starting at `position` (1-based)."""

    position: int
    src: tuple[int, int]
    dst: tuple[int, int]

    def __str__(self) -> str:
        return "%d%d->%d%d" % (*self.src, *self.dst)


def rewrite_sites(d: DigitString, horizon: int) -> list[RewriteSite]:
    """All pair substitutions starting at positions <= horizon of the expansion."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    digits = d.expand(horizon + 1)
    sites = []
    for k in range(len(digits) - 1):
        pair = (digits[k], digits[k + 1])
        if pair in REWRITES:
            sites.append(RewriteSite(k + 1, pair, REWRITES[pair]))
    return sites


def apply_rewrite(d: DigitString, site: RewriteSite) -> DigitString:
    """Apply a pair substitution; the value is unchanged and the result canonical.

    The pair is replaced within the first n = max(position + 1, len(preperiod)) digits, which become
    the preperiod, and the period follows, rotated to depth n.  A finite word has its sites inside
    it, so there n is its length and the first n digits are the word."""
    if site not in rewrite_sites(d, site.position):
        raise ValueError(f"no rewrite {site} at position {site.position} of {d}")
    k = site.position
    n = max(k + 1, len(d.preperiod))
    head = list(d.expand(n))
    head[k - 1:k + 1] = site.dst
    if d.period is None:
        return DigitString(tuple(head))
    shift = (n - len(d.preperiod)) % len(d.period)
    return DigitString(tuple(head), d.period[shift:] + d.period[:shift])


# ---------------------------------------------------------------------------
# cylinders

@dataclass(frozen=True)
class Cylinder:
    """The set of numbers with an expansion starting with `base` (rank = len(base))."""

    base: tuple[int, ...]

    def __post_init__(self):
        word = _check_digits(self.base)
        if not word:
            raise ValueError("a cylinder needs a base of rank >= 1")
        object.__setattr__(self, "base", word)

    @property
    def rank(self) -> int:
        return len(self.base)


def cylinder_interval(c: Cylinder) -> tuple[Fraction, Fraction]:
    """Endpoints [a, a + 3**-m] with a = sum of base_k * 3**-k."""
    a = word_value(c.base)
    return a, a + Fraction(1, BASE ** c.rank)


def cylinder_number_interval(c: Cylinder) -> tuple[Fraction, Fraction]:
    """Endpoints [a, a + (3/2) * 3**-m]: all numbers continuing the base (tail sup 3/2)."""
    a = word_value(c.base)
    return a, a + TAIL_SUP / BASE ** c.rank


def cylinder_overlap(base: Sequence[int], i: int) -> Cylinder:
    """Intersection of the adjacent child cylinders for digits i and i+1.

    The overlap is itself a cylinder of the next rank: base+(i,3), which names
    the same number set as base+(i+1,0).
    """
    if i not in (0, 1, 2):
        raise ValueError("digit 3 has no right neighbour")
    return Cylinder(_check_digits(base) + (i, 3))


# ---------------------------------------------------------------------------
# the residual graph: admissible prefixes and expansion counts
#
# For x = n/q every residual 3y - c along an expansion is again a multiple of
# 1/q in [0, 3/2], so a state is an integer numerator over the fixed q.  The
# expansions of x are the infinite paths from n; every state has an out-edge.
# The states at depth k are the lower state r = 3**k * n mod q and the upper
# state r + q, which is a state only while 2r <= q; so one walk of the
# remainders, `_walk`, serves every path, and every exact walker here, in `series`
# and in the CDF's period solve in `measure` reads its codes.  Lower -> upper reads
# the digit t - 1, lower -> lower t, upper -> upper t + 2, upper -> lower 3.

#: the edges (digit, 0 lower / 1 upper) out of the lower and out of the upper state of a level, by
#: the level's code t + 3 * (the next level has an upper state) for t = 3r // q, in digit order
_EDGES = tuple((((t - 1, 1),) * (t > 0 and up) + ((t, 0),),
                ((t + 2, 1),) * (t < 2 and up) + ((3, 0),) * (t == 0))
               for up in (False, True) for t in range(3))


def _walk(n: int, q: int, m: int) -> bytearray:
    """The first m levels of the remainder walk from state n, one code per level: t + 3 * (2r' <= q)
    for t, r' = divmod(3r, q), the level's t and whether the next level has an upper state.  Every
    walk is allocated here, so a depth past `_LISTED_DIGITS` raises ValueError before its levels."""
    if m > _LISTED_DIGITS:
        raise ValueError(f"depth {m} is past the {_LISTED_DIGITS} levels a walk may take")
    codes, r = bytearray(m), n % q
    for k in range(m):
        t, r = divmod(3 * r, q)
        codes[k] = t + 3 * (2 * r <= q)
    return codes


def _preperiod(n: int, q: int) -> tuple[int, int]:
    """The preperiod P of the remainders 3**k * n mod q, the threes of q / gcd(n, q) (n/q may be
    unreduced), and lo at depth P: none before it is on the cycle, so lo is the first repeat."""
    P, q1 = 0, q // math.gcd(n, q)
    while q1 % 3 == 0:
        P, q1 = P + 1, q1 // 3
    return P, 3 ** P * n % q


def _period(n: int, q: int, cap: int | None = None) -> tuple[int, int]:
    """The preperiod P of `_preperiod` and the period L of the remainders 3**k * n mod q, counted by
    r -> 3r mod q from depth P on.  P + L past `cap`, when given, raises ValueError before L is
    counted out."""
    P, lo = _preperiod(n, q)
    r, L = lo, 0
    while not L or r != lo:
        if cap is not None and P + L >= cap:  # the period has more than L digits
            raise ValueError(f"the largest expansion does not repeat within {cap} digits")
        r, L = 3 * r % q, L + 1
    return P, L


def _counts(codes: bytearray, s: int, cap: int | None = None) -> tuple[int, int]:
    """The numbers of paths over the levels' codes from the lower (s = 0) or the upper (s = 1) state
    to the lower and the upper state at the end.  Counts above `cap`, when given, are cut to it at
    every level, so they stay small where exact ones would not."""
    lo, up = 1 - s, s
    for code in codes:
        if code % 3:  # no edge from upper to lower; an upper state has t <= 1, so up is 0 at t = 2
            up = lo + up if code > 2 else 0
        else:
            lo, up = lo + up, up if code > 2 else 0
        if cap:
            lo, up = min(lo, cap), min(up, cap)
    return lo, up


def _paths(n: int, q: int, m: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Each length-m path from state n as (digit word, 0 or 1: it ends on the lower or the upper
    state, the depth where its final run on states of that kind starts), in lexicographic order,
    spelled once each by one depth-first walk of the lower/upper flag over the levels' edges.  More
    than `_LISTED_DIGITS` digits over the paths raise ValueError before any word is spelled (there
    are at most 2**m paths, so they are counted only past that)."""
    codes, s = _walk(n, q, m), int(n >= q)
    most = _LISTED_DIGITS // max(m, 1)
    if 2 ** m > most < sum(_counts(codes, s, most + 1)):
        raise ValueError(f"more than {most} paths of length {m} to list, past {_LISTED_DIGITS} digits")
    found, word, todo, e = [], [], [], 0
    while True:
        for k in range(len(word), m):  # follow the smaller digit, keep the other edge for later
            edges = _EDGES[codes[k]][s]
            if len(edges) > 1:
                c, t = edges[1]
                todo.append((k, c, t, e if t == s else k + 1))
            c, t = edges[0]
            if t != s:
                s, e = t, k + 1
            word.append(c)
        found.append((tuple(word), s, e))
        if not todo:
            return found
        k, c, s, e = todo.pop()
        del word[k:]
        word.append(c)


def _largest(codes: bytearray, upper: bool) -> tuple[int, ...]:
    """The digits of the largest path over the levels' codes from the lower or the upper state.  A
    lower state takes t and stays lower.  An upper state takes 3 and stays upper exactly when
    t = 1: it has t <= 1, and at t = 1 the next level always has an upper state.  So the 3s run
    to the first t = 0, whose step into the lower state reads 3 too."""
    ts = bytes(code % 3 for code in codes)
    k = (ts.find(0) + 1 or len(ts)) if upper else 0
    return (3,) * k + tuple(ts[k:])


#: the text of a number from outside: ASCII 'a/b' or a decimal, an optional sign, no whitespace
_NUMBER = re.compile(r"[-+]?(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d{1,4})?)", re.ASCII)
_SUM_TOL = 1e-12  # accepted drift from 1 of a sum of weights when one of them is inexact
_WALK_STATES = 2 ** 17  # most digits in largest_expansion's P + L (1/10**6: 50000)
_LISTED_DIGITS = 2 ** 20  # most levels a walk takes, and most digits a listing spells over its paths


def _fraction(x) -> Fraction:
    """x as a Fraction: the one conversion of numbers given from outside.  Text must fullmatch
    `_NUMBER`, the same on every Python (Fraction's own grammar took underscores at 3.11 and
    spaces around '/' at 3.12).  A zero denominator, an infinity and nan raise ValueError, as
    does anything else Fraction refuses."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and not _NUMBER.fullmatch(x):
        raise ValueError(f"bad number {x!r}: need ASCII 'a/b' or a decimal with no whitespace")
    try:
        return Fraction(x)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{x!r} is not a finite number") from None


def _inexact(x) -> bool:
    """Whether x stands for a rounded value: a float, or text with a '.' or an exponent."""
    return isinstance(x, float) or isinstance(x, str) and ("." in x or "e" in x.lower())


def _sums_to_one(values: Sequence[Fraction], exact: bool, name: str) -> None:
    """ValueError unless the values sum to 1: exactly, or within _SUM_TOL when not `exact`."""
    total = sum(values)
    if total != 1 if exact else abs(float(total) - 1.0) > _SUM_TOL:
        raise ValueError(f"{name} sum to {total if exact else float(total)}, expected 1")


def _state(x) -> tuple[int, int]:
    """Numerator and denominator of x, checked to lie in [0, 3/2]."""
    x = _fraction(x)
    if not 0 <= 2 * x.numerator <= 3 * x.denominator:
        raise ValueError(f"value {x} outside [0, 3/2]")
    return x.numerator, x.denominator


def largest_expansion(x) -> DigitString:
    """The lexicographically largest expansion of x in [0, 3/2], spelled by `_largest` over the
    remainder walk's preperiod P and period L.  A path still on an upper state at depth P + L has
    read t = 1 over a whole period, so it stays there; so P + 2L levels spell the expansion, and
    the last L repeat.  P + L past `_WALK_STATES` raises ValueError."""
    n, q = _state(x)
    P, L = _period(n, q, _WALK_STATES)
    codes = _walk(n, q, P + L)
    word = _largest(codes + codes[P:], n >= q)
    return DigitString(word[:P + L], word[P + L:])


def admissible_prefixes(x, m: int) -> list[tuple[int, ...]]:
    """All length-m words that begin some expansion of x, in lexicographic order."""
    n, q = _state(x)
    if m < 1:
        raise ValueError("prefix length must be positive")
    return [word for word, _, _ in _paths(n, q, m)]


def count_expansion_prefixes(x, m: int) -> int:
    """Number of admissible length-m prefixes of x, counting paths one level at a time."""
    n, q = _state(x)
    if m < 0:
        raise ValueError("depth must be non-negative")
    return sum(_counts(_walk(n, q, m), int(n >= q)))


# ---------------------------------------------------------------------------
# classification of expansion cardinality

class Cardinality(Enum):
    UNIQUE = "unique"
    FINITE = "finite"
    COUNTABLE = "countable"
    CONTINUUM = "continuum"


@dataclass(frozen=True)
class ReprCardinality:
    """How many expansions a number has; `count` is set only for FINITE (>= 2)."""

    kind: Cardinality
    count: int | None = None

    def __post_init__(self):
        if self.kind is Cardinality.FINITE:
            if self.count is None or self.count < 2:
                raise ValueError("finite cardinality needs a count >= 2")
        elif self.count is not None:
            raise ValueError(f"{self.kind.value} carries no count")


def classify_cardinality(d: DigitString) -> ReprCardinality:
    """Decide whether the value of d has one, finitely, countably or continuum many expansions.

    The census is decided exactly from the residual graph of the value, whose infinite
    paths are its expansions.  Its states at depth k are f = frac(3**k * x) and f + 1,
    which repeat with the ternary period L of x from its preperiod P on.  So every cycle
    runs through the one or two states at depth P, and M, the length-L path counts
    between them, decides: a state with two closed walks in M^2 is on two cycles, a
    continuum; more paths of length P + 2L than of P + L leave a cycle, countably many;
    else the paths of length P + L are the expansions: one is unique, more finitely many.
    """
    return _census(evaluate(d))[0]


def _census(x) -> tuple[ReprCardinality, Callable[[int, int], list[DigitString]]]:
    """Cardinality of x in [0, 3/2], and `expand`: expand(m, least) lists the expansions of x whose
    canonical preperiod is at most m digits, read from the same walk of the residual graph, and
    refuses m below `least`, the preperiod of the string the caller read x from.  P + L past
    `_LISTED_DIGITS` raises ValueError, from `_walk`."""
    n0, q = _state(x)
    # r -> 3r mod q, of digit 3r // q, is always an edge, so the lower states from depth P make a cycle.
    P, L = _period(n0, q)
    codes = _walk(n0, q, P + L)
    w0, w1 = _counts(codes[:P], int(n0 >= q))  # the paths of length P, to the lower and the upper state
    # M = ((a, b), (c, d)): the length-L paths from the lower or the upper state at depth P to the lower
    # and the upper one, cut at 2.  Short of a continuum each is 0 or 1: a run of upper states is
    # entered from the lower cycle and, short of the whole period, left back to it, so two paths would
    # make two cycles.  Depth P has an upper state exactly when depth P + L has one; with none, the
    # upper row is never read and not counted.
    (a, b), (c, d) = _counts(codes[P:], 0, 2), _counts(codes[P:], 1, 2) if codes[-1] > 2 else (0, 0)
    r0, r1 = w0 or (w1 and c), w1 or (w0 and b)  # the lower and the upper state at depth P are reached
    cycles = {}  # the block of each cycle, by 0 or 1: the lower or the upper states
    if (r0 and a * a + b * c > 1) or (r1 and c * b + d * d > 1):  # two closed walks in M^2
        card = ReprCardinality(Cardinality.CONTINUUM)
    else:
        s0, s1 = a + b, c + d  # the length-L paths out of the lower and out of the upper state
        # the paths of length P + L, and of length P + 2L
        once, twice = w0 * s0 + w1 * s1, w0 * (a * s0 + b * s1) + w1 * (c * s0 + d * s1)
        card = (ReprCardinality(Cardinality.COUNTABLE) if twice > once
                else ReprCardinality(Cardinality.UNIQUE) if once == 1
                else ReprCardinality(Cardinality.FINITE, once))
        # an upper state's cycle never meets a lower state, which would put it beside the lower cycle
        if r0 and a:
            cycles[0] = tuple(code % 3 for code in codes[P:])
        if r1 and d:
            cycles[1] = tuple(code % 3 + 2 for code in codes[P:])

    def expand(m: int, least: int) -> list[DigitString]:
        """Each length-m path that ends on a cycle, spelled as its digits before its final run on
        the cycle, which starts at depth e >= P, and the cycle's block from the state at depth e.

        That is the canonical form.  The block is primitive, as the remainders' period L is least.
        The preperiod does not end with the block's last digit.  The digit of an edge fixes the
        kind of its source: into a lower state it is t from a lower state and 3 from an upper
        one, into an upper state t - 1 from a lower state and t + 2 from an upper one.  So the
        digits that run the block backwards are exactly the steps on the cycle, which stop at e;
        and a period starting before P would make the remainders repeat before P.
        """
        if card.kind is Cardinality.CONTINUUM:
            raise ValueError("continuum many expansions; enumeration refused")
        if m < least:
            raise ValueError("depth must cover the preperiod")
        found = []
        for w, h, e in _paths(n0, q, m):
            if h in cycles:
                e = max(e, P)
                i, per = (e - P) % L, cycles[h]
                found.append(DigitString._spelled(w[:e], per[i:] + per[:i]))
        return sorted(found, key=lambda r: (len(r.preperiod), r.preperiod, r.period))

    return card, expand


def enumerate_representations(d: DigitString, m: int) -> list[DigitString]:
    """All expansions of the value of d whose canonical preperiod is at most m digits.

    Refuses continuum inputs.  Each length-m path of the residual graph that
    ends on a cycle is completed by that cycle's block; results are canonical
    and sorted by preperiod length then digits.
    """
    return _census(evaluate(d))[1](m, len(d.preperiod))
