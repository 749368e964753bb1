"""The governing series 1/3 + 1/3 + 1/3 + 1/9 + ... (each power of 3 three times).

Its total is 3/2 and every term is at most the remainder after it, so the set
of subsums sum(eps_n * u_n), eps_n in {0,1}, fills the whole interval
[0, 3/2].  Grouping selector bits in threes turns a subsum into a digit word
of the redundant base-3 system with the same value, which is the bridge
between Bernoulli bit streams and digit expansions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from tern4.digits import DigitString, _largest, _state, _walk, word_value


def series_term(n: int) -> Fraction:
    """Term u_n = 3**-ceil(n/3)."""
    if n < 1:
        raise ValueError("terms are indexed from 1")
    return Fraction(1, 3 ** ((n + 2) // 3))


def series_remainder(n: int) -> Fraction:
    """Remainder r_n = sum of u_k for k > n (r_0 = 3/2)."""
    if n < 0:
        raise ValueError("remainder index must be non-negative")
    q, r = divmod(n, 3)
    return Fraction(9 - 2 * r, 2) / 3 ** (q + 1)


def kakeya_check(n_max: int) -> bool:
    """True iff u_n <= r_n for all n <= n_max (the full-interval criterion).

    Both sides shrink by 3 when n grows by 3: u_{n+3} = 3**-(ceil(n/3) + 1) = u_n / 3, and the
    terms after n + 3 are those after n, each divided by 3, so r_{n+3} = r_n / 3.  So u_n <= r_n
    holds for every n exactly when it holds for n = 1, 2, 3, and only n <= min(n_max, 3) are
    compared."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return all(series_term(n) <= series_remainder(n) for n in range(1, min(n_max, 3) + 1))


def _checked_bits(bits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(map(int, bits))
    if not {0, 1}.issuperset(out):
        raise ValueError("selector bits must be 0 or 1")
    return out


def subsum(bits: Sequence[int]) -> Fraction:
    """Exact subsum sum(bit_n * u_n): the value of the digit word of the groups of three terms.

    The terms of group k (bits 3k-2, 3k-1, 3k; the last group may be short)
    are each 3**-k, so the subsum is sum_k d_k 3**-k with d_k the number of
    ones in group k.
    """
    bs = _checked_bits(bits)
    return word_value([sum(bs[i:i + 3]) for i in range(0, len(bs), 3)])


def greedy_approximate(x, n_max: int) -> tuple[int, ...]:
    """Greedy selector hitting x from below: take u_n whenever the sum stays <= x.

    The tie rule is <=, so finite subsums are attained exactly; otherwise the
    gap is at most r_{n_max}.  This is the largest path y -> 3y - c of the
    residual graph (y = r/b for x = a/b), read from its remainder walk: the
    g <= 3 terms of group k are 3**-k each, so from the residual y of the
    first k - 1 groups the greedy takes d = min(g, floor(3y)) of them, then
    g - d zeros.  That is min(g, c) for the path's digit c = min(3, floor(3y)),
    and 3y - c is the next residual.
    """
    a, b = _state(x)
    if n_max < 1:
        raise ValueError("n_max must be positive")
    bits: list[int] = []
    for n, c in zip(range(0, n_max, 3), _largest(_walk(a, b, -(-n_max // 3)), a >= b)):
        g = min(3, n_max - n)
        d = min(g, c)
        bits += (1,) * d + (0,) * (g - d)
    return tuple(bits)


def eta_subsum_digits(bits: Sequence[int]) -> tuple[int, ...]:
    """Pack selector bits in threes into digits: d_k = bits[3k-2] + bits[3k-1] + bits[3k].

    The subsum of the bits equals the base-3 value of the digit word (followed
    by repeating 0), since the three terms of group k are each 3**-k.
    """
    bs = _checked_bits(bits)
    if len(bs) % 3 != 0:
        raise ValueError("selector length must be a multiple of 3")
    return tuple(bs[i] + bs[i + 1] + bs[i + 2] for i in range(0, len(bs), 3))


def digits_of_subsum(bits: Sequence[int]) -> DigitString:
    """The digit string (word followed by repeating 0) with the subsum's value."""
    return DigitString(eta_subsum_digits(bits), (0,))
