"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark was built on changes speed by itself: the same round
ran at 5.3 rounds/s on a quiet host and 2.1 rounds/s two hours later, and in
between it switched between two speeds about 1.4x apart every few seconds
(README.md).  The workload process therefore runs `reference()` a fixed
number of times after every round, with the garbage collector off, and
`round_cost_ref` divides the mean time of a round by the mean time of one
pass.  Both share the host's speed at the time, so the ratio keeps what the
program costs and drops most of what the host did.

The kernel does the kinds of work tern4 does, in plain Python and without
calling tern4: int arithmetic, hashing into a set and a dict, and `Fraction`
sums.  It never changes with the program, so a slower or faster tern4 moves
the ratio by the same share as its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

PASSES = 6   # passes after each round: about 25 ms, a tenth to a twentieth of a run


def reference() -> int:
    """One pass of fixed work; returns a checksum so nothing is optimised away."""
    seen = set()
    memo = {}
    acc = 0
    for i in range(12000):
        acc = (acc * 31 + i * i) % 1000003
        seen.add(acc & 4095)
        memo[i & 511] = acc
    total = Fraction(0)
    for k in range(1, 64):
        total += Fraction(k % 5 + 1, 3 * k + 1)
    return acc + len(seen) + len(memo) + total.denominator % 7


def timed_passes(passes: int = PASSES) -> float:
    """Wall time of `passes` passes, with the collector off so the program's heap adds nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(passes):
            reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
