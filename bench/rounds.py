"""Seeded inputs and the fixed make-up of one round of each workload.

One operation of the benchmark is one round: the workload's whole mix of
calls, made once each in the order given here.  The four mixes are named
after what they exercise (census, cdf_grid, spectral, dimension).  Every round of a run is the
same list, so round latencies have a single mode.

A call is a tuple ``(kind, target, args)``:

* ``("cli", subcommand, argv)``: ``tern4.cli.main(argv)`` with stdout captured;
* ``("api", "module.function", args)``: a direct call with plain-data args
  (digit values as ``"a/b"`` strings, laws as four probability strings).

The workload process builds these lists before its first call into tern4, so
this module and `oracles` import nothing but ``fractions``, which tern4
imports itself.
"""

from __future__ import annotations

from oracles import digit_value, parse_text

#: Each workload runs two of the four mixes back to back in every round.
#: Each pairing keeps a mechanism apart from the workload that bypasses it:
#: the CDF grid (shared residual states) and the CDF at float points (none
#: shared) sit in different workloads, as do exact `Fraction` work that never
#: needs numpy and float work that does.  Two workloads instead of four give
#: each run twice the time, which this host's speed swings need (README.md).
WORKLOADS = {
    "census_grid": ("census", "cdf_grid"),
    "spectral_dimension": ("spectral", "dimension"),
}

#: the four digit laws of the measure workloads, in the paper's four regimes
LAWS = {
    "uniform": ("1/4", "1/4", "1/4", "1/4"),        # singular, full overlap
    "abs_continuous": ("1/6", "1/3", "1/3", "1/6"),  # p1 = p2 = 1/3
    "increasing": ("1/2", "1/4", "1/4", "0"),       # singular, strictly increasing F
    "cantor": ("1/2", "0", "0", "1/2"),             # singular, two-digit Cantor law
}

CENSUS_BLOCK_STRINGS = 16      # {1,2}-block strings: finite or unique census
CENSUS_COUNTABLE = 3
CENSUS_CONTINUUM = 3
CENSUS_FIXED = ("(0)", "(3)")  # the two endpoints, the only bare unique strings
COUNT_DEPTH = 24               # depth of count_expansion_prefixes
LIST_DEPTH = 7                 # depth of admissible_prefixes

CDF_GRID = ("--grid", "51", "--tol", "1e-4")
CDF_TOL = 1e-4
CHARFN_GRID = ("--tmax", "50", "--step", "0.5", "--K", "40")
LBOUND_N = 10
SAMPLE_COUNT = 10_000
SAMPLE_DEPTH = 40
SPECTRAL_CDF_POINTS = 16

#: (digit set, level) of the `tern4 dimension` calls; levels sit near the
#: library's limits (14 for three or four digits, 20 for two) while one round
#: stays near 0.2 s
DIMENSION_CALLS = (("0123", 11), ("013", 12), ("023", 12), ("12", 16), ("03", 16))
HEX_LEVEL = 15

_REWRITE_PAIRS = {(0, 3), (1, 0), (1, 3), (2, 0), (2, 3), (3, 0)}


class SplitMix64:
    """Small seeded generator, so inputs do not depend on the `random` module."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def uniform(self) -> float:
        return (self.next() >> 11) / float(1 << 53)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def _words(alphabet, length):
    words = [()]
    for _ in range(length):
        words = [w + (c,) for w in words for c in alphabet]
    return words


def _primitive(word) -> bool:
    n = len(word)
    return all(n % d or word != word[:d] * (n // d) for d in range(1, n))


def _cyclic_rewrite(word) -> bool:
    return any((word[j], word[(j + 1) % len(word)]) in _REWRITE_PAIRS for j in range(len(word)))


#: primitive repeating blocks over {1,2} using both digits, length 2..4 (20 blocks)
BLOCKS_12 = tuple(w for n in (2, 3, 4) for w in _words((1, 2), n) if _primitive(w) and len(set(w)) == 2)
#: primitive repeating blocks of length 2..4 with a rewritable cyclic pair
BLOCKS_CONTINUUM = tuple(w for n in (2, 3, 4) for w in _words(range(4), n) if _primitive(w) and _cyclic_rewrite(w))


def _text(pre, per) -> str:
    return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"


def _has_rewrite(word) -> bool:
    return any(pair in _REWRITE_PAIRS for pair in zip(word, word[1:]))


def census_strings(rng: SplitMix64) -> list[str]:
    """Two dozen digit strings covering all four cardinality classes.

    All but two {1,2}-block strings get a preperiod with a rewritable pair, so
    their value has two or more expansions, finitely many since the block has
    no rewritable pair: most strings are finite cases.  Preperiod lengths are
    stratified (each slot has its own), so the cost of a round depends little
    on the seed.
    """
    out = list(CENSUS_FIXED)
    for i in range(CENSUS_BLOCK_STRINGS):
        while True:
            pre = tuple(rng.below(4) for _ in range(1 if i < 2 else 2 + i % 3))
            if i < 2 or _has_rewrite(pre):
                break
        out.append(_text(pre, rng.choice(BLOCKS_12)))
    for i in range(CENSUS_COUNTABLE):
        d = rng.below(4)
        pre = tuple(rng.below(4) for _ in range(i % 4 + 1))
        if pre[-1] == d:  # keep the preperiod: 0(0) or 3(3) would be unique
            pre = pre[:-1] + ((d + 1 + rng.below(3)) % 4,)
        out.append(_text(pre, (d,)))
    for i in range(CENSUS_CONTINUUM):
        pre = tuple(rng.below(4) for _ in range(i % 4 + 1))
        out.append(_text(pre, rng.choice(BLOCKS_CONTINUUM)))
    return rng.shuffle(out)


def spectral_points(rng: SplitMix64) -> list[float]:
    """One float in each sixteenth of [0, 3/2]: denominators are powers of 2."""
    width = 1.5 / SPECTRAL_CDF_POINTS
    return [(j + rng.uniform()) * width for j in range(SPECTRAL_CDF_POINTS)]


def census_calls(rng: SplitMix64) -> list[tuple]:
    calls = []
    for s in census_strings(rng):
        x = str(digit_value(*parse_text(s)))
        calls += [
            ("cli", "repr", ["repr", s]),
            ("cli", "levelset", ["levelset", s]),
            ("api", "digits.count_expansion_prefixes", (x, COUNT_DEPTH)),
            ("api", "digits.admissible_prefixes", (x, LIST_DEPTH)),
            ("cli", "series", ["series", "--greedy", x]),
        ]
    return calls


def cdf_grid_calls(rng: SplitMix64) -> list[tuple]:
    return [("cli", "cdf", ["cdf", *LAWS[name], *CDF_GRID]) for name in rng.shuffle(list(LAWS))]


def spectral_calls(rng: SplitMix64) -> list[tuple]:
    sample_seed = rng.below(1 << 32)
    points = spectral_points(rng)
    calls = []
    for name in rng.shuffle(list(LAWS)):
        law = LAWS[name]
        calls += [
            ("cli", "classify", ["classify", *law]),
            ("cli", "charfn", ["charfn", *law, *CHARFN_GRID]),
            ("cli", "lbound", ["lbound", *law, "--N", str(LBOUND_N)]),
            ("api", "measure.sample_many", (law, SAMPLE_COUNT, SAMPLE_DEPTH, sample_seed)),
        ]
        calls += [("api", "measure.cdf", (law, x, CDF_TOL)) for x in points]
    return calls


def dimension_calls(rng: SplitMix64) -> list[tuple]:
    calls = [("cli", "dimension", ["dimension", "--digits", ds, "--nmax", str(n)]) for ds, n in DIMENSION_CALLS]
    calls.append(("api", "fractal.continuum_levelset_dimension", (HEX_LEVEL,)))
    return rng.shuffle(calls)


MIXES = {"census": census_calls, "cdf_grid": cdf_grid_calls,
         "spectral": spectral_calls, "dimension": dimension_calls}


def build_round(workload: str, seed: int) -> list[tuple]:
    """The ordered calls of one round of `workload` for `seed`: its two mixes, one after the other."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = SplitMix64(seed)
    return [call for mix in WORKLOADS[workload] for call in MIXES[mix](rng)]
