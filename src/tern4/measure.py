"""Distribution of the random series sum(d_k * 3**-k) with i.i.d. digits in {0,1,2,3}.

Given the digit law (p0, p1, p2, p3), the series defines a random variable
supported on [0, 3/2].  This module classifies its distribution (absolutely
continuous exactly when p1 = p2 = 1/3, otherwise singular with several
sub-kinds), samples it reproducibly, encloses its distribution function via
the self-similarity F(x) = sum_i p_i * F(3x - i), evaluates the characteristic
function as a truncated product with a certified tail bound, and produces the
convolution decompositions (uniform plus two-digit component, and the product
of two two-digit components).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from tern4 import fractal
from tern4.digits import TAIL_SUP

THIRD = Fraction(1, 3)
_SUM_TOL = 1e-12     # accepted drift of sum(p) for inexact inputs
_MATCH_TOL = 1e-9    # tolerance of condition checks for inexact inputs


@dataclass(frozen=True)
class ProbVector:
    """Digit probabilities (p0, p1, p2, p3): each in [0, 1), summing to one.

    Values are stored as exact fractions.  Inputs given as floats or decimal
    strings are marked inexact; condition checks then use a 1e-9 tolerance
    instead of exact equality.
    """

    p0: Fraction
    p1: Fraction
    p2: Fraction
    p3: Fraction
    exact: bool = True

    def __post_init__(self):
        vals = []
        exact = self.exact
        for v in (self.p0, self.p1, self.p2, self.p3):
            if isinstance(v, float):
                exact = False
            vals.append(Fraction(v))
        for v in vals:
            if not 0 <= v < 1:
                raise ValueError(f"digit probability {v} outside [0, 1)")
        total = sum(vals)
        if exact:
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, expected 1")
        elif abs(float(total) - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {float(total)}, expected 1")
        for name, v in zip(("p0", "p1", "p2", "p3"), vals):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def parse(cls, tokens) -> "ProbVector":
        """Four components, each 'a/b' (exact) or a decimal (inexact)."""
        if len(tokens) != 4:
            raise ValueError("expected exactly four probabilities")
        vals, exact = [], True
        for tok in tokens:
            tok = str(tok).strip()
            try:
                vals.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad probability {tok!r}: {exc}") from None
            if "." in tok or "e" in tok.lower():
                exact = False
        return cls(*vals, exact=exact)

    @property
    def probs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p0, self.p1, self.p2, self.p3)

    def matches(self, value, target) -> bool:
        """Condition check: exact equality, or within 1e-9 for inexact vectors."""
        if self.exact:
            return Fraction(value) == Fraction(target)
        return abs(float(value) - float(target)) <= _MATCH_TOL * max(1.0, abs(float(target)))


class DistributionKind(Enum):
    ABSOLUTELY_CONTINUOUS = "absolutely_continuous"
    SINGULAR_CANTOR = "singular_cantor"
    SINGULAR_INCREASING = "singular_increasing"
    SINGULAR_FULL_OVERLAP = "singular_full_overlap"


@dataclass(frozen=True)
class DistributionClass:
    """Classification result; `dimension` is the fractal dimension of the spectrum
    (Cantor kinds) or of the essential support of the density (increasing kind)."""

    kind: DistributionKind
    dimension: float | None = None
    uniform_on: tuple[Fraction, Fraction] | None = None

    @property
    def is_singular(self) -> bool:
        return self.kind is not DistributionKind.ABSOLUTELY_CONTINUOUS


def classify(p: ProbVector) -> DistributionClass:
    """Type of the digit-series distribution.

    Absolutely continuous iff p1 = p2 = 1/3 (with the all-thirds zero patterns
    uniform on [0,1] or [1/2,3/2]).  Otherwise singular: with no zero
    probability the spectrum is all of [0,3/2]; with two zeros it is a
    two-digit Cantor set of dimension log3(2); with one zero among {p1,p2} it
    is the sparse-triple set of dimension log3((3+sqrt5)/2); with one zero
    among {p0,p3} the distribution function is strictly increasing and the
    essential support has the entropy dimension of the three active digits.
    """
    if p.matches(p.p1, THIRD) and p.matches(p.p2, THIRD):
        uniform = None
        if p.matches(p.p3, 0):
            uniform = (Fraction(0), Fraction(1))
        elif p.matches(p.p0, 0):
            uniform = (Fraction(1, 2), Fraction(3, 2))
        return DistributionClass(DistributionKind.ABSOLUTELY_CONTINUOUS, uniform_on=uniform)
    zeros = [i for i, v in enumerate(p.probs) if p.matches(v, 0)]
    if not zeros:
        return DistributionClass(DistributionKind.SINGULAR_FULL_OVERLAP)
    if len(zeros) == 2:
        return DistributionClass(DistributionKind.SINGULAR_CANTOR, dimension=fractal.DIM_TWO_DIGITS)
    if zeros[0] in (1, 2):
        return DistributionClass(DistributionKind.SINGULAR_CANTOR, dimension=fractal.DIM_SPARSE_TRIPLE)
    active = [v for i, v in enumerate(p.probs) if i != zeros[0]]
    return DistributionClass(
        DistributionKind.SINGULAR_INCREASING,
        dimension=fractal.eggleston_dimension(active),
    )


# ---------------------------------------------------------------------------
# sampling

def sample_digit_series(values, weights, count: int, depth: int, seed: int) -> np.ndarray:
    """`count` draws of the truncated series sum(v_k * 3**-k), digits i.i.d. per `weights`.

    Digits are drawn by inverse CDF over the cumulative weights, using the
    seeded numpy generator; fixed (seed, count, depth) reproduces the draws.
    """
    import numpy as np  # imported here so that the rest of tern4 starts without numpy

    if depth < 1 or count < 1:
        raise ValueError("count and depth must be positive")
    w = [float(x) for x in weights]
    if len(w) != len(values) or any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to 1 over the values")
    cum = np.cumsum(w)[:-1]
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cum, rng.random((count, depth)), side="right")
    vals = np.asarray(values, dtype=float)[idx]
    return vals @ (3.0 ** -np.arange(1, depth + 1))


def sample_digits(p: ProbVector, depth: int, seed: int) -> tuple[int, ...]:
    """One sequence of `depth` digits drawn per p (inverse CDF over cumulative p)."""
    import numpy as np

    if depth < 1:
        raise ValueError("depth must be positive")
    cum = np.cumsum([float(v) for v in p.probs])[:-1]
    rng = np.random.default_rng(seed)
    return tuple(int(np.searchsorted(cum, u, side="right")) for u in rng.random(depth))


def sample(p: ProbVector, depth: int, seed: int) -> Fraction:
    """One exact truncated draw sum(d_k * 3**-k); truncation error <= (3/2)*3**-depth."""
    num = 0
    for d in sample_digits(p, depth, seed):
        num = num * 3 + d
    return Fraction(num, 3 ** depth)


def sample_many(p: ProbVector, count: int, depth: int, seed: int) -> np.ndarray:
    """Vector of `count` truncated draws as floats, one seeded stream."""
    return sample_digit_series((0, 1, 2, 3), p.probs, count, depth, seed)


# ---------------------------------------------------------------------------
# distribution function

_CDF_DEPTH_CAP = 60


def cdf(p: ProbVector, x, tol: float) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of F(x) = P(series <= x), of width <= tol when reachable.

    Uses F(x) = sum_i p_i * F(3x - i) with F = 0 left of 0 and F = 1 right of
    3/2; branches unresolved at the depth cutoff contribute [0,1] and the
    cutoff deepens (up to a hard cap of 60) until the enclosure is narrow
    enough.  At the cap the possibly wider enclosure is returned as is.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    x = Fraction(x)
    probs = p.probs
    zero, one = Fraction(0), Fraction(1)

    def enclose(y: Fraction, d: int, memo: dict) -> tuple[Fraction, Fraction]:
        if y <= 0:
            return zero, zero
        if y >= TAIL_SUP:
            return one, one
        if d == 0:
            return zero, one
        key = (y, d)
        got = memo.get(key)
        if got is None:
            lo = hi = zero
            for i, pi in enumerate(probs):
                if pi:
                    l, h = enclose(3 * y - i, d - 1, memo)
                    lo += pi * l
                    hi += pi * h
            got = memo[key] = (lo, hi)
        return got

    depth = 15
    while True:
        lo, hi = enclose(x, depth, {})
        if hi - lo <= tol or depth >= _CDF_DEPTH_CAP:
            return lo, hi
        depth = min(2 * depth, _CDF_DEPTH_CAP)


# ---------------------------------------------------------------------------
# characteristic function

_FLOAT_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class CharfnResult:
    """Truncated-product value and a certified bound on |true - value|."""

    value: complex
    tail_bound: float


def phi_factor(p: ProbVector, t: float, k: int) -> complex:
    """Factor k of the characteristic function: sum_m p_m * exp(i*m*t*3**-k)."""
    w = t * 3.0 ** -k
    return sum(float(pm) * cmath.exp(1j * m * w) for m, pm in enumerate(p.probs))


def charfn(p: ProbVector, t: float, K: int) -> CharfnResult:
    """Characteristic function at t as the product of the first K digit factors.

    The bound on |true - value| has three parts.

    - Truncation: the omitted factors differ from 1 by at most 3|t|*3**-k
      each, so their product differs from 1 by at most expm1(1.5|t|*3**-K).
    - Phase rounding: factor k evaluates exp(i*m*w) at the float
      w = t * 3.0**-k and the float m*w.  The power is within one ulp of
      3**-k and each product rounds once, so the phase m*w carries a relative
      error of at most 2*eps + eps**2 and an absolute one of at most
      m*|t|*3**-k*(2*eps + eps**2), with m <= 3.  Since |exp(ia) - exp(ib)|
      <= |a - b|, factor k moves by at most 6.01*eps*|t|*3**-k.  The true
      factors lie in the unit disc and the computed ones within a few ulps
      of it, so the errors of the K factors add up in the product; 8 in
      place of 6.01 leaves room for those ulps: 8*eps*|t|*sum_{k<=K} 3**-k.
    - Arithmetic rounding: each factor and each product step adds a few ulps
      of a number at most 1 in modulus; 16*K*eps covers them.

    The first two grow with |t|; with K = 40 the phase part is the largest
    from about |t| = 160 on.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0:
        return CharfnResult(1 + 0j, 0.0)
    try:
        growth = math.expm1(1.5 * abs(t) * 3.0 ** -K)
    except OverflowError:
        raise ValueError(f"|t| = {abs(t):g} is too large to bound with K = {K} factors") from None
    value = 1 + 0j
    for k in range(1, K + 1):
        value *= phi_factor(p, t, k)
    truncation = abs(value) * growth
    phase = 8 * _FLOAT_EPS * abs(t) * (1 - 3.0 ** -K) / 2
    rounding = 16 * K * _FLOAT_EPS
    return CharfnResult(value, truncation + phase + rounding)


def limsup_lower_bound(p: ProbVector, N: int, K: int = 40) -> float:
    """Certified lower bound for limsup |charfn| as |t| -> infinity.

    The value at 2*pi*n repeats along t -> 3t, so any certified |value| there
    is a lower bound; the best over n = 1..N is returned, clamped at 0.
    """
    if N < 1:
        raise ValueError("N must be positive")
    best = 0.0
    for n in range(1, N + 1):
        r = charfn(p, 2 * math.pi * n, K)
        best = max(best, abs(r.value) - r.tail_bound)
    return max(0.0, best)


# ---------------------------------------------------------------------------
# convolution decompositions

def decompose_uniform_plus_cantor(p: ProbVector) -> Fraction:
    """Weight x = 3*p0 of the two-digit component when p1 = p2 = 1/3.

    The series then equals (in law) the sum of an independent uniform variable
    on [0,1] (digits 0,1,2 equally likely) and a {0,1}-digit series whose
    digit 0 has probability x.
    """
    if not (p.matches(p.p1, THIRD) and p.matches(p.p2, THIRD)):
        raise ValueError("decomposition needs p1 = p2 = 1/3")
    return 3 * p.p0


def decompose_cantor_pair(p: ProbVector) -> tuple[Fraction, Fraction]:
    """Parameters (u, v) of the two two-digit components when p0 = (p0+p1)(p0+p2).

    The series then equals (in law) the independent sum of a {0,2}-digit
    series with digit-0 probability u = p0+p1 and a {0,1}-digit series with
    digit-0 probability v = p0+p2; the product law reproduces p.
    """
    u, v = p.p0 + p.p1, p.p0 + p.p2
    if not p.matches(p.p0, u * v):
        raise ValueError("decomposition needs p0 = (p0+p1)(p0+p2)")
    return u, v


def eta_params(q0) -> ProbVector:
    """Digit law induced by grouping a Bernoulli bit stream in threes.

    Bits are 1 with probability 1 - q0; three consecutive bits sum to one
    digit, so the digit law is binomial: (q0^3, 3q0^2 q1, 3q0 q1^2, q1^3).
    The result is always singular: its middle probabilities cannot both be
    1/3.
    """
    exact = not isinstance(q0, float)
    q = Fraction(q0)
    if not 0 < q < 1:
        raise ValueError("q0 must lie strictly between 0 and 1")
    r = 1 - q
    pv = ProbVector(q ** 3, 3 * q * q * r, 3 * q * r * r, r ** 3, exact=exact)
    assert classify(pv).is_singular
    return pv
