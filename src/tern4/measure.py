"""Distribution of the random series sum(d_k * 3**-k) with i.i.d. digits in {0,1,2,3}.

Given the digit law (p0, p1, p2, p3), the series defines a random variable
supported on [0, 3/2].  This module classifies its distribution (absolutely
continuous exactly when p1 = p2 = 1/3, otherwise singular with several
sub-kinds), samples it reproducibly, brackets its distribution function
(exactly at rationals) in one pass over the ternary digits of x, evaluates
the characteristic function as a truncated product with a certified tail
bound, and produces the convolution decompositions.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from tern4 import fractal
from tern4.digits import _fraction, _inexact, _sums_to_one, word_value

THIRD = Fraction(1, 3)
_MATCH_TOL = 1e-9    # tolerance of condition checks for inexact inputs


@dataclass(frozen=True)
class ProbVector:
    """Digit probabilities (p0, p1, p2, p3): each in [0, 1), summing to one.

    Values are stored as exact fractions, converted by `digits._fraction`.
    A float or decimal text ('0.25') is inexact, and so is every value when
    exact=False; condition checks then use a 1e-9 tolerance instead of exact
    equality.
    """

    p0: Fraction
    p1: Fraction
    p2: Fraction
    p3: Fraction
    exact: bool = True

    def __post_init__(self):
        given = (self.p0, self.p1, self.p2, self.p3)
        vals = [_fraction(v) for v in given]
        exact = self.exact and not any(map(_inexact, given))
        for v in vals:
            if not 0 <= v < 1:
                raise ValueError(f"digit probability {v} outside [0, 1)")
        _sums_to_one(vals, exact, "probabilities")
        for name, v in zip(("p0", "p1", "p2", "p3"), vals):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def parse(cls, tokens) -> "ProbVector":
        """Four components, each text 'a/b' (exact) or a decimal (inexact), as `ProbVector`
        reads them: ASCII, with no whitespace."""
        if len(tokens) != 4:
            raise ValueError("expected exactly four probabilities")
        return cls(*map(str, tokens))

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
    uniform on [0,1] or [1/2,3/2]).  Otherwise singular, by the support: the
    digits whose probability is not 0, read under the 1e-9 tolerance when p
    is inexact.  With all four digits the spectrum is all of [0,3/2]; with
    three consecutive ones, (0,1,2) or (1,2,3), the distribution function is
    strictly increasing and the essential support has the entropy dimension
    of their probabilities, rescaled to sum to one; any other support spells
    a Cantor set of dimension fractal.dimension_target(support).
    """
    if p.matches(p.p1, THIRD) and p.matches(p.p2, THIRD):
        uniform = None
        if p.matches(p.p3, 0):
            uniform = (Fraction(0), Fraction(1))
        elif p.matches(p.p0, 0):
            uniform = (Fraction(1, 2), Fraction(3, 2))
        return DistributionClass(DistributionKind.ABSOLUTELY_CONTINUOUS, uniform_on=uniform)
    support = tuple(i for i, v in enumerate(p.probs) if not p.matches(v, 0))
    if len(support) == 4:
        return DistributionClass(DistributionKind.SINGULAR_FULL_OVERLAP)
    if support in ((0, 1, 2), (1, 2, 3)):
        active = [p.probs[i] for i in support]
        total = sum(active)
        return DistributionClass(DistributionKind.SINGULAR_INCREASING,
                                 dimension=fractal.eggleston_dimension([v / total for v in active]))
    return DistributionClass(DistributionKind.SINGULAR_CANTOR, dimension=fractal.dimension_target(support))


# ---------------------------------------------------------------------------
# sampling

_BLOCK = 8192  # entries per product block of draws and per charfn tile: the buffers stay in cache


def _block_rows(depth: int) -> tuple[int, int]:
    """Rows of one product block and of one draw span at this depth.

    A block has a multiple of 8 rows, as many as fit in _BLOCK entries but
    at least 8; a span, the rows drawn at once, has as many whole blocks as
    fit in 4 * _BLOCK entries, at least one: four at most depths.
    """
    rows = max(8, _BLOCK // depth // 8 * 8)
    return rows, rows * max(1, 4 * _BLOCK // (rows * depth))


def _draw_blocks(weights, count: int, depth: int, seed: int):
    """Yield (start, block): rows start, start + 1, ... of `count` x `depth` i.i.d. digits, as floats.

    Each digit is an inverse CDF of a seeded uniform: the number of cumulative
    weights of the law (p0, p1, p2, p3) at or below it, which is
    searchsorted(..., side="right"), ties included.  One reused buffer holds
    the uniforms of a span of whole blocks (`_block_rows`: about 4 * _BLOCK
    uniforms), filled in turn from one stream, so the spans are the rows of a
    single (count, depth) draw.  The span's digits are counted in place in
    one reused uint8 buffer, with one comparison per distinct cumulative
    weight below 1: the first writes the buffer itself, a repeated weight
    counts its multiplicity, and a weight of 1 or more is never reached by a
    uniform in [0, 1).  Each block of the span is then yielded as a fresh
    float array.

    A block's product with a vector rounds as the same rows of the whole
    array's product would, computed on one thread: every block but the last
    has a multiple of 8 rows, so BLAS groups rows across the blocks as it
    does across the whole array; the last block is never a lone row (numpy
    takes a one-row product as a dot product, which sums differently); and a
    block of about `_BLOCK` entries is too small for BLAS to split across
    threads.  Depths past _BLOCK / 8 take blocks of 8 rows.
    """
    import numpy as np  # imported here so that the rest of tern4 starts without numpy

    if depth < 1 or count < 1:
        raise ValueError("count and depth must be positive")
    cum = np.cumsum([float(x) for x in weights])[:-1].tolist()
    steps = [(c, cum.count(c)) for c in sorted(set(cum)) if c < 1]  # (weight, multiplicity)
    rng = np.random.default_rng(seed)
    rows, span = _block_rows(depth)
    u = np.empty((min(count, span + 1), depth))
    digits = np.zeros(u.shape, dtype=np.uint8)  # stays 0 when no weight is below 1
    hits = np.empty(u.shape, dtype=np.uint8)
    start = 0
    while start < count:
        n = span if count - start > span + 1 else count - start  # a lone last row joins the last span
        ub, db = u[:n], digits[:n]
        rng.random(out=ub)
        for i, (c, times) in enumerate(steps):
            hb = hits[:n] if i else db  # the first comparison writes the digits themselves
            np.greater_equal(ub, c, out=hb.view(bool))
            if times > 1:
                hb *= times
            if i:
                db += hb
        b = 0
        while b < n:
            m = rows if n - b > rows + 1 else n - b  # and the last block
            yield start + b, db[b:b + m].astype(float)
            b += m
        start += n


def sample(p: ProbVector, depth: int, seed: int) -> Fraction:
    """One exact truncated draw sum(d_k * 3**-k); truncation error <= (3/2)*3**-depth."""
    _, block = next(_draw_blocks(p.probs, 1, depth, seed))
    return word_value([int(d) for d in block[0]])


def sample_many(p: ProbVector, count: int, depth: int, seed: int) -> np.ndarray:
    """Vector of `count` truncated draws sum(d_k * 3**-k) as floats, one seeded stream."""
    import numpy as np

    powers = 3.0 ** -np.arange(1, depth + 1)
    out = np.empty(max(count, 0))  # a count below 1 is refused by the draw
    for start, block in _draw_blocks(p.probs, count, depth, seed):
        np.matmul(block, powers, out=out[start:start + len(block)])
    return out


# ---------------------------------------------------------------------------
# distribution function

def cdf(p: ProbVector, x, tol: float) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of F(x) = P(series <= x) with hi - lo <= tol; lo == hi when exact.

    F = 0 up to 0, F = 1 from 3/2 on, and F(y) = sum_c p_c F(3y - c) (de Rham).
    For f in [0, 1) and its next ternary digit t = floor(3f), V(f) = (F(f),
    F(f + 1)) obeys V(f) = A_t V(3f - t) + b_t, with A_t = [[p_t, p_{t-1}],
    [p_{t+3}, p_{t+2}]], b_t = (sum_{c<=t-2} p_c, sum_{c<=t+1} p_c), p_c = 0
    outside 0..3, and F(1) = (p0 + p1) / (1 - p2).  For x = i + f, one pass over
    the digits of f = n/q keeps r >= 0 and s with F(x) = r . V(f_k) + s after k
    digits; F increases, so lo = s + r1 F(1) and hi = s + r0 F(1) + r1 are F at
    the two depth-k ternary rationals around x.  A repeated remainder closes a
    period, whose maps give V = P V + beta there; the rows of [P | beta] are the
    same digit walk from that remainder, started at the unit rows (1, 0, 0) and
    (0, 1, 0).  Cramer's rule then gives lo = hi = F(x).
    The pass ends, as all p_c < 1 make F continuous (hi - lo tends to 0) and a
    rational's remainder repeats within q steps.  Integer arithmetic: no rounding.
    This is `cdf_grid` at the single point x.
    """
    return next(cdf_grid(p, (x,), tol))


def cdf_grid(p: ProbVector, xs, tol: float):
    """Iterator of cdf(p, x, tol) for each x of `xs` in turn, bit for bit: the integers of each
    x, read by `digits._fraction`, go through the one `_cdf_point` pass made for the grid, and
    the integers it returns become Fractions here.  A bad tolerance raises ValueError at once,
    and an x that cdf refuses raises ValueError when the grid reaches it."""
    point = _cdf_point(p, tol)

    def fractions(x) -> tuple[Fraction, Fraction]:
        x = _fraction(x)
        lo, hi, den = point(x.numerator, x.denominator)
        return (Fraction(lo, den),) * 2 if lo == hi else (Fraction(lo, den), Fraction(hi, den))

    return map(fractions, xs)


def _cdf_point(p: ProbVector, tol: float):
    """point(n, q) -> (lo, hi, den), cdf(p, n/q, tol) as (lo/den, hi/den): its digit pass and
    period solve in integers.  D, the integer weights D * p_c, their partial sums, F(1) and the
    integers of tol are made once, and a bad tolerance raises ValueError at once.  The rows of a
    period's [P | beta] are the walk from the repeated remainder, started at the unit rows.  q > 0
    need not be reduced: with g = gcd(n, q) each remainder is g times the reduced one, so the
    digits, the repeat positions and the returned integers are the same."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    tol_num, tol_den = (tol if type(tol) is float else Fraction(tol)).as_integer_ratio()
    D = math.lcm(*(v.denominator for v in p.probs))
    w = [0] + [v.numerator * (D // v.denominator) for v in p.probs] + [0, 0]  # w[c + 1] = D * p_c
    below = [sum(w[:j]) for j in range(len(w))]  # below[t] = D * sum_{c <= t-2} p_c
    f1_num, f1_den = w[1] + w[2], D - w[3]  # F(1), and 1 - F(1) = w[4] / f1_den

    def walk(n: int, q: int, r0: int, r1: int, s: int, den: int, tol_num: int):
        """Read the digits of n/q into (r0, r1, s) -> D (r A_t, s + r . b_t) and den -> D den, until the
        width (hi - lo) * den meets tol_num / tol_den (then m = None) or a remainder m comes back."""
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

    def point(n: int, q: int) -> tuple[int, int, int]:
        if n <= 0:
            return 0, 0, 1
        if 2 * n >= 3 * q:  # x >= 3/2
            return 1, 1, 1
        i, n = divmod(n, q)
        # after k digits F(x) = (r0 F(n/q) + r1 F(n/q + 1) + s) / D**k, and den = f1_den * D**k
        r0, r1, s, den, m = walk(n, q, 1 - i, i, 0, f1_den, tol_num)
        if m is None:
            lo = s * f1_den + r1 * f1_num
            return lo, lo + r0 * f1_num + r1 * w[4], den
        # m came back after E = D**L: V(m/q) = (P V(m/q) + beta) / E, the rows walked from m
        a, b, beta0, E, _ = walk(m, q, 1, 0, 0, 1, -1)  # a width >= 0 never meets tol -1
        c, d, beta1, _, _ = walk(m, q, 0, 1, 0, 1, -1)
        det = (E - a) * (E - d) - b * c  # of E I - P
        v0 = beta0 * (E - d) + b * beta1  # V(m/q) = (v0, v1) / det
        v1 = beta1 * (E - a) + c * beta0
        value = r0 * v0 + r1 * v1 + s * det
        return value, value, den // f1_den * det

    return point


# ---------------------------------------------------------------------------
# characteristic function

_FLOAT_EPS = sys.float_info.epsilon
_NARROW = 16  # a chunk of fewer t's multiplies in Python floats: numpy's per-call cost outweighs its rows


@dataclass(frozen=True)
class CharfnResult:
    """Truncated-product value and a certified bound on |true - value|."""

    value: complex
    tail_bound: float


def charfn(p: ProbVector, t: float, K: int) -> CharfnResult:
    """Characteristic function at t as the product of the first K digit factors.

    Factor k is P(z) = sum_m p_m z**m at z = exp(i*t*3**-k), evaluated with
    one cos and one sin, then Horner.  The loop runs in real and imaginary
    float parts, with the float operations of the complex products and sums
    (a float p_m is the complex (p_m, 0), whose zero terms can change only
    the sign of a zero), so it rounds as complex arithmetic does and the
    analysis below holds for it.  This is `charfn_grid` at the single t: a
    numpy kernel over tiles of k x t that keeps the real and imaginary parts
    in separate float64 arrays, as numpy's complex128 multiply fuses its
    products and would round differently.  The bound on |true - value| has
    three parts; eps is the machine epsilon.

    - Truncation: the omitted factors differ from 1 by at most 3|t|*3**-k
      each, so their product differs from 1 by at most expm1(1.5|t|*3**-K).
    - Phase rounding: the float w = t * 3.0**-k has a relative error of at
      most 2*eps + eps**2 (the power is within one ulp of 3**-k and the
      product rounds once), so exp(iw) is within 2.01*eps*|t|*3**-k of the
      true z.  On the disc |z| <= 1 + 2*eps, |P'(z)| <= sum_m m p_m
      (1 + 2*eps)**2 <= 3.01, so the factor moves by at most
      6.05*eps*|t|*3**-k.  The true factors lie in the unit disc and the
      computed ones within a few ulps of it, so the errors of the K factors
      add up in the product; 8 in place of 6.05 leaves room for those ulps:
      8*eps*|t|*sum_{k<=K} 3**-k.
    - Arithmetic rounding, per factor: cos and sin are each within one ulp,
      at most eps (np.cos and np.sin, which the tests check bit for bit
      against math.cos and math.sin), so the computed z is within
      sqrt(2)*eps of exp(iw), which P' carries into the factor as at most
      4.3*eps; rounding p to floats adds 0.51*eps; Horner's three complex
      products (each within sqrt(5)*eps/2 times the product of the moduli,
      which stay below 1 + 7*eps) and three additions (eps/2 of the real
      part each) add at most 4.9*eps; and the step of the running product
      adds 1.12*eps.  That is under 11*eps per factor, and 16*K*eps covers
      it.

    The first two grow with |t|; with K = 40 the phase part is the largest
    from about |t| = 160 on.
    """
    return next(charfn_grid(p, (t,), K))


def truncation_growth(t: float, K: int) -> float:
    """expm1(1.5|t|*3**-K), which bounds the omitted factors of charfn(p, t, K).

    Raises ValueError for the t that charfn refuses: one that is not finite,
    or one so large that the bound overflows.  The bound grows with |t|, so
    the largest t of a grid decides for all of them.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    try:
        return math.expm1(1.5 * abs(t) * 3.0 ** -K)
    except OverflowError:
        raise ValueError(f"|t| = {abs(t):g} is too large to bound with K = {K} factors") from None


def charfn_grid(p: ProbVector, ts, K: int):
    """Iterator of charfn(p, t, K) for each t of `ts` in turn, bit for bit.

    The t's are read lazily, at most _BLOCK / 8 at a time, and each is
    checked by `truncation_growth` as it is read.  A chunk of n t's is
    evaluated in tiles of k x t, _BLOCK // n powers 3.0**-k (Python's float
    power, which np.power need not match) by the n t's, so no array holds
    more than _BLOCK entries, whatever K and the length of the grid: each
    tile takes w = s*t, np.cos and np.sin, and the three Horner steps at
    once, and the running product then takes the tile's factors row by row
    down k: as numpy rows of n entries, or, in a chunk of fewer than
    _NARROW t's, where numpy's per-call cost would outweigh the row, down
    each t's column of the tile in Python floats.  Every step is the float
    operation of charfn's loop on separate real and imaginary float64
    arrays or Python floats, in the same order; numpy's complex128
    multiply fuses the products (FMA) and rounds differently, and np.prod
    would reorder them.  The values, the t == 0 case and the bounds are
    finished per t in Python.  charfn's bound takes cos and sin within one
    ulp: the tests hold this kernel bit for bit to a scalar loop on math.cos
    and math.sin, which checks that premise for np.cos and np.sin.

    A bad K raises ValueError at once, and a t that charfn refuses raises
    ValueError when the grid reaches it, after the results of the t's
    before it.
    """
    if K < 1:
        raise ValueError("K must be positive")
    import numpy as np  # imported here so that the rest of tern4 starts without numpy

    p0, p1, p2, p3 = (float(v) for v in p.probs)
    tail = 3.0 ** -K
    rounding = 16 * K * _FLOAT_EPS
    width = _BLOCK // 8  # t's per chunk
    it = iter(ts)

    def products(chunk) -> tuple[list, list]:
        """Real and imaginary parts of the truncated products at the t's of `chunk`."""
        t = np.array([float(x) for x in chunk])
        n = len(t)
        narrow = n < _NARROW
        vr, vi = ([1.0] * n, [0.0] * n) if narrow else (np.ones(n), np.zeros(n))
        rows = _BLOCK // n
        for k0 in range(1, K + 1, rows):  # the tile of factors k0 .. k0 + rows - 1
            s = np.array([3.0 ** -k for k in range(k0, min(k0 + rows, K + 1))])
            w = s[:, None] * t
            x, y = np.cos(w), np.sin(w)
            ar, ai = p3 * x + p2, p3 * y  # Horner in real parts, as complex arithmetic rounds it
            ar, ai = ar * x - ai * y + p1, ar * y + ai * x
            ar, ai = ar * x - ai * y + p0, ar * y + ai * x
            if narrow:  # one column of factors per t, in Python floats
                for j, (col_r, col_i) in enumerate(zip(ar.T.tolist(), ai.T.tolist())):
                    pr, pi = vr[j], vi[j]
                    for a, b in zip(col_r, col_i):
                        pr, pi = pr * a - pi * b, pr * b + pi * a
                    vr[j], vi[j] = pr, pi
            else:
                for a, b in zip(ar, ai):
                    vr, vi = vr * a - vi * b, vr * b + vi * a
        return (vr, vi) if narrow else (vr.tolist(), vi.tolist())

    def grid():
        while True:
            chunk, growths, error = [], [], None
            try:
                for t in itertools.islice(it, width):
                    growths.append(truncation_growth(t, K))
                    chunk.append(t)
            except Exception as exc:  # raised once the results of the t's before it are out
                error = exc
            if chunk:
                for t, growth, vr, vi in zip(chunk, growths, *products(chunk)):
                    if t == 0:
                        yield CharfnResult(1 + 0j, 0.0)
                        continue
                    value = complex(vr, vi)
                    truncation = abs(value) * growth
                    phase = 8 * _FLOAT_EPS * abs(t) * (1 - tail) / 2
                    yield CharfnResult(value, truncation + phase + rounding)
            if error is not None:
                raise error
            if len(chunk) < width:
                return

    return grid()


def limsup_lower_bound(p: ProbVector, N: int, K: int = 40) -> float:
    """Certified lower bound for limsup |charfn| as |t| -> infinity.

    The value at 2*pi*n repeats along t -> 3t, so any certified |value| there
    is a lower bound; the best over n = 1..N is returned, clamped at 0.
    """
    if N < 1:
        raise ValueError("N must be positive")
    results = charfn_grid(p, (2 * math.pi * n for n in range(1, N + 1)), K)
    return max(0.0, max((abs(r.value) - r.tail_bound for r in results), default=0.0))


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
    q = _fraction(q0)
    if not 0 < q < 1:
        raise ValueError("q0 must lie strictly between 0 and 1")
    r = 1 - q
    return ProbVector(q ** 3, 3 * q * q * r, 3 * q * r * r, r ** 3, exact=not _inexact(q0))
