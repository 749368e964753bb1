"""Checks of a round's outputs against the computations in `oracles`.

`check(workload, calls, outputs)` returns a list of failure messages, empty
when every output is right.  Outputs come as the workload process exported
them: CLI stdout text, or JSON forms of API results (fractions as 'a/b').

The CLI prints decimals rounded to 15 significant digits, so comparisons
with exact values read from its CSV or JSON allow PRINT_SLACK on top of the
bound being checked; all values compared that way lie in [0, 1].
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import oracles
import rounds

PRINT_SLACK = 1e-15
SLOPE_TOL = 1e-3           # |fitted slope - exact dimension| at the levels timed
REPR_EXTRA_DEPTH = 6       # `tern4 repr` and `levelset` enumerate to preperiod + 6
SERIES_BITS = 30           # `tern4 series --greedy` default selector length
SAMPLE_SIGMAS = 5
SPECTRAL_BRACKET = 3 ** 20 - 1  # residual states of a/(3^20 - 1) recur within 20 steps


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _law(tokens) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in tokens)


# ---------------------------------------------------------------------------
# census

def check_repr(s: str, out: str) -> list[str]:
    pre, per = oracles.canonical(*oracles.parse_text(s))
    x = oracles.digit_value(pre, per)
    kind, count = oracles.census(x)
    got = json.loads(out)
    errs = []
    if got["input"] != oracles.text(pre, per) or Fraction(got["value"]) != x:
        errs.append(f"repr {s}: input/value {got['input']} {got['value']}, expected {oracles.text(pre, per)} {x}")
    if got["cardinality"] != kind or got.get("count") != count:
        errs.append(f"repr {s}: census {got['cardinality']} {got.get('count')}, expected {kind} {count}")
    if kind != "continuum":
        depth = len(pre) + REPR_EXTRA_DEPTH
        listed = got.get("representations", [])
        want = [oracles.text(*e) for e in oracles.listing(x, depth)]
        if got.get("depth") != depth or sorted(listed) != sorted(want) or len(set(listed)) != len(listed):
            errs.append(f"repr {s}: expansions {listed} at depth {got.get('depth')}, expected {want}")
        wrong = [r for r in listed if oracles.digit_value(*oracles.parse_text(r)) != x]
        if wrong:
            errs.append(f"repr {s}: expansions {wrong} do not have the value {x}")
    elif "representations" in got:
        errs.append(f"repr {s}: listed expansions of a continuum census")
    return errs


def check_levelset(s: str, out: str) -> list[str]:
    pre, per = oracles.canonical(*oracles.parse_text(s))
    x = oracles.digit_value(pre, per)
    kind, count = oracles.census(x)
    got = json.loads(out)
    errs = []
    if got["cardinality"] != kind or got.get("count") != count:
        errs.append(f"levelset {s}: census {got['cardinality']} {got.get('count')}, expected {kind} {count}")
    if kind == "continuum":
        want = [{"position": j + 1, "pair": "%d%d" % pair, "alternative": "%d%d" % alt}
                for j in range(len(per))
                for pair in [(per[j], per[(j + 1) % len(per)])]
                for alt in [oracles.pair_alternative(*pair)] if alt]
        if got.get("constraints") != want:
            errs.append(f"levelset {s}: constraints {got.get('constraints')}, expected {want}")
    else:
        members = [Fraction(m["exact"]) for m in got.get("members", [])]
        want = [oracles.digit_value(*e, base=4) for e in oracles.listing(x, len(pre) + REPR_EXTRA_DEPTH)]
        if sorted(members) != sorted(want):
            errs.append(f"levelset {s}: members {members}, expected base-4 values {want}")
    return errs


def check_series(x: Fraction, out: str) -> list[str]:
    rows = _csv(out)
    bits = oracles.greedy_bits(x, SERIES_BITS)
    value = sum((oracles.series_term(n + 1) for n, b in enumerate(bits) if b), Fraction(0))
    want = [["bits", "digits", "value"],
            ["".join(map(str, bits)),
             "".join(str(sum(bits[i:i + 3])) for i in range(0, len(bits), 3)),
             str(value)]]
    if rows != want:
        return [f"series --greedy {x}: {rows}, expected {want}"]
    return []


def check_census(calls, outputs) -> list[str]:
    words = oracles.all_words(rounds.LIST_DEPTH)
    errs = []
    for (kind, target, args), out in zip(calls, outputs):
        if target == "repr":
            errs += check_repr(args[1], out)
        elif target == "levelset":
            errs += check_levelset(args[1], out)
        elif target == "series":
            errs += check_series(Fraction(args[2]), out)
        elif target == "digits.count_expansion_prefixes":
            want = oracles.prefix_count(Fraction(args[0]), args[1])
            if out != want:
                errs.append(f"count_expansion_prefixes({args[0]}, {args[1]}) = {out}, expected {want}")
        else:  # digits.admissible_prefixes
            x, m = Fraction(args[0]), args[1]
            want = oracles.brute_prefixes(x, words, m)
            if [tuple(w) for w in out] != want:
                errs.append(f"admissible_prefixes({x}, {m}): {len(out)} words, expected {len(want)}")
    return errs


# ---------------------------------------------------------------------------
# cdf_grid and spectral

_GRID = int(rounds.CDF_GRID[1])
GRID_POINTS = [Fraction(3, 2) * j / (_GRID - 1) for j in range(_GRID)]


def check_cdf_grid_csv(law, out: str, exact: dict) -> list[str]:
    rows = _csv(out)
    if rows[0] != ["x", "lo", "hi"] or len(rows) != _GRID + 1:
        return [f"cdf {law}: {len(rows) - 1} rows, expected {_GRID}"]
    errs = []
    for x, (xt, lo, hi) in zip(GRID_POINTS, rows[1:]):
        lo, hi, F = float(lo), float(hi), exact[x]
        if abs(float(xt) - float(x)) > PRINT_SLACK:
            errs.append(f"cdf {law}: grid point {xt}, expected {x}")
        elif not (lo - PRINT_SLACK <= F <= hi + PRINT_SLACK and hi - lo <= rounds.CDF_TOL + PRINT_SLACK):
            errs.append(f"cdf {law} at {x}: [{lo}, {hi}] misses F = {float(F)!r} or is wider than tol")
    return errs


def check_cdf_grid(calls, outputs) -> list[str]:
    errs = []
    for (_, _, args), out in zip(calls, outputs):
        law = args[1:5]
        errs += check_cdf_grid_csv(law, out, oracles.exact_cdf(_law(law), GRID_POINTS))
    return errs


def expected_class(p) -> str:
    """The paper's criterion: absolutely continuous iff p1 = p2 = 1/3; the
    singular kind follows the zero pattern of the law."""
    if p[1] == p[2] == Fraction(1, 3):
        return "absolutely_continuous"
    zeros = [i for i, v in enumerate(p) if v == 0]
    if not zeros:
        return "singular_full_overlap"
    if len(zeros) == 2 or zeros[0] in (1, 2):
        return "singular_cantor"
    return "singular_increasing"


def check_point_cdf(law, x: float, out, brackets: dict) -> list[str]:
    """A float point's enclosure against exact F at the bracketing rationals
    a <= x <= b with denominator 3^20 - 1: F(a) <= F(x) <= F(b)."""
    lo, hi = (Fraction(v) for v in out)
    a, b = brackets[x]
    if not (lo <= b[1] and hi >= a[1] and hi - lo <= rounds.CDF_TOL):
        return [f"cdf {law} at {x!r}: [{float(lo)}, {float(hi)}] against F in [{float(a[1])}, {float(b[1])}]"]
    return []


def bracket_points(p, xs) -> dict:
    q = SPECTRAL_BRACKET
    ends = {}
    for x in xs:
        k = math.floor(Fraction(x) * q)
        ends[x] = (Fraction(k, q), Fraction(k + 1, q))
    exact = oracles.exact_cdf(p, [v for pair in ends.values() for v in pair])
    return {x: ((a, exact[a]), (b, exact[b])) for x, (a, b) in ends.items()}


def check_charfn(law, out: str) -> list[str]:
    rows = _csv(out)
    errs = []
    if rows[0] != ["t", "re", "im", "abs", "tail_bound"] or len(rows) != 102:
        return [f"charfn {law}: {len(rows) - 1} rows, expected 101"]
    for j, (t, re, im, _, bound) in enumerate(rows[1:]):
        if float(t) != 0.5 * j:
            errs.append(f"charfn {law}: t = {t}, expected {0.5 * j}")
            continue
        err = oracles.charfn_abs_error(_law(law), float(t), complex(float(re), float(im)))
        if err > float(bound) + 2 * PRINT_SLACK:
            errs.append(f"charfn {law} at t = {t}: error {err:.3g} exceeds tail_bound {bound}")
    return errs


def check_lbound(law, out: str) -> list[str]:
    got = json.loads(out)
    n_max = rounds.LBOUND_N
    best = max(oracles.charfn_abs_error(_law(law), 2 * math.pi * n, 0j) for n in range(1, n_max + 1))
    if got["N"] != n_max or not 0 <= got["lower_bound"] <= best + PRINT_SLACK:
        return [f"lbound {law}: {got}, above max |f(2 pi n)| = {best!r}"]
    return []


def check_samples(law, out) -> list[str]:
    n = len(out)
    mean = sum(out) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in out) / (n - 1))
    want = float(oracles.law_mean(_law(law)))
    if n != rounds.SAMPLE_COUNT or not all(0 <= v <= 1.5 for v in out):
        return [f"sample_many {law}: {n} draws, range [{min(out)}, {max(out)}]"]
    if abs(mean - want) > SAMPLE_SIGMAS * sd / math.sqrt(n):
        return [f"sample_many {law}: mean {mean} is over {SAMPLE_SIGMAS} standard errors from {want}"]
    return []


def check_spectral(calls, outputs) -> list[str]:
    errs = []
    brackets = {}
    for (kind, target, args), out in zip(calls, outputs):
        if target == "classify":
            law = args[1:5]
            got = json.loads(out)["class"]
            if got != expected_class(_law(law)):
                errs.append(f"classify {law}: {got}, expected {expected_class(_law(law))}")
        elif target == "charfn":
            errs += check_charfn(args[1:5], out)
        elif target == "lbound":
            errs += check_lbound(args[1:5], out)
        elif target == "measure.sample_many":
            errs += check_samples(args[0], out)
        else:  # measure.cdf
            law, x = tuple(args[0]), args[1]
            if law not in brackets:
                xs = [a[1] for _, t, a in calls if t == "measure.cdf" and tuple(a[0]) == law]
                brackets[law] = bracket_points(_law(law), xs)
            errs += check_point_cdf(law, x, out, brackets[law])
    return errs


# ---------------------------------------------------------------------------
# dimension

FIB_SETS = ("013", "023")


def closed_form_count(digit_set: str, n: int) -> int:
    """Distinct level-n cells: 2^n for two digits, (3^(n+1) - 1)/2 for all four,
    Fibonacci F(2n+2) for {0,1,3} and {0,2,3}."""
    if len(digit_set) == 2:
        return 2 ** n
    if digit_set == "0123":
        return (3 ** (n + 1) - 1) // 2
    if digit_set in FIB_SETS:
        a, b = 0, 1
        for _ in range(2 * n + 2):
            a, b = b, a + b
        return a
    raise ValueError(f"no closed form for {digit_set}")


def exact_dimension(digit_set: str) -> float:
    if len(digit_set) == 2:
        return math.log(2, 3)
    if digit_set in FIB_SETS:
        return math.log((3 + math.sqrt(5)) / 2, 3)
    return 1.0


def check_dimension_csv(digit_set: str, n_max: int, out: str) -> list[str]:
    lines = out.strip().splitlines()
    rows = _csv("\n".join(lines[:-1]))
    got = json.loads(lines[-1])
    counts = [int(r[1]) for r in rows[1:]]
    want = [closed_form_count(digit_set, n) for n in range(1, n_max + 1)]
    errs = []
    if counts != want:
        errs.append(f"dimension {digit_set}: counts {counts}, expected {want}")
    dim = exact_dimension(digit_set)
    if abs(got["slope"] - dim) > SLOPE_TOL or abs(got["target"] - dim) > 1e-12:
        errs.append(f"dimension {digit_set}: slope {got['slope']}, target {got['target']}, exact {dim}")
    return errs


def check_dimension(calls, outputs) -> list[str]:
    errs = []
    for (kind, target, args), out in zip(calls, outputs):
        if target == "dimension":
            errs += check_dimension_csv(args[2], int(args[4]), out)
        else:  # fractal.continuum_levelset_dimension
            n_max = args[0]
            want = [[n, 2 ** n] for n in range(1, n_max + 1)]
            if out["counts"] != want or out["base"] != 16 or abs(out["slope"] - 0.25) > SLOPE_TOL:
                errs.append(f"continuum_levelset_dimension({n_max}): {out}, expected counts 2^n, slope 1/4")
    return errs


CHECKS = {
    check_census: ("repr", "levelset", "series", "digits.count_expansion_prefixes", "digits.admissible_prefixes"),
    check_cdf_grid: ("cdf",),
    check_spectral: ("classify", "charfn", "lbound", "measure.sample_many", "measure.cdf"),
    check_dimension: ("dimension", "fractal.continuum_levelset_dimension"),
}


def check(calls, outputs) -> list[str]:
    """Failure messages for one round's outputs; each mix's calls go to its check."""
    if outputs is None:
        return ["no round completed, so no output was checked"]
    if len(outputs) != len(calls):
        return [f"{len(outputs)} outputs for {len(calls)} calls"]
    errs = []
    for fn, targets in CHECKS.items():
        picked = [(c, o) for c, o in zip(calls, outputs) if c[1] in targets]
        if picked:
            errs += fn(*map(list, zip(*picked)))
    known = {t for targets in CHECKS.values() for t in targets}
    errs += [f"unexpected call {c[1]}" for c in calls if c[1] not in known]
    return errs
