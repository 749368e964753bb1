"""Acceptance suite: every numbered criterion runs at its stated tolerance and
prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with ``pytest -s``).

Criterion 5 pins the five-element expansion census of the value 245/648 and
checks it against ``_residual_graph_expansions``, an oracle that uses only
``Fraction`` arithmetic and no tern4 code.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from tern4 import cli, digits, fractal, measure, series
from tern4.measure import DistributionKind, ProbVector

F = Fraction
KS_1PCT_TWO_SAMPLE = 0.00729     # n = m = 1e5
CHI2_1PCT_DF3 = 11.345


def _criterion(num, fn, limit=None):
    t0 = time.monotonic()
    try:
        fn()
        dt = time.monotonic() - t0
        if limit is not None and dt >= limit:
            raise AssertionError(f"runtime {dt:.2f}s exceeds the {limit}s budget")
    except AssertionError as exc:
        print(f"ACCEPTANCE {num}: FAIL - {exc}")
        raise
    print(f"ACCEPTANCE {num}: PASS ({dt:.2f}s)")


def _cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out.splitlines()[-1])


def test_criterion_1_absolute_continuity_boundary(capsys):
    def check():
        grid = [(F(i, 10), F(j, 10)) for i in range(11) for j in range(11 - i)]
        assert len(grid) == 66
        for p1, p2 in grid:
            half_rest = (1 - p1 - p2) / 2
            if p1 == 1 or p2 == 1:
                # the corner laws are degenerate (a probability reaches 1)
                with pytest.raises(ValueError):
                    ProbVector(half_rest, p1, p2, half_rest)
                continue
            args = [str(half_rest), str(p1), str(p2), str(half_rest)]
            label = _cli_json(capsys, "classify", *args)["class"]
            assert label != "absolutely_continuous", (p1, p2)
            if p1 != 0 and p2 != 0 and half_rest != 0:
                got = _cli_json(capsys, "lbound", *args, "--N", "3", "--K", "40")
                assert got["lower_bound"] > 1e-6, (p1, p2, got)
        for j in range(11):
            p0 = F(j, 30)
            args = [str(p0), "1/3", "1/3", str(F(1, 3) - p0)]
            assert _cli_json(capsys, "classify", *args)["class"] == "absolutely_continuous"
            got = _cli_json(capsys, "lbound", *args, "--N", "3", "--K", "40")
            assert got["lower_bound"] == 0.0, (p0, got)

    _criterion(1, check, limit=10)


def test_criterion_2_dimension_log3_2(capsys):
    def check():
        code = cli.main(["dimension", "--digits", "12", "--nmax", "12"])
        out, err = capsys.readouterr()
        assert code == 0, err
        lines = [ln for ln in out.replace("\r\n", "\n").split("\n") if ln]
        rows = [ln.split(",") for ln in lines[1:-1]]
        assert [int(r[1]) for r in rows] == [2 ** n for n in range(1, 13)]
        summary = json.loads(lines[-1])
        assert abs(summary["slope"] - math.log(2, 3)) < 1e-9

    _criterion(2, check, limit=1)


def test_criterion_3_dimension_sparse_triple(capsys):
    def check():
        code = cli.main(["dimension", "--digits", "013", "--nmax", "13"])
        out, err = capsys.readouterr()
        assert code == 0, err
        lines = [ln for ln in out.replace("\r\n", "\n").split("\n") if ln]
        counts = [int(ln.split(",")[1]) for ln in lines[1:-1]]
        assert counts[:3] == [3, 8, 21]
        assert 2.60 < counts[12] / counts[11] < 2.64
        summary = json.loads(lines[-1])
        assert abs(summary["slope"] - 0.877444) < 0.02
        mirrored = fractal.box_dimension((0, 2, 3), 13)
        assert [c for _, c in mirrored.counts] == counts

    _criterion(3, check, limit=60)


def test_criterion_4_uniform_cdf():
    def check():
        p = ProbVector(F(1, 3), F(1, 3), F(1, 3), F(0))
        for j in range(50):
            x = F(j, 49)
            lo, hi = measure.cdf(p, x, 1e-4)
            assert hi - lo <= F(1, 10000) and lo <= x <= hi, x
        p = ProbVector(F(0), F(1, 3), F(1, 3), F(1, 3))
        for j in range(50):
            x = F(1, 2) + F(j, 49)
            lo, hi = measure.cdf(p, x, 1e-4)
            assert hi - lo <= F(1, 10000) and lo <= x - F(1, 2) <= hi, x

    _criterion(4, check, limit=30)


def _residual_graph_expansions(x):
    """Expansions of x in base 3 over {0,1,2,3}, as the infinite paths from x in
    the residual graph y -> 3y - c (c a digit, 3y - c kept in [0, 3/2]).

    Every state has a successor, so each path is followed until it first
    revisits a state; the revisited stretch is the period. The listing is
    complete because no cycle may branch, which is asserted.
    """
    def succ(y):
        return [(c, 3 * y - c) for c in range(4) if 0 <= 3 * y - c <= F(3, 2)]

    found, paths = [], [("", [x])]
    while paths:
        word, trail = paths.pop()
        if trail[-1] not in trail[:-1]:
            paths += [(word + str(c), trail + [z]) for c, z in succ(trail[-1])]
            continue
        i = trail.index(trail[-1])
        assert all(len(succ(y)) == 1 for y in trail[i:-1]), f"the cycle at {trail[i]} branches"
        found.append(f"{word[:i]}({word[i:]})")
    return found


def test_criterion_5_representation_census():
    def check():
        classify = lambda s: digits.classify_cardinality(digits.parse(s))
        assert classify("(12)").kind is digits.Cardinality.UNIQUE
        assert classify("3333(12)").kind is digits.Cardinality.UNIQUE
        assert classify("(2)").kind is digits.Cardinality.COUNTABLE
        assert classify("(1)").kind is digits.Cardinality.COUNTABLE
        # a repeating 3 away from the endpoint: countable; "(3)" itself is the
        # endpoint 3/2, whose expansion is unique
        assert classify("0(3)").kind is digits.Cardinality.COUNTABLE
        assert classify("(3)").kind is digits.Cardinality.UNIQUE
        assert classify("(10)").kind is digits.Cardinality.CONTINUUM
        assert classify("(30)").kind is digits.Cardinality.CONTINUUM
        # 0233(12) is 0303(12) after the 30 -> 23 rewrite: 2/9 + 3/27 = 3/9
        five = {"1010(12)", "0310(12)", "0303(12)", "1003(12)", "0233(12)"}
        oracle = _residual_graph_expansions(F(245, 648))
        assert len(oracle) == 5 and set(oracle) == five, sorted(oracle)
        card = classify("1010(12)")
        members = {str(r) for r in digits.enumerate_representations(digits.parse("1010(12)"), 4)}
        assert card.count == 5 and members == five, (
            f"pinned census of five, but the value 245/648 has {card.count} expansions: "
            f"{sorted(members)}"
        )

    _criterion(5, check, limit=1)


def test_criterion_6_convolution_identities():
    def check():
        n = 100_000
        p = ProbVector(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
        u, v = measure.decompose_cantor_pair(p)
        assert (u, v) == (F(1, 2), F(1, 2))
        theta = measure.sample_many(ProbVector(u, 0, 1 - u, 0), n, 30, seed=201)
        eps = measure.sample_many(ProbVector(v, 1 - v, 0, 0), n, 30, seed=202)
        xi = measure.sample_many(p, n, 30, seed=203)
        stat = scipy.stats.ks_2samp(theta + eps, xi).statistic
        assert stat < KS_1PCT_TWO_SAMPLE, stat

        p = ProbVector(F(1, 6), F(1, 3), F(1, 3), F(1, 6))
        x = measure.decompose_uniform_plus_cantor(p)
        assert x == F(1, 2)
        tau = measure.sample_many(ProbVector(F(1, 3), F(1, 3), F(1, 3), 0), n, 30, seed=204)
        zeta = measure.sample_many(ProbVector(x, 1 - x, 0, 0), n, 30, seed=205)
        xi = measure.sample_many(p, n, 30, seed=206)
        stat = scipy.stats.ks_2samp(tau + zeta, xi).statistic
        assert stat < KS_1PCT_TWO_SAMPLE, stat

    _criterion(6, check, limit=60)


def test_criterion_7_charfn_functional_equation():
    def check():
        rng = np.random.default_rng(2024)
        laws = [ProbVector(*rng.dirichlet((1.0, 1.0, 1.0, 1.0))) for _ in range(5)]
        ts = rng.uniform(0.0, 100.0, 100)
        for p in laws:
            for t in ts:
                ft = measure.charfn(p, t, 40)
                ft3 = measure.charfn(p, t / 3, 40)
                lhs = abs(ft.value - measure.charfn(p, t, 1).value * ft3.value)
                assert lhs <= ft.tail_bound + ft3.tail_bound, (t, lhs)

    _criterion(7, check, limit=5)


def test_criterion_8_levelset_dimension_quarter():
    def check():
        est = fractal.continuum_levelset_dimension()
        assert [c for _, c in est.counts] == [2 ** n for n in range(1, 11)]
        assert abs(est.slope - 0.25) < 1e-9
        anchors = [("(0)", F(0), F(0)), ("(3)", F(1), F(3, 2)), ("(12)", F(2, 5), F(5, 8))]
        for text, v4, v3 in anchors:
            d = fractal.quaternary_to_delta(digits.parse(text))
            assert digits.evaluate(d, base=4) == v4
            assert digits.evaluate(d, base=3) == v3

    _criterion(8, check)


def test_criterion_9_eta_bridge():
    def check():
        p = measure.eta_params(F(1, 2))
        assert p.probs == (F(1, 8), F(3, 8), F(3, 8), F(1, 8))
        assert measure.classify(p).is_singular
        n = 100_000
        rng = np.random.default_rng(99)
        bits = (rng.random((n, 3)) < 0.5).astype(int)  # 1 with probability 1 - q0
        counts = [0, 0, 0, 0]
        for row in bits:
            (digit,) = series.eta_subsum_digits(tuple(row))
            counts[digit] += 1
        expected = [float(v) * n for v in p.probs]
        chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
        assert chi2 < CHI2_1PCT_DF3, chi2

    _criterion(9, check)
