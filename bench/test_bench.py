"""Tests of the benchmark itself: its oracles, its checks and its workload process.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import rounds  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402


def _round_outputs(name, seed=1):
    from tern4 import cli, digits, fractal, measure, series

    modules = {"cli": cli, "digits": digits, "fractal": fractal, "measure": measure, "series": series}
    calls = rounds.MIXES[name](rounds.SplitMix64(seed))
    return calls, workload._export([workload._bind(c, modules)() for c in calls])


@pytest.fixture(scope="module")
def outputs():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _round_outputs(name)
        calls, outs = cache[name]
        return calls, copy.deepcopy(outs)

    return get


# ---------------------------------------------------------------------------
# round make-up

@pytest.mark.parametrize("name", rounds.WORKLOADS)
def test_round_is_fixed_for_a_seed(name):
    assert rounds.build_round(name, 7) == rounds.build_round(name, 7)
    assert rounds.build_round(name, 7) != rounds.build_round(name, 8)
    makeup = sorted(c[1] for c in rounds.build_round(name, 7))
    assert all(sorted(c[1] for c in rounds.build_round(name, seed)) == makeup for seed in range(1, 6))


def test_census_batch_covers_every_class():
    for seed in range(1, 11):
        strings = [args[1] for kind, target, args in rounds.build_round("census_grid", seed) if target == "repr"]
        classes = [oracles.census(oracles.digit_value(*oracles.parse_text(s)))[0] for s in strings]
        assert set(classes) == {"unique", "finite", "countable", "continuum"}
        block_finite = [s for s, k in zip(strings, classes)
                        if k == "finite" and set(oracles.parse_text(s)[1]) == {1, 2}]
        assert len(block_finite) > len(strings) / 2
        assert all(len(pre) <= 4 and len(per) <= 4 for pre, per in map(oracles.parse_text, strings))


def test_workload_process_imports_only_what_tern4_imports():
    env = {"PYTHONPATH": str(ROOT / "src")}
    tern4_modules = set(json.loads(subprocess.run(
        [sys.executable, "-c", "import json, sys, tern4, tern4.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout))
    probe = json.loads(subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "census_grid", "1", "1", "0", "0", "setup", "unused"],
        env=env, capture_output=True, text=True, check=True).stdout)
    assert set(probe["modules"]) - tern4_modules <= {"rounds", "oracles"}
    assert "mpmath" not in probe["modules"]
    assert Path(probe["tern4"]).is_relative_to(ROOT / "src")


# ---------------------------------------------------------------------------
# oracles

def test_exact_cdf_known_values():
    uniform = [Fraction(1, 4)] * 4
    exact = oracles.exact_cdf(uniform, [Fraction(1, 2), Fraction(7, 10), Fraction(0), Fraction(3, 2)])
    assert exact == {Fraction(1, 2): Fraction(1, 3), Fraction(7, 10): Fraction(114, 253),
                     Fraction(0): 0, Fraction(3, 2): 1}


def test_census_oracle_on_245_648():
    x = Fraction(245, 648)
    assert oracles.census(x) == ("finite", 5)
    assert {oracles.text(*e) for e in oracles.listing(x, 4)} == {
        "1010(12)", "1003(12)", "0310(12)", "0303(12)", "0233(12)"}


@pytest.mark.parametrize("digit_set", ["0123", "013", "023", "12", "03"])
def test_closed_form_counts_match_brute_force(digit_set):
    ds = [int(c) for c in digit_set]
    sums = {0}
    for n in range(1, 8):
        sums = {3 * a + c for a in sums for c in ds}
        assert len(sums) == checks.closed_form_count(digit_set, n)


def test_prefix_oracles_agree():
    words = oracles.all_words(5)
    for s in ["1010(12)", "(03)", "2(1)", "(0)", "13(2)"]:
        x = oracles.digit_value(*oracles.parse_text(s))
        assert len(oracles.brute_prefixes(x, words, 5)) == oracles.prefix_count(x, 5)


# ---------------------------------------------------------------------------
# each check passes today's outputs and rejects a planted wrong answer

def _first(calls, outs, target, pred=lambda out: True):
    """Index of the first call to `target` whose output satisfies `pred`."""
    return next(i for i, (c, o) in enumerate(zip(calls, outs)) if c[1] == target and pred(o))


@pytest.mark.parametrize("name", rounds.MIXES)
def test_checks_pass_real_outputs(name, outputs):
    calls, outs = outputs(name)
    assert checks.check(calls, outs) == []


def test_census_rejects_missing_member(outputs):
    calls, outs = outputs("census")
    i = _first(calls, outs, "repr", lambda o: json.loads(o).get("count", 0) >= 2)
    got = json.loads(outs[i])
    got["representations"] = got["representations"][1:]
    outs[i] = json.dumps(got)
    assert any("expansions" in e for e in checks.check(calls, outs))


def test_census_rejects_wrong_levelset_and_class(outputs):
    calls, outs = outputs("census")
    i = _first(calls, outs, "levelset", lambda o: json.loads(o)["cardinality"] == "finite")
    got = json.loads(outs[i])
    got["members"] = got["members"][:-1]
    outs[i] = json.dumps(got)
    j = _first(calls, outs, "repr", lambda o: json.loads(o)["cardinality"] == "countable")
    got = json.loads(outs[j])
    got["cardinality"] = "continuum"
    outs[j] = json.dumps(got)
    errs = checks.check(calls, outs)
    assert any(e.startswith("levelset") for e in errs) and any("expected countable" in e for e in errs)


def test_census_rejects_prefix_count_off_by_one(outputs):
    calls, outs = outputs("census")
    i = _first(calls, outs, "digits.count_expansion_prefixes")
    j = _first(calls, outs, "digits.admissible_prefixes")
    k = _first(calls, outs, "series")
    outs[i] += 1
    outs[j] = outs[j][1:]
    outs[k] = outs[k].replace("value", "valve")
    errs = checks.check(calls, outs)
    assert [e.split("(")[0].split(" ")[0] for e in errs] == [
        "count_expansion_prefixes", "admissible_prefixes", "series"]


def test_cdf_grid_rejects_enclosure_shifted_by_two_tol(outputs):
    calls, outs = outputs("cdf_grid")
    lines = outs[0].splitlines()
    j = len(lines) // 2
    x, lo, hi = lines[j].split(",")
    lines[j] = ",".join([x, repr(float(lo) + 2 * rounds.CDF_TOL), repr(float(hi) + 2 * rounds.CDF_TOL)])
    outs[0] = "\n".join(lines)
    assert len(checks.check(calls, outs)) == 1


def test_spectral_rejects_planted_errors(outputs):
    calls, outs = outputs("spectral")
    i = _first(calls, outs, "measure.cdf", lambda o: 0.1 < float(Fraction(o[0])) < 0.9)
    outs[i] = [str(Fraction(v) + 2 * Fraction(rounds.CDF_TOL)) for v in outs[i]]
    j = _first(calls, outs, "lbound", lambda o: json.loads(o)["lower_bound"] > 0)
    got = json.loads(outs[j])
    got["lower_bound"] *= 1.001
    outs[j] = json.dumps(got)
    k = _first(calls, outs, "charfn")
    rows = outs[k].splitlines()
    t, re, im, ab, bound = rows[3].split(",")
    rows[3] = ",".join([t, repr(float(re) + 1e-10), im, ab, bound])
    outs[k] = "\n".join(rows)
    m = _first(calls, outs, "measure.sample_many")
    outs[m] = [v * 0.95 for v in outs[m]]
    c = _first(calls, outs, "classify")
    got = json.loads(outs[c])
    got["class"] = "singular_cantor" if got["class"] == "absolutely_continuous" else "absolutely_continuous"
    outs[c] = json.dumps(got)
    errs = checks.check(calls, outs)
    assert sorted(e.split(" ")[0] for e in errs) == ["cdf", "charfn", "classify", "lbound", "sample_many"]


def test_dimension_rejects_count_off_by_one(outputs):
    calls, outs = outputs("dimension")
    i = _first(calls, outs, "dimension")
    lines = outs[i].splitlines()
    n, count, log3 = lines[2].split(",")
    lines[2] = ",".join([n, str(int(count) + 1), log3])
    outs[i] = "\n".join(lines)
    j = _first(calls, outs, "fractal.continuum_levelset_dimension")
    outs[j]["counts"][-1][1] -= 1
    assert len(checks.check(calls, outs)) == 2


# ---------------------------------------------------------------------------
# the reference kernel

def test_reference_kernel_is_fixed_work_and_restores_the_collector():
    assert reference.reference() == reference.reference() == 138367
    import gc

    assert gc.isenabled()
    assert reference.timed_passes(1) > 0
    assert gc.isenabled()


def test_round_cost_is_mean_round_time_over_pass_time():
    import run

    result = {"latencies_s": [0.2, 0.4], "reference_pass_s": 0.004}
    assert run.round_cost_ref(result) == pytest.approx(75.0)


# ---------------------------------------------------------------------------
# the command

def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert all(run.UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(rounds.WORKLOADS)


def test_command_prints_the_result_line():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "census_grid", "--seed", "3",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "census_grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
