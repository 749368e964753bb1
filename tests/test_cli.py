"""CLI contract tests: JSON payloads, CSV tables, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tern4
from tern4 import cli, digits


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def csv_rows(text):
    lines = [ln for ln in text.split("\r\n") if ln and not ln.startswith("{")]
    return [ln.split(",") for ln in lines]


def test_repr_finite(capsys):
    out = run_json(capsys, "repr", "1010(12)", "--depth", "4")
    assert out["schema"] == 1
    assert out["value"] == "245/648"
    assert out["cardinality"] == "finite"
    assert "1010(12)" in out["representations"]


def test_repr_continuum(capsys):
    out = run_json(capsys, "repr", "(10)")
    assert out["cardinality"] == "continuum"
    assert "representations" not in out


def test_repr_bad_input_exits_1(capsys):
    code, _, err = run(capsys, "repr", "47")
    assert code == 1 and "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["repr"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_classify_ac(capsys):
    out = run_json(capsys, "classify", "1/6", "1/3", "1/3", "1/6")
    assert out["class"] == "absolutely_continuous"
    assert out["x"] == "1/2"
    assert out["x_decimal"] == 0.5


def test_classify_singular(capsys):
    out = run_json(capsys, "classify", "1/2", "0", "1/4", "1/4")
    assert out["class"] == "singular_cantor"
    assert out["dimension"] == pytest.approx(math.log((3 + math.sqrt(5)) / 2, 3), abs=1e-12)


@pytest.mark.parametrize("probs, kind, dimension", [
    # a decimal probability within 1e-9 of 0 leaves the support; the rest are rescaled
    (("0.5", "0.25", "0.2499999999", "0.0000000001"), "singular_increasing", 0.94639463032564),
    (("0.0000000001", "0.9999999999", "0", "0"), "singular_cantor", 0.0),
    (("0.9999999999", "0.0000000001", "0", "0"), "singular_cantor", 0.0),
])
def test_classify_reads_the_support_under_the_tolerance(capsys, probs, kind, dimension):
    out = run_json(capsys, "classify", *probs)
    assert out == {"schema": 1, "class": kind, "dimension": dimension}


def test_classify_bad_probability_exits_1(capsys):
    code, _, err = run(capsys, "classify", "1/2", "1/2", "1/2", "1/2")
    assert code == 1 and "error" in err


def test_cdf_csv(capsys):
    code, out, err = run(capsys, "cdf", "1/3", "1/3", "1/3", "0", "--grid", "5", "--tol", "1e-4")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["x", "lo", "hi"]
    assert len(rows) == 6
    # the uniform law: enclosures hug min(x, 1)
    for x_s, lo_s, hi_s in rows[1:]:
        x, lo, hi = float(x_s), float(lo_s), float(hi_s)
        assert lo - 1e-9 <= min(max(x, 0.0), 1.0) <= hi + 1e-9


def test_charfn_csv(capsys):
    code, out, _ = run(capsys, "charfn", "1/4", "1/4", "1/4", "1/4",
                       "--tmax", "2", "--step", "1", "--K", "30")
    rows = csv_rows(out)
    assert rows[0] == ["t", "re", "im", "abs", "tail_bound"]
    assert len(rows) == 4
    assert float(rows[1][1]) == 1.0  # f(0) = 1


@pytest.mark.parametrize("tmax,step,rows", [("1000", "0.1", 10001), ("33.3", "0.01", 3331), ("50", "0.5", 101)])
def test_charfn_grid_points_do_not_drift(capsys, tmax, step, rows):
    # 10000 steps of 0.1 added one by one end at 999.900000000159 and miss t = 1000
    code, out, _ = run(capsys, "charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", tmax, "--step", step, "--K", "10")
    ts = [float(r[0]) for r in csv_rows(out)[1:]]
    assert code == 0 and ts == [round(j * float(step), 10) for j in range(rows)]
    assert ts[-1] == float(tmax)


@pytest.mark.parametrize("argv", [
    ["cdf", "--tol", "nan"],
    ["charfn", "--K", "0"],
    ["charfn", "--tmax", "inf"],  # used to loop without end
    ["charfn", "--tmax", "1e22", "--step", "4e21"],  # used to print rows, then fail
])
def test_bad_numeric_argument_rejected_before_output(capsys, argv):
    code, out, err = run(capsys, argv[0], "1/4", "1/4", "1/4", "1/4", *argv[1:])
    assert code == 1 and out == "" and "error" in err


def test_lbound_json(capsys):
    out = run_json(capsys, "lbound", "1/4", "1/4", "1/4", "1/4", "--N", "3", "--K", "40")
    assert out["lower_bound"] > 1e-6
    out = run_json(capsys, "lbound", "1/6", "1/3", "1/3", "1/6", "--N", "3", "--K", "40")
    assert out["lower_bound"] == 0.0


def test_dimension_output(capsys):
    code, out, _ = run(capsys, "dimension", "--digits", "12", "--nmax", "12")
    assert code == 0
    *csv_part, summary = [ln for ln in out.replace("\r\n", "\n").split("\n") if ln]
    rows = [ln.split(",") for ln in csv_part]
    assert rows[0] == ["n", "count", "log3_count"]
    assert [int(r[1]) for r in rows[1:]] == [2 ** n for n in range(1, 13)]
    meta = json.loads(summary)
    assert meta["digit_set"] == "12"
    assert abs(meta["slope"] - math.log(2, 3)) < 1e-9
    assert meta["abs_error"] < 1e-9


@pytest.mark.parametrize("argv", [["--digits", "013", "--nmax", "0"], ["--digits", "4", "--nmax", "5"],
                                  # 2**15000 has more digits than Python converts to a string
                                  ["--digits", "12", "--nmax", "15000"]])
def test_dimension_bad_arguments_exit_1(capsys, argv):
    code, out, err = run(capsys, "dimension", *argv)
    assert code == 1 and out == "" and "error" in err


def test_dimension_count_too_long_to_print_fails_before_output(capsys):
    # 2**2126 has 640 digits and 2**2127 has 641; a limit of 0 means none
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, "dimension", "--digits", "12", "--nmax", "2127")
        assert code == 1 and out == "" and "640 digits" in err
        code, out, _ = run(capsys, "dimension", "--digits", "12", "--nmax", "2126")
        assert code == 0 and len(out.splitlines()) == 2128
        sys.set_int_max_str_digits(0)
        code, out, _ = run(capsys, "dimension", "--digits", "12", "--nmax", "2127")
        assert code == 0 and len(out.splitlines()) == 2129
    finally:
        sys.set_int_max_str_digits(limit)


def _imported_modules(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(tern4.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, check=True)
    return {ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines() if ln.startswith("import time:")}


def test_numpy_not_imported_by_cli():
    # only the samplers need numpy; everything else starts without it
    assert "numpy" not in _imported_modules("-c", "import tern4, tern4.cli")
    assert "numpy" not in _imported_modules("-m", "tern4.cli", "repr", "1010(12)")
    law = ("1/4", "1/4", "1/4", "1/4")
    assert "numpy" not in _imported_modules("-m", "tern4.cli", "charfn", *law, "--tmax", "2", "--step", "1")
    assert "numpy" not in _imported_modules("-m", "tern4.cli", "lbound", *law, "--N", "2")


@pytest.mark.parametrize("argv", [
    ("charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", "1000", "--step", "0.01"),
    ("lbound", "1/4", "1/4", "1/4", "1/4"),
    ("levelset", "1010(12)"),
    ("repr", "1010(12)"),
    ("dimension", "--digits", "013", "--nmax", "12"),
])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # as in `tern4 charfn ... | head`: the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=str(Path(tern4.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "tern4.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1 and err == ""


def test_levelset_finite(capsys):
    out = run_json(capsys, "levelset", "1010(12)", "--depth", "4")
    assert out["cardinality"] == "finite"
    assert {"exact": "237/1280", "decimal": 0.18515625} in out["members"]


def test_levelset_continuum(capsys):
    out = run_json(capsys, "levelset", "(10)")
    assert out["cardinality"] == "continuum"
    assert out["constraints"] == [{"position": 1, "pair": "10", "alternative": "03"}]


def test_decompose(capsys):
    out = run_json(capsys, "decompose", "1/4", "1/4", "1/4", "1/4")
    assert out["uniform_plus_cantor"] is None
    assert out["cantor_pair"] == {"u": "1/2", "v": "1/2", "u_decimal": 0.5, "v_decimal": 0.5}
    out = run_json(capsys, "decompose", "1/6", "1/3", "1/3", "1/6")
    assert out["uniform_plus_cantor"] == {"x": "1/2", "x_decimal": 0.5}
    assert out["cantor_pair"] is None


def test_series_check(capsys):
    out = run_json(capsys, "series", "--check", "50")
    assert out == {"schema": 1, "kakeya_holds": True, "n_checked": 50}


def test_series_greedy(capsys):
    code, out, _ = run(capsys, "series", "--greedy", "1/2", "--nmax", "12")
    rows = csv_rows(out)
    assert rows[0] == ["bits", "digits", "value"]
    bits, digits, value = rows[1]
    assert len(bits) == 12 and set(bits) <= {"0", "1"}
    assert value == "40/81"


def test_series_greedy_zero_denominator_exits_1(capsys):
    code, out, err = run(capsys, "series", "--greedy", "1/0")
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("series", "--greedy", "-1/2"),            # a negative value, not an option
    ("series", "--greedy", "-.5"),
    ("classify", "-1/4", "1/2", "1/2", "1/4"),
])
def test_series_and_classify_domain_errors_exit_1_before_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_parser_built_once_and_reused_cleanly(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run_json(capsys, "repr", "1010(12)", "--depth", "4")["depth"] == 4
    assert run_json(capsys, "repr", "1010(12)")["depth"] == 10  # the default, not the last value


def test_series_flags_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--check", "5", "--greedy", "1/2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("value, text", [("245/648", "1010(12)"), ("3/2", "(3)"), ("0/1", "(0)")])
def test_repr_of_a_value_is_repr_of_its_largest_expansion(capsys, value, text):
    code, out, err = run(capsys, "repr", value)
    assert code == 0 and err == ""
    assert out == run(capsys, "repr", text)[1]


@pytest.mark.parametrize("argv", [
    ("repr", "1010"),                          # a word with no period
    ("levelset", "1010"),
    ("repr", "1010(12)", "--depth", "3"),      # a depth below the preperiod
    ("levelset", "1010(12)", "--depth", "3"),
    ("repr", "47"),                            # not a digit string
    ("levelset", "47"),
    ("repr", "8/5"),                           # a value outside [0, 3/2]
    ("repr", "-1/2"),                          # a negative value, not an option
    ("repr", "--", "-1/2"),
    ("repr", "1/0"),
    ("levelset", "8/5"),                       # levelset reads digit strings only
])
def test_repr_and_levelset_domain_errors_exit_1_before_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [("repr", "1010(12)"), ("repr", "245/648"), ("repr", "(10)"),
                                  ("levelset", "1010(12)"), ("levelset", "(10)")])
def test_repr_and_levelset_walk_the_residual_graph_once(capsys, monkeypatch, argv):
    calls = []
    census = digits._census
    monkeypatch.setattr(digits, "_census", lambda d: calls.append(d) or census(d))
    run_json(capsys, *argv)
    assert len(calls) == 1


def test_series_value_too_long_to_print_fails_before_output(capsys):
    # the subsum of 4023 ones has a 640-digit numerator and of 4024 ones a 641-digit one
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, "series", "--greedy", "3/2", "--nmax", "4024")
        assert code == 1 and out == "" and "limit" in err
        code, out, _ = run(capsys, "series", "--greedy", "3/2", "--nmax", "4023")
        assert code == 0 and csv_rows(out)[1][0] == "1" * 4023
        sys.set_int_max_str_digits(0)
        code, out, _ = run(capsys, "series", "--greedy", "3/2", "--nmax", "4024")
        assert code == 0 and csv_rows(out)[1][0] == "1" * 4024 + "00"  # padded to whole digits
    finally:
        sys.set_int_max_str_digits(limit)


def test_series_greedy_long_selector_finishes_in_a_second(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "series", "--greedy", "1/3", "--nmax", "100000")
    assert time.perf_counter() - start < 1.0
    bits, word, value = csv_rows(out)[1]
    assert code == 0 and bits == "1" + "0" * 100_001 and value == "1/3"  # padded to 100002 bits
