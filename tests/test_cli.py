"""CLI contract tests: JSON payloads, CSV tables, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tern4
from tern4 import cli, digits, measure


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


@st.composite
def _small_laws(draw):
    """Four probabilities 'k/d' with one denominator d <= 12, each below 1."""
    d = draw(st.integers(2, 12))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=3, max_size=3)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
    assume(max(parts) < d)
    return tuple(f"{k}/{d}" for k in parts)


@given(_small_laws(), st.integers(2, 60), st.sampled_from(["1e-2", "1e-4", "1e-300"]))
@settings(max_examples=80, deadline=None)
def test_cdf_rows_are_the_library_fractions(law, grid, tol):
    # the CLI prints lo / den from the integer pass; each must be _num of cdf_grid's Fraction
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["cdf", *law, "--grid", str(grid), "--tol", tol]) == 0
    span = 2 * (grid - 1)
    xs = [Fraction(3 * j, span) for j in range(grid)]
    pairs = measure.cdf_grid(measure.ProbVector.parse(law), xs, float(tol))
    want = [f"{cli._num(3 * j / span)},{cli._num(lo)},{cli._num(hi)}" for j, (lo, hi) in enumerate(pairs)]
    assert out.getvalue().split("\r\n") == ["x,lo,hi", *want, ""]


def test_a_five_digit_exponent_exits_1_at_once(capsys):
    # Fraction would build 10**999999999 before any refusal
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "1e999999999", "0", "0", "0")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and err.startswith("error: ")


def test_charfn_csv(capsys):
    code, out, _ = run(capsys, "charfn", "1/4", "1/4", "1/4", "1/4",
                       "--tmax", "2", "--step", "1", "--K", "30")
    rows = csv_rows(out)
    assert rows[0] == ["t", "re", "im", "abs", "tail_bound"]
    assert len(rows) == 4
    assert float(rows[1][1]) == 1.0  # f(0) = 1


@pytest.mark.parametrize("tmax,step,rows", [("1000", "0.1", 10001), ("33.3", "0.01", 3331), ("50", "0.5", 101),
                                             ("16402.1", "1.1", 14912)])
def test_charfn_grid_points_do_not_drift(capsys, tmax, step, rows):
    # 10000 steps of 0.1 added one by one end at 999.900000000159 and miss t = 1000;
    # 14911 * 1.1 = 16402.100000000002 lies past 16402.1 by more than a fixed slack of 1e-12
    code, out, _ = run(capsys, "charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", tmax, "--step", step, "--K", "10")
    ts = [float(r[0]) for r in csv_rows(out)[1:]]
    assert code == 0 and ts == [round(j * float(step), 10) for j in range(rows)]
    assert ts[-1] == float(tmax)


@pytest.mark.parametrize("tmax,step,rows", [("0.99999999999999", "0.5", 2), ("1e-13", "1e-14", 11),
                                             ("0", "1e-13", 1), ("1/2", "1/4", 3)])
def test_charfn_grid_stops_at_tmax(capsys, tmax, step, rows):
    # the grid is t = j * step for j = 0..floor(tmax / step), the quotient taken exactly from the
    # texts; a float slack of 1e-12 * max(1, tmax) used to add a point past a tmax near or below it
    code, out, _ = run(capsys, "charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", tmax, "--step", step, "--K", "10")
    s = float(Fraction(step))
    assert code == 0 and [r[0] for r in csv_rows(out)[1:]] == [cli._num(j * s) for j in range(rows)]
    assert float(csv_rows(out)[-1][0]) <= float(Fraction(tmax))


def _grammar_value(text):
    """The value of an option text under tern4's one grammar, digits._NUMBER, or None."""
    if not digits._NUMBER.fullmatch(text):
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:  # a/0
        return None


def _positive_float(v) -> bool:
    try:
        return float(v) > 0
    except OverflowError:  # past the float range
        return False


def _code_and_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


_OPTION_TEXTS = st.text(alphabet="0123456789./eE+-_ ", max_size=7)


def _text_examples(test):
    # "--" reaches the command as [] on Python <= 3.12: argparse drops it from "--tol=--"
    for text in ("", "-", "--", "-1", "-0", "-e5", " 1", "1 ", "1_0", "1/0", "0/5", "1e-9999", "9e9999",
                 ".5", "5.", "1e5"):
        test = example(text)(test)
    return test


@_text_examples
@given(_OPTION_TEXTS)
@settings(max_examples=300, deadline=None)
def test_tol_text_exits_0_iff_the_grammar_reads_a_positive_float(text):
    # "--tol=T", so that a text starting with "-" is the option's value, not an option
    code, out = _code_and_stdout(["cdf", "1/4", "1/4", "1/4", "1/4", "--grid", "2", f"--tol={text}"])
    v = _grammar_value(text)
    assert code in (0, 1)
    assert (code == 0) == (v is not None and _positive_float(v))
    assert out == "" if code else out.startswith("x,lo,hi\r\n")


@_text_examples
@given(_OPTION_TEXTS)
@settings(max_examples=300, deadline=None)
def test_tmax_text_exits_0_iff_the_grammar_reads_a_value_of_at_least_0(text):
    v = _grammar_value(text)
    assume(v is None or v <= 100)  # at most 101 rows
    code, out = _code_and_stdout(["charfn", "1/4", "1/4", "1/4", "1/4", "--step", "1", "--K", "10",
                                  f"--tmax={text}"])
    assert code in (0, 1)
    assert (code == 0) == (v is not None and v >= 0)
    assert out == "" if code else len(csv_rows(out)) == math.floor(v) + 2  # the header, t = 0..floor(v)


@pytest.mark.parametrize("argv", [
    ["cdf", "--tol", "nan"],
    ["charfn", "--K", "0"],
    ["charfn", "--tmax", "inf"],  # used to loop without end
    ["charfn", "--tmax", "1e22", "--step", "4e21"],  # used to print rows, then fail
    ["cdf", "--grid", "1"],
    ["charfn", "--step", "0"],
    # the option numbers follow the one grammar of digits._fraction, and must fit a float
    ["charfn", "--tmax", " 2"],
    ["charfn", "--step", "1_0"],
    ["cdf", "--tol", " 1e-4"],
    ["cdf", "--tol", "1e999"],
    ["charfn", "--tmax", "infinity"],
    ["charfn", "--tmax", "1e999"],
    ["charfn", "--step", "1e-400"],  # a float step of 0.0 would print t = 0 without end
    ["charfn", "--tmax", "1e300", "--step", "1e-300"],  # 10**600 points: past the float range
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
                                  # one level above nmax/2: a fit of one point used to read slope 0.0
                                  ["--digits", "013", "--nmax", "1"], ["--digits", "013", "--nmax", "2"],
                                  # 2**15000 has more digits than Python converts to a string
                                  ["--digits", "12", "--nmax", "15000"],
                                  ["--digits", "0x", "--nmax", "5"],
                                  ["--digits", "\u0660\u0661", "--nmax", "5"],  # Arabic-Indic 01
                                  ["--digits=--", "--nmax", "5"]])  # [] on Python <= 3.12
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


@pytest.mark.parametrize("argv", [["--digits", "12", "--nmax", "1000000000"],
                                  ["--digits", "0123", "--nmax", "1000000"]])
def test_dimension_count_too_long_to_print_fails_before_counting(capsys, argv):
    # two digits or more have N(n) >= 2**n cells: a level past the limit is refused uncounted
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        start = time.perf_counter()
        code, out, err = run(capsys, "dimension", *argv)
        assert code == 1 and out == "" and "4300 digits" in err
        assert time.perf_counter() - start < 1.0
        code, out, _ = run(capsys, "dimension", "--digits", "2", "--nmax", "20000")  # N(n) = 1
        assert code == 0 and len(out.splitlines()) == 20002
    finally:
        sys.set_int_max_str_digits(limit)


_LAW = ("1/4", "1/4", "1/4", "1/4")


@pytest.mark.parametrize("argv", [["repr", "1010(12)", "--depth=--"], ["levelset", "1010(12)", "--depth=--"],
                                  ["cdf", *_LAW, "--grid=--"], ["charfn", *_LAW, "--K=--"],
                                  ["lbound", *_LAW, "--N=--"], ["lbound", *_LAW, "--K=--"],
                                  ["dimension", "--digits", "12", "--nmax=--"],
                                  ["series", "--greedy", "1/2", "--nmax=--"], ["series", "--check=--"]])
def test_an_integer_option_read_as_dashes_is_a_usage_error(capsys, argv):
    # Python <= 3.12 stores [] for --K=-- and calls no int; 3.13 refuses it as an invalid int
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "invalid int value: '--'" in err


_DBL_MIN, _DBL_MAX = sys.float_info.min, sys.float_info.max
#: where repr's layout leaves %.15g's: whole numbers, [1e15, 1e16), subnormals, the ends of the range
_LAYOUT_EDGES = [0.0, -0.0, 1.0, -3.0, 0.5, 1e-4, 9.99999999999999e-5, 1e-5, 1e14, 123456789012345.0,
                 999999999999999.4, 999999999999999.5, math.nextafter(1e15, 0), 1e15, 3e15,
                 math.nextafter(1e16, 0), 1e16, 1e17, 2.0 ** 53, 1e-300, math.nextafter(1e-300, 0),
                 math.nextafter(_DBL_MIN, 0), _DBL_MIN, math.nextafter(_DBL_MIN, 1), 5e-324, 1e-310,
                 math.nextafter(_DBL_MAX, 0), _DBL_MAX, math.inf, -math.inf, math.nan]


@given(st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                 st.sampled_from(_LAYOUT_EDGES),
                 st.builds(lambda e, m: m * 10.0 ** e, st.integers(-330, 308), st.integers(-9, 9)),
                 st.fractions(max_denominator=10 ** 20),
                 st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 400))))
@settings(max_examples=2000)
@example(Fraction(1, 3))
@example(Fraction(10 ** 15))
@example(Fraction(1, 10 ** 320))
def test_num_is_repr_of_dec(v):
    # the CSV writers print _num(v), where they printed csv.writer's repr of _dec(v)
    assert cli._num(v) == repr(cli._dec(v))


def _imported_modules(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(tern4.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, check=True)
    return {ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines() if ln.startswith("import time:")}


def test_numpy_not_imported_by_cli():
    # numpy is imported by the samplers and the charfn kernel only, so tern4 and every other
    # subcommand start without it; the census round's commands would take their peak memory from
    # about 19 to 32 MB with it.  Every subcommand of the parser is run here.
    assert "numpy" not in _imported_modules("-c", "import tern4, tern4.cli, tern4.measure")
    law = ("1/4", "1/4", "1/4", "1/4")
    runs = {
        "repr": [("1010(12)",)],
        "classify": [law],
        "cdf": [(*law, "--grid", "51")],
        "charfn": [(*law, "--tmax", "2", "--step", "1")],
        "lbound": [(*law, "--N", "2")],
        "dimension": [("--digits", "013", "--nmax", "12")],
        "levelset": [("1010(12)",)],
        "decompose": [law],
        "series": [("--greedy", "1/2"), ("--check", "20")],
    }
    assert set(runs) == set(cli.build_parser().commands)
    for command, argvs in runs.items():
        for argv in argvs:
            imported = "numpy" in _imported_modules("-m", "tern4.cli", command, *argv)
            assert imported == (command in ("charfn", "lbound")), (command, argv)


@pytest.mark.parametrize("argv", [
    ("charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", "1000", "--step", "0.01"),
    ("lbound", "1/4", "1/4", "1/4", "1/4"),
    ("levelset", "1010(12)"),
    ("repr", "1010(12)"),
    ("dimension", "--digits", "013", "--nmax", "12"),
    ("cdf", "1/4", "1/4", "1/4", "1/4"),
    ("series", "--greedy", "1/2"),
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
    # Fraction takes spaces around "/" from Python 3.12 and underscores from 3.11; tern4 takes neither
    ("classify", "1 / 4", "1/4", "1/4", "1/4"),
    ("classify", "1_0/40", "1/4", "1/4", "1/4"),
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


@pytest.mark.parametrize("value, text", [("245/648", "1010(12)"), ("3/2", "(3)"), ("0/1", "(0)"),
                                         ("4/3", "33(0)"), ("11/8", "33(10)")])
def test_repr_of_a_value_is_repr_of_its_largest_expansion(capsys, value, text):
    code, out, err = run(capsys, "repr", value)
    assert code == 0 and err == ""
    assert out == run(capsys, "repr", text)[1]


def test_repr_of_a_value_with_a_long_period_exits_1_at_once(capsys):
    # the largest expansion of 1/10**7 repeats after 500000 digits, past digits._WALK_STATES
    start = time.perf_counter()
    code, out, err = run(capsys, "repr", "1/10000000")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and err.startswith("error: ")


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
    ("repr", "1010(12)\n"),                    # a trailing newline is not part of a digit string
    ("repr", "2 / 3"),                         # one grammar for a/b on every Python: ASCII,
    ("repr", "1_0/30"),                        # no underscores, no spaces
    ("repr", "\u0661/\u0663"),                 # Arabic-Indic digits, which Fraction reads as 1/3
    ("series", "--greedy=--"),                 # argparse gives [] for this text on Python <= 3.12
    ("repr", "0303030303030303030303030303030303(12)"),  # 3,524,578 expansions: too many to list
    ("levelset", "0303030303030303030303030303030303(12)"),
    ("repr", "03" * 100 + "(12)"),             # about 4.5e41 expansions
    ("levelset", "03" * 13 + "(12)"),          # 196,418, the first past digits._WALK_STATES
])
def test_repr_and_levelset_domain_errors_exit_1_before_output(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("repr", "245/648\n"),                    # Fraction would strip the newline
    ("repr", " 245/648"),
    ("repr", "245/648\t"),
    ("series", "--greedy", "1/2\n"),
    ("series", "--greedy", " 1/2"),
])
def test_a_value_with_surrounding_whitespace_exits_1_before_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "whitespace" in err


@pytest.mark.parametrize("token", [" 1/4", "1/4\n"])  # ProbVector.parse would strip both
@pytest.mark.parametrize("command", ["classify", "cdf", "charfn", "lbound", "decompose"])
def test_a_law_token_with_surrounding_whitespace_exits_1_before_output(capsys, command, token):
    code, out, err = run(capsys, command, "1/4", token, "1/4", "1/4")
    assert code == 1 and out == "" and "whitespace" in err


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


def _outcome(capsys, main, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _top_level_main(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--help", "repr"], ["nosuch"], ["nosuch", "-h"], ["-x", "repr"],
    ["repr"], ["repr", "-h"], ["repr", "(0)", "-h", "--bad"], ["cdf", "1/4"], ["series"],
    ["charfn", "1/4", "1/4", "1/4", "1/4", "--K"], ["charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", "2", "--K"],
    ["repr", "1010(12)", "--depth", "x"], ["repr", "1010(12)", "extra"], ["repr", "--de", "5", "1010(12)"],
    ["cdf", "1/4", "1/4", "1/4", "1/4", "--bogus", "x"], ["series", "--check", "5", "--greedy", "1/2"],
    ["repr", "--", "(0)"], ["repr", "1010(12)"], ["series", "--greedy", "1/2", "--nmax", "6"],
])
def test_dispatch_matches_the_top_level_parser(capsys, argv):
    # main hands a known subcommand's arguments to its own parser; exit code, stdout and
    # stderr are those of the top-level parser reading the whole argv
    assert _outcome(capsys, cli.main, argv) == _outcome(capsys, _top_level_main, argv)


def test_no_arguments_in_a_process_exit_2_with_the_usage():
    env = dict(os.environ, PYTHONPATH=str(Path(tern4.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "tern4.cli"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: tern4 ") and "the following arguments are required" in proc.stderr


#: sha1 of the stdout of each command line: README's command lines, then repr and levelset on
#: strings of every cardinality, series --greedy, and cdf of the four benchmark laws
PINNED_STDOUT = [
    (("repr", "1010(12)"), "9b3a569bd427d5b73a773ff1444f3740f88ab439"),
    (("repr", "245/648"), "9b3a569bd427d5b73a773ff1444f3740f88ab439"),
    (("classify", "1/6", "1/3", "1/3", "1/6"), "d587e56c31099f7cebbd8095ea53375f939647bd"),
    (("cdf", "1/3", "1/3", "1/3", "0", "--grid", "51", "--tol", "1e-4"), "4c06e5154967fd1a8870b2b974132903e1000603"),
    (("charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", "50", "--step", "0.5", "--K", "40"),
     "7c437dce8f0d42ebcb57ea520cd05b5de0b49273"),
    (("lbound", "1/4", "1/4", "1/4", "1/4", "--N", "3", "--K", "40"), "2ca99202c36c4df49b5ad0995a7ddb332126dde9"),
    (("dimension", "--digits", "013", "--nmax", "13"), "9afacaa624d80f19236fb441de8a67c5ffee0840"),
    (("levelset", "(10)"), "05ba5fee4f78e15e428f98ed0a492eb79093073b"),
    (("decompose", "1/4", "1/4", "1/4", "1/4"), "844d3e18c9028e874878a3e1f47971a1654cbbe2"),
    (("series", "--check", "100"), "af09195f03024e1ad0e7aa6b5b31ebf62fd75df2"),
    (("series", "--greedy", "1/2", "--nmax", "12"), "66d0ade058656ac39a51eafd4bd9a234c4aac54b"),
    (("repr", "(0)"), "e1acc184f0b2acb5bee2ace2180363791c259efe"),            # unique
    (("repr", "31(12)"), "a90c795dde08b57e6e09e892c953a0e8c6e7ad6f"),         # unique
    (("repr", "1(0)"), "6902a7203ce2db962598b7c90f20d837ca8d579b"),           # countable
    (("repr", "2(3)"), "ffbdb4d92b727f0dae51e91813c01631df8c45ec"),           # countable
    (("repr", "(10)"), "4aa4a6b2ff1a9c58419dff311200f8e8531acac2"),           # continuum
    (("repr", "0(123)"), "5609a6b4ba513a7afc5244d3ae2f237e56a1bfa7"),
    (("levelset", "(0)"), "0e1f8983c17076849e6f2ebdb43b9eedf84f4569"),
    (("levelset", "31(12)"), "e10cd6f9c7c81e3ef5af4f6f201e0cd57f0f404f"),
    (("levelset", "1010(12)"), "19459aca79f381feff27642698ba1947b83d8ac9"),   # finite
    (("levelset", "1(0)"), "c85fb6ddd7b19a4b88f2e51aa8ce45fe9ecc51fb"),
    (("levelset", "2(3)"), "02d2cc23e0b8c3233a95e753396bc5a7525e473a"),
    (("levelset", "0(123)"), "3af4e0cfbd711961692d68e6bdb7b284c2954b21"),
    (("series", "--greedy", "0"), "534718663a0d58603174c04525fe366cd87932a6"),
    (("series", "--greedy", "1/3"), "efc0d6f121d3c335a8feb79f18afd52ba4ecd97e"),
    (("series", "--greedy", "1/2"), "731a800da0bf6ac447a586cff0886b0124750e8c"),
    (("series", "--greedy", "245/648"), "e5cf99d8cd6094e9eb91acf13543b625bcd8650f"),
    (("series", "--greedy", "5/7"), "b89b00f129bf31965f3bacd1e2537b60063b53c0"),
    (("series", "--greedy", "3/2"), "87214c14c0478b36a1db9191c2592dc287fef9c5"),
    (("series", "--greedy", "5/7", "--nmax", "31"), "b08abad49d1d46cdf250448e9fcab3c0ac0d0cc6"),  # padded
    (("cdf", "1/4", "1/4", "1/4", "1/4"), "ee26ef8ea728e559aa9679a64091eebd463ebfbd"),
    (("cdf", "1/6", "1/3", "1/3", "1/6"), "2a8444c62c8916cc5fc52a346bb1bc9109f2bcf9"),
    (("cdf", "1/2", "1/4", "1/4", "0"), "1c58d7f3af632994bd16670e5052ea89dd19a943"),
    (("cdf", "1/2", "0", "0", "1/2"), "d9539441c26b275355e080c59f8f9f58e55073ca"),
    # the rest of the spectral bench calls: float work whose bits the fast paths must keep
    (("classify", "1/4", "1/4", "1/4", "1/4"), "9dcebc0b236843cc95e6cebc96b306a00404d55c"),
    (("classify", "1/2", "1/4", "1/4", "0"), "64180b8bcb99687e516d43dc4ba70f0027556fa1"),
    (("classify", "1/2", "0", "0", "1/2"), "f9a80affc63633682c51046a10dc5a2eaaa80c8a"),
    (("charfn", "1/6", "1/3", "1/3", "1/6", "--tmax", "50", "--step", "0.5", "--K", "40"),
     "ac05d568c2507aba9c1a6809c62cb8b54d79b856"),
    (("charfn", "1/2", "1/4", "1/4", "0", "--tmax", "50", "--step", "0.5", "--K", "40"),
     "d2d526fd03c699725f137b6f339f13bf6a69b983"),
    (("charfn", "1/2", "0", "0", "1/2", "--tmax", "50", "--step", "0.5", "--K", "40"),
     "2b68f1c1b65a1702dcf4d4a2f21e99229ddb8c8d"),
    (("lbound", "1/4", "1/4", "1/4", "1/4", "--N", "10"), "23f5cc4b4db339cf8deed737d766e16f51c9f63c"),
    (("lbound", "1/6", "1/3", "1/3", "1/6", "--N", "10"), "935ccd92647d94192c1b23ae6c2ec606693f16dc"),
    (("lbound", "1/2", "1/4", "1/4", "0", "--N", "10"), "b3fb23f1f5701e1e56f1ecf05fbc0c96f29ceae9"),
    (("lbound", "1/2", "0", "0", "1/2", "--N", "10"), "c0f36ceaa377bbf4a552e9fa1e4c8dc67c42df81"),
    (("dimension", "--digits", "0123", "--nmax", "11"), "09c2193ae982b6686eedd2c894ad7456e1c9cd12"),
    (("dimension", "--digits", "013", "--nmax", "12"), "5efb605658b5bae050be3469facc44ba3c40a045"),
    (("dimension", "--digits", "023", "--nmax", "12"), "62f4dac896267d7a442c2dea087fc57e169e2553"),
    (("dimension", "--digits", "12", "--nmax", "16"), "4c6a68790a5ffe27972a3186aada3876ac2caa93"),
    (("dimension", "--digits", "03", "--nmax", "16"), "07d696bec81723d6d6aabc8566aed3b4fefc3d58"),
    # layouts where repr differs from the 15-digit %g: whole numbers, [1e15, 1e16), extreme tolerances
    (("dimension", "--digits", "0", "--nmax", "3"), "f129d5e1f6de9e01e4cc62fed4607cfdbbacc52c"),
    (("charfn", "1/4", "1/4", "1/4", "1/4", "--tmax", "3e15", "--step", "1e15", "--K", "60"),
     "663875086ccd26f98a62cc2db5b14a90db77917e"),  # prints 1000000000000000.0
    (("cdf", "1/4", "1/4", "1/4", "1/4", "--grid", "2", "--tol", "1e-300"), "321bbdeb3e6dedc6e3559b5f0f871fb0470c7c7b"),
    # the census at longer periods and larger listings; no canonical string of period 3 is countable
    (("repr", "0310(2)"), "c08134e9c866791a0a902e13e8238f94002faff4"),       # countable
    (("levelset", "0310(2)"), "4355c005853c4ffcff21201f1c6d9bb64d425921"),
    (("repr", "(112)"), "a1d85cffae0889703b252f5220e9d550627deee3"),         # unique, period 3
    (("levelset", "(112)"), "db76df4f71a3cca33d36a65bbad7d7e8fd3fa392"),
    (("repr", "10(112)"), "996d1bf82041951b651ee55bb37266462f2362ea"),       # finite, period 3
    (("levelset", "10(112)"), "20ae8f0f6f4c276a1c40e3fd904a3106c5beaa1e"),
    (("repr", "1/1000"), "5781003455b131f8a3c43dd2c29ce45734bbdd73"),        # continuum, period 100
    (("repr", "03" * 8 + "(12)"), "09c50c290813426befdc7ccf094a0b77fb067aa9"),  # 1,597 members
    (("levelset", "03" * 8 + "(12)"), "31ff45b7fd17d2ed4cc5a2b1edd94fa848c1dd5b"),
    (("repr", "4/3"), "f2fdfadd9686064351ae569389fda2a18a562a42"),         # README's upper-state start
]


@pytest.mark.parametrize("argv, sha1", PINNED_STDOUT)
def test_stdout_is_pinned(capsys, argv, sha1):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_every_readme_command_line_is_pinned():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text[text.index("## Command line"):text.index("## Library")]
    lines = [tuple(shlex.split(re.sub(r" *#.*", "", ln))[1:]) for ln in block.splitlines() if ln.startswith("tern4 ")]
    assert lines and set(lines) <= {argv for argv, _ in PINNED_STDOUT}
