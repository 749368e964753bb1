"""Batch command line for the redundant base-3 toolkit: JSON for single results,
RFC-4180 CSV for tables.  Domain errors exit 1, usage errors exit 2.

Numbers are rounded to 15 significant digits: `_dec` gives the float for JSON, `_num` the text
of a CSV field.  A CSV row is written as one string ending in "\r\n", csv.writer's line end;
its fields are numbers, digit words and a/b values, none of which needs quoting."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from tern4 import digits, fractal, measure, series

SCHEMA = 1


def _dec(v) -> float:
    """Decimal form rounded to 15 significant digits, for JSON; a Fraction by one integer
    division, as float()."""
    if type(v) is Fraction:  # not isinstance: Fraction's ABCMeta check is slow for the many floats
        v = v.numerator / v.denominator
    return float(f"{v:.15g}")


def _num(v) -> str:
    """repr(_dec(v)), the CSV field of a number, with one formatting call where it can.

    A decimal of at most 15 significant digits is the only one of that length that rounds to
    its double (DBL_DIG = 15), so repr's shortest digits are those of %.15g and only the layout
    can differ: repr adds ".0" to a whole number, writes [1e15, 1e16) in fixed form and may
    shorten a subnormal.  Those, inf and nan take the slow path.
    """
    if type(v) is Fraction:
        v = v.numerator / v.denominator
    s = f"{v:.15g}"
    if "e+" in s or "n" in s or (v and abs(v) < 1e-300):  # >= 1e15, inf, nan, near-subnormal
        return repr(float(s))
    return s if "." in s or "e" in s else s + ".0"


def _float(x, name: str) -> float:
    """float() of a number text (read by digits._fraction), Fraction or int; ValueError on overflow."""
    try:
        return float(digits._fraction(x))
    except OverflowError:
        raise ValueError(f"{name} is past the float range") from None


def cmd_repr(args) -> int:
    if "/" in args.digitstring:  # a value a/b stands for its lexicographically largest expansion
        d = digits.largest_expansion(args.digitstring)
    else:
        d = digits.parse(args.digitstring)
    card, expand = digits._census(d)  # one walk of the residual graph serves both parts
    value = digits.evaluate(d)
    out = {
        "schema": SCHEMA,
        "input": str(d),
        "value": str(value),
        "value_decimal": _dec(value),
        "cardinality": card.kind.value,
    }
    if card.kind is digits.Cardinality.FINITE:
        out["count"] = card.count
    if card.kind is not digits.Cardinality.CONTINUUM:
        depth = args.depth if args.depth is not None else len(d.preperiod) + 6
        out["depth"] = depth
        out["representations"] = [str(r) for r in expand(depth)]
    print(json.dumps(out))
    return 0


def cmd_classify(args) -> int:
    p = measure.ProbVector.parse(args.p)
    c = measure.classify(p)
    out = {"schema": SCHEMA, "class": c.kind.value}
    if c.kind is measure.DistributionKind.ABSOLUTELY_CONTINUOUS:
        x = measure.decompose_uniform_plus_cantor(p)
        out["x"] = str(x)
        out["x_decimal"] = _dec(x)
        if c.uniform_on is not None:
            out["uniform_on"] = [str(c.uniform_on[0]), str(c.uniform_on[1])]
    if c.dimension is not None:
        out["dimension"] = _dec(c.dimension)
    print(json.dumps(out))
    return 0


def cmd_cdf(args) -> int:
    p = measure.ProbVector.parse(args.p)
    if args.grid < 2:
        raise ValueError("grid needs at least 2 points")
    span = 2 * (args.grid - 1)
    point = measure._cdf_point(p, _float(args.tol, "tol"))  # rejects a bad tolerance before any output
    write = sys.stdout.write
    write("x,lo,hi\r\n")
    # an int / int rounds once, to the float of the exact quotient, as _num of its Fraction does
    for j in range(args.grid):
        lo, hi, den = point(3 * j, span)
        write(f"{_num(3 * j / span)},{_num(lo / den)},{_num(hi / den)}\r\n")
    return 0


def cmd_charfn(args) -> int:
    p = measure.ProbVector.parse(args.p)
    tmax, step = digits._fraction(args.tmax), digits._fraction(args.step)
    s = _float(step, "step")
    if not (s > 0 and tmax >= 0):
        raise ValueError("need step > 0 and tmax >= 0")
    n = tmax // step  # exactly: the grid is t = j * s for j = 0..n, not a running sum
    results = measure.charfn_grid(p, (j * s for j in range(n + 1)), args.K)  # rejects a bad K at once
    measure.truncation_growth(_float(n, "tmax / step") * s, args.K)  # the last t, before any output
    write = sys.stdout.write
    write("t,re,im,abs,tail_bound\r\n")
    for j, r in enumerate(results):
        v = r.value
        write(f"{_num(j * s)},{_num(v.real)},{_num(v.imag)},{_num(abs(v))},{_num(r.tail_bound)}\r\n")
    return 0


def cmd_lbound(args) -> int:
    p = measure.ProbVector.parse(args.p)
    bound = measure.limsup_lower_bound(p, args.N, args.K)
    print(json.dumps({"schema": SCHEMA, "lower_bound": _dec(bound), "N": args.N, "K": args.K}))
    return 0


def cmd_dimension(args) -> int:
    if not set(args.digits).issubset("0123456789"):  # ASCII only: int() also reads other digits
        raise ValueError(f"bad digit set {args.digits!r}")
    digit_set = fractal._checked_digit_set(map(int, args.digits), 3)
    # str() of a count past Python's int-to-string limit raises: check before any conversion.  Two
    # digits or more have N(n) >= 2**n cells, so a level with 2**n >= 10**limit is refused uncounted
    limit = sys.get_int_max_str_digits()  # 0: no limit
    top = 10 ** limit  # made once: a power of 10 with thousands of digits takes tens of microseconds
    uncounted = limit and len(digit_set) > 1 and args.nmax >= (top - 1).bit_length()
    est = None if uncounted else fractal.box_dimension(digit_set, args.nmax)
    if uncounted or limit and max(count for _, count in est.counts) >= top:
        raise ValueError(f"a count has more than {limit} digits, past Python's int-to-string limit "
                         "(sys.set_int_max_str_digits)")
    rows = [f"{n},{count},{_num(math.log(count) / math.log(3))}\r\n" for n, count in est.counts]
    sys.stdout.write("n,count,log3_count\r\n" + "".join(rows))
    target = fractal.dimension_target(digit_set)
    print(json.dumps({
        "schema": SCHEMA,
        "digit_set": "".join(str(c) for c in sorted(set(digit_set))),
        "slope": _dec(est.slope),
        "r2": _dec(est.r2),
        "target": _dec(target),
        "abs_error": _dec(abs(est.slope - target)),
    }))
    return 0


def cmd_levelset(args) -> int:
    d = digits.parse(args.digitstring)
    depth = args.depth if args.depth is not None else len(d.preperiod) + 6
    ls = fractal.level_set(d, depth)
    out = {
        "schema": SCHEMA,
        "input": str(d),
        "cardinality": ls.cardinality.kind.value,
    }
    if ls.cardinality.kind is digits.Cardinality.FINITE:
        out["count"] = ls.cardinality.count
    if ls.members is not None:
        out["depth"] = depth
        out["members"] = [{"exact": str(v), "decimal": _dec(v)} for v in ls.members]
    if ls.constraints is not None:
        out["constraints"] = [
            {"position": pos, "pair": "%d%d" % pair, "alternative": "%d%d" % alt}
            for pos, pair, alt in ls.constraints
        ]
    print(json.dumps(out))
    return 0


def cmd_decompose(args) -> int:
    p = measure.ProbVector.parse(args.p)
    out = {"schema": SCHEMA, "uniform_plus_cantor": None, "cantor_pair": None}
    try:
        x = measure.decompose_uniform_plus_cantor(p)
        out["uniform_plus_cantor"] = {"x": str(x), "x_decimal": _dec(x)}
    except ValueError:
        pass
    try:
        u, v = measure.decompose_cantor_pair(p)
        out["cantor_pair"] = {"u": str(u), "v": str(v),
                              "u_decimal": _dec(u), "v_decimal": _dec(v)}
    except ValueError:
        pass
    print(json.dumps(out))
    return 0


def cmd_series(args) -> int:
    if args.check is not None:
        print(json.dumps({"schema": SCHEMA, "kakeya_holds": series.kakeya_check(args.check),
                          "n_checked": args.check}))
        return 0
    bits = series.greedy_approximate(args.greedy, args.nmax)
    bits += (0,) * (-len(bits) % 3)  # to a multiple of 3; padding leaves the subsum unchanged
    word = series.eta_subsum_digits(bits)
    # str() of a value past Python's int-to-string limit raises: convert before any output
    row = f"{''.join(map(str, bits))},{''.join(map(str, word))},{digits.word_value(word)}\r\n"
    sys.stdout.write("bits,digits,value\r\n" + row)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a minus sign followed by a digit, or by '.' and a digit, as the start of a value, not
    an option (argparse's own test takes only -N and -N.N), so -1/2 fails as a domain error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call to `main`."""
    parser = _Parser(
        prog="tern4",
        description="base-3 numeral system with digits {0,1,2,3}: expansions, "
                    "digit-law distributions, fractal dimensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, read by `main`

    def add_probs(sp):
        sp.add_argument("p", nargs=4, metavar="P",
                        help="digit probabilities, each 'a/b' or a decimal")

    sp = sub.add_parser("repr", help="value, expansion cardinality and expansions of a digit string")
    sp.add_argument("digitstring", help="e.g. '1010(12)', or a value a/b such as 245/648, "
                                        "read as its lexicographically largest expansion")
    sp.add_argument("--depth", type=int, default=None, help="max preperiod length to enumerate")
    sp.set_defaults(func=cmd_repr)

    sp = sub.add_parser("classify", help="distribution type of the digit law")
    add_probs(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("cdf", help="distribution function enclosures on a grid (CSV)")
    add_probs(sp)
    sp.add_argument("--grid", type=int, default=51, help="number of grid points on [0, 3/2]")
    sp.add_argument("--tol", default="1e-4", help="target enclosure width")
    sp.set_defaults(func=cmd_cdf)

    sp = sub.add_parser("charfn", help="characteristic function along a t grid (CSV)")
    add_probs(sp)
    sp.add_argument("--tmax", default="50")
    sp.add_argument("--step", default="0.5")
    sp.add_argument("--K", type=int, default=40, help="number of product factors")
    sp.set_defaults(func=cmd_charfn)

    sp = sub.add_parser("lbound", help="certified lower bound for limsup |charfn|")
    add_probs(sp)
    sp.add_argument("--N", type=int, default=3, help="witnesses 2*pi*n, n = 1..N")
    sp.add_argument("--K", type=int, default=40)
    sp.set_defaults(func=cmd_lbound)

    sp = sub.add_parser("dimension", help="box-counting dimension of a digit-restricted set")
    sp.add_argument("--digits", required=True, help="digit set, e.g. 013")
    sp.add_argument("--nmax", type=int, required=True)
    sp.set_defaults(func=cmd_dimension)

    sp = sub.add_parser("levelset", help="level set of the base-4 reinterpretation map")
    sp.add_argument("digitstring")
    sp.add_argument("--depth", type=int, default=None)
    sp.set_defaults(func=cmd_levelset)

    sp = sub.add_parser("decompose", help="convolution decompositions of the digit law")
    add_probs(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("series", help="governing-series checks and greedy subsums")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", type=int, metavar="N",
                       help="verify term <= remainder for n = 1..N (JSON)")
    group.add_argument("--greedy", metavar="X",
                       help="greedy subsum approximation of X in [0, 3/2] (CSV)")
    sp.add_argument("--nmax", type=int, default=30, help="selector length for --greedy")
    sp.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.commands.get(argv[0]) if argv else None  # None for -h, a typo or no argument
    args, extra = parser.parse_known_args(argv) if sub is None else sub.parse_known_args(argv[1:])
    if extra:  # as parse_args reports them, under the top-level usage line
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    cmd = sub or parser.commands[args.command]  # Python <= 3.12 reads --K=-- as [], and calls no int
    for action in cmd._actions:
        if action.type is int and type(getattr(args, action.dest)) is list:
            cmd.error(f"argument {action.option_strings[0]}: invalid int value: '--'")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left (`tern4 ... | head`): send what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
