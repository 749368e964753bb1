"""One workload in one fresh process: set up, warm up, run timed rounds, report.

    python3 bench/workload.py WORKLOAD SEED SECONDS TRACE LAUNCHED MODE SPANS

`run.py` starts this process.  LAUNCHED is the parent's `time.monotonic()`
just before the start, so `setup_s` covers interpreter start, `import tern4`
and building the seeded inputs, up to the first call into tern4.  MODE
``setup`` stops there and reports `setup_s` and the loaded modules; MODE
``run`` goes on to the rounds, each followed by passes of the reference
kernel (`reference.py`), and prints one JSON object with the latencies, the
mean time of a reference pass, the counts and the outputs of the first round,
which run.py checks.

Until `setup_s` is taken this imports only what the interpreter and tern4
import themselves, so the benchmark adds nothing to the time it measures.
"""

import contextlib
import io
import json
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

WARMUP_ROUNDS = 2


def _fingerprint(value):
    """Comparable form of an output (arrays compare by their bytes)."""
    return value.tobytes() if hasattr(value, "tobytes") else value


def _export(value):
    """JSON form of an output: fractions as 'a/b', arrays and tuples as lists."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if is_dataclass(value):
        return _export(asdict(value))
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_export(v) for v in value]
    if isinstance(value, dict):
        return {k: _export(v) for k, v in value.items()}
    return value


def _bind(call, tern4_modules):
    """A no-argument callable that makes `call`; module functions are looked up now,
    so wrappers installed by the tracer are the ones called."""
    kind, target, args = call
    cli = tern4_modules["cli"]
    if kind == "cli":
        def run_cli():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(args)
            if code != 0:
                raise RuntimeError(f"tern4 {' '.join(args)} exited with {code}")
            return buf.getvalue()
        return run_cli
    mod_name, fn_name = target.split(".")
    fn = getattr(tern4_modules[mod_name], fn_name)
    if mod_name == "digits":
        args = (Fraction(args[0]),) + tuple(args[1:])
    elif mod_name == "measure":
        args = (tern4_modules["measure"].ProbVector.parse(args[0]),) + tuple(args[1:])
    return lambda: fn(*args)


def main(argv) -> int:
    workload, seed, seconds, trace, launched, mode, spans_path = argv
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from tern4 import cli, digits, fractal, measure, series

    import rounds

    calls = rounds.build_round(workload, int(seed))
    setup_s = time.monotonic() - float(launched)

    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "modules": sorted(sys.modules),
                          "tern4": os.path.dirname(cli.__file__)}))
        return 0

    modules = {"cli": cli, "digits": digits, "fractal": fractal, "measure": measure, "series": series}
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(modules)
    ops = [_bind(c, modules) for c in calls]

    def run_round():
        return [op() for op in ops]

    if tracer is not None:
        run_round = tracer.wrap(tracing.ROUND, run_round)

    errors: list[str] = []
    checked = None

    def attempt():
        try:
            return run_round()
        except (Exception, SystemExit) as exc:  # a failed call fails its round; the run goes on
            if len(errors) < 5:
                errors.append(f"{type(exc).__name__}: {exc}")
            return None

    for _ in range(WARMUP_ROUNDS):
        outs = attempt()
        if checked is None and outs is not None:
            checked = outs
            expected = [_fingerprint(v) for v in outs]
    if tracer is not None:
        tracer.clear()

    from reference import PASSES, timed_passes

    timed_passes()
    latencies: list[float] = []
    reference_s = 0.0
    attempted = failed = mismatched = 0
    budget = float(seconds)
    start = last = time.perf_counter()
    while last - start < budget:
        t0 = time.perf_counter()
        outs = attempt()
        t1 = time.perf_counter()
        reference_s += timed_passes()
        last = time.perf_counter()
        attempted += 1
        if outs is None:
            failed += 1
            continue
        latencies.append(t1 - t0)
        if checked is None:
            checked = outs
            expected = [_fingerprint(v) for v in outs]
        elif [_fingerprint(v) for v in outs] != expected:
            mismatched += 1
    window_s = last - start

    import resource

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    json.dump({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "errors": errors,
        "window_s": window_s,
        "latencies_s": latencies,
        "reference_pass_s": reference_s / (attempted * PASSES),
        "peak_rss_kb": peak_rss_kb,
        "outputs": None if checked is None else _export(checked),
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
