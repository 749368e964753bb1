"""tern4 benchmark: run one workload in a fresh process, check it, print metrics.

    python3 bench/run.py --workload census_grid --seed 1 --seconds 55 --trace 0

Workloads: census_grid and spectral_dimension (see README.md).  One
operation is one round, the workload's whole fixed mix of calls.  One client
runs rounds back to back (a closed loop) in one single-threaded process for
--seconds seconds, after untimed warm-up rounds.  The first round's outputs
are checked against computations made apart from tern4 (`oracles.py`), and
every timed round must repeat them exactly.

Every round is followed by a few passes of a fixed reference kernel
(`reference.py`), and `round_cost_ref` is a round's mean time in units of one
pass, which keeps the program's cost and drops most of the host's speed
swings.  The last line of stdout is one JSON object: `correct`, `attempted`
(timed rounds), `failed` (rounds in which a call raised or exited non-zero)
and `metrics`, the end-to-end metrics of BENCHMARK.json with --trace 0 and
the per-layer metrics with --trace 1.  The line before it also gives the
wall-clock rounds per second, the p50 and p90 round latency and the time of
a reference pass, which the host's speed swings make too unsteady to gate on
(README.md).  Run from anywhere: tern4 is imported from the `src`
directory next to this one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import rounds
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
WORKLOAD_PY = Path(__file__).resolve().parent / "workload.py"
SETUP_PROBES = 4           # set-up-only processes before and again after the timed run
STARTUP_SAMPLES = 5        # subprocess samples for cli.import_ms and cli.cold_start_ms
CHILD_GRACE_S = 120        # a workload process gets --seconds plus this before it is killed
PROBE_TIMEOUT_S = 60


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _workload_process(args, mode: str, spans_path: Path, timeout: float) -> dict:
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKLOAD_PY), args.workload, str(args.seed),
                             str(args.seconds), str(args.trace), repr(launched), mode, str(spans_path)],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: the {args.workload} process ran past {timeout:.0f} s and was stopped")
    if proc.returncode != 0:
        raise SystemExit(f"bench: the {args.workload} process exited with {proc.returncode}")
    return json.loads(out)


def _wall_ms(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, env=_child_env(), cwd=ROOT,
                   timeout=PROBE_TIMEOUT_S)
    return 1e3 * (time.perf_counter() - t0)


def startup_metrics() -> dict[str, float]:
    """cli.import_ms and cli.cold_start_ms, each a median over fresh processes."""
    bare, imported, cold = [], [], []
    for _ in range(STARTUP_SAMPLES):
        bare.append(_wall_ms([sys.executable, "-c", "pass"]))
        imported.append(_wall_ms([sys.executable, "-c", "import tern4"]))
        cold.append(_wall_ms([sys.executable, "-m", "tern4.cli", "classify", *rounds.LAWS["uniform"]]))
    return {
        "cli.import_ms": statistics.median(imported) - statistics.median(bare),
        "cli.cold_start_ms": statistics.median(cold),
    }


def round_cost_ref(result: dict) -> float:
    """Mean round time over the mean time of a reference pass (reference.py)."""
    if not result["latencies_s"]:
        raise SystemExit("bench: no round completed, so there is no round cost to report")
    return statistics.fmean(result["latencies_s"]) / result["reference_pass_s"]


def end_to_end(setups: list[float], result: dict) -> dict[str, float]:
    """setup_s is the median over the run's own process and the probes."""
    return {
        "setup_s": statistics.median(setups),
        "round_cost_ref": round_cost_ref(result),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


UNITS = {"setup_s": "s", "round_cost_ref": "ref", "peak_rss_mb": "MB", **tracing.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=rounds.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tern4" / "__init__.py").is_file():
        print(f"bench: no tern4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"

    def probes() -> list[float]:
        # probes on both sides of the run sample more of the host's speed swings
        return [] if args.trace else [_workload_process(args, "setup", spans_path, PROBE_TIMEOUT_S)["setup_s"]
                                      for _ in range(SETUP_PROBES)]

    setups = probes()
    result = _workload_process(args, "run", spans_path, args.seconds + CHILD_GRACE_S)
    setups += probes() + [result["setup_s"]]

    calls = rounds.build_round(args.workload, args.seed)
    failures = checks.check(calls, result["outputs"])
    if result["mismatched"]:
        failures.append(f"{result['mismatched']} timed rounds gave outputs other than the checked round")
    for msg in result["errors"] + failures:
        print(f"bench: {msg}", file=sys.stderr)

    completed = result["attempted"] - result["failed"]
    if args.trace:
        spans = json.loads(spans_path.read_text())
        metrics = tracing.summarise(spans, max(completed, 1))
        metrics.update(startup_metrics())
    else:
        metrics = end_to_end(setups, result)
    lat_ms = [1e3 * v for v in result["latencies_s"]]
    latency = (f", round latency p50 {statistics.median(lat_ms):.1f} ms p90 "
               f"{statistics.quantiles(lat_ms, n=10)[-1]:.1f} ms" if len(lat_ms) >= 2 else "")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {completed} rounds in "
          f"{result['window_s']:.2f} s ({completed / result['window_s']:.3f} rounds/s{latency}), "
          f"reference pass {1e3 * result['reference_pass_s']:.3f} ms, round cost "
          f"{round_cost_ref(result):.2f} ref, "
          f"{len(calls)} calls per round, {len(failures)} check failures")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
