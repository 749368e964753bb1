"""Spans around calls into tern4's layers, recorded from outside the library.

In a traced run the workload process replaces the public functions listed in
`TRACED` by wrappers that record one span per call: name, start, end, the
index of the enclosing span and, for some functions, a count of the work the
call returned.  Spans stay in memory and are written out when the run ends;
`summarise` turns them into the per-layer metrics.

Helpers called once per factor or term (`measure.phi_factor`,
`series.series_term`, ...) are not wrapped: their time counts in the span of
their caller, and wrapping them would cost more than the work they do.
"""

from __future__ import annotations

import time

TRACED = {
    "cli": ("main",),
    "digits": ("parse", "evaluate", "classify_cardinality", "enumerate_representations",
               "count_expansion_prefixes", "admissible_prefixes"),
    "series": ("greedy_approximate", "eta_subsum_digits", "subsum"),
    "measure": ("classify", "cdf", "charfn", "limsup_lower_bound", "sample_many",
                "decompose_uniform_plus_cantor"),
    "fractal": ("box_dimension", "dimension_target", "level_set", "continuum_levelset_dimension"),
}

#: count of work done, from a call's arguments and result
WORK = {
    "digits.count_expansion_prefixes": lambda args, r: r,
    "digits.admissible_prefixes": lambda args, r: len(r),
    "digits.enumerate_representations": lambda args, r: len(r),
    "measure.cdf": lambda args, r: int(r[1] - r[0] <= args[2]),
    "fractal.box_dimension": lambda args, r: [c for _, c in r.counts],
}

ROUND = "round"

#: per-layer metrics: name -> unit (the names of BENCHMARK.json's per_layer list)
LAYER_METRICS = {
    "cli.main_ms": "ms",
    "cli.import_ms": "ms",
    "cli.cold_start_ms": "ms",
    "digits.classify_cardinality_ms": "ms",
    "digits.enumerate_representations_ms": "ms",
    "digits.count_expansion_prefixes_ms": "ms",
    "digits.admissible_prefixes_ms": "ms",
    "digits.self_share": "ratio",
    "digits.expansions_listed": "count",
    "digits.prefixes_counted": "count",
    "series.greedy_approximate_ms": "ms",
    "measure.cdf_ms": "ms",
    "measure.cdf_points": "count",
    "measure.cdf_within_tol": "ratio",
    "measure.charfn_ms": "ms",
    "measure.limsup_lower_bound_ms": "ms",
    "measure.sample_many_ms": "ms",
    "measure.classify_ms": "ms",
    "fractal.box_dimension_ms": "ms",
    "fractal.cells_counted": "count",
    "fractal.frontier_peak": "count",
    "fractal.level_set_ms": "ms",
}


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter, WORK.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Replace each function in TRACED on its module by a traced wrapper.

        Callers look the functions up on the module at call time (including
        the module's own calls to its functions), so every call is seen.
        """
        for mod_name, names in TRACED.items():
            module = modules[mod_name]
            for fn_name in names:
                setattr(module, fn_name, self.wrap(f"{mod_name}.{fn_name}", getattr(module, fn_name)))

    def clear(self) -> None:
        del self.spans[:]


def summarise(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `rounds` timed rounds.

    `_ms` metrics are the mean duration of one call, except `cli.main_ms`,
    which is self time: the span's duration minus its child spans.  Counts are
    per round.  A function no round called reads 0.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    work: dict[str, list] = {}
    for i, (name, start, end, _, w) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + (end - start - child_time[i])
        if w is not None:
            work.setdefault(name, []).append(w)

    def mean_ms(name: str, table=total) -> float:
        return 1e3 * table[name] / calls[name] if calls.get(name) else 0.0

    round_time = total.get(ROUND, 0.0)
    digits_self = sum(v for k, v in self_total.items() if k.startswith("digits."))
    cdf_within = work.get("measure.cdf", [])
    levels = work.get("fractal.box_dimension", [])
    out = {
        "cli.main_ms": mean_ms("cli.main", self_total),
        "digits.self_share": digits_self / round_time if round_time else 0.0,
        "digits.expansions_listed": sum(work.get("digits.enumerate_representations", [])) / rounds,
        "digits.prefixes_counted": (sum(work.get("digits.count_expansion_prefixes", []))
                                    + sum(work.get("digits.admissible_prefixes", []))) / rounds,
        "measure.cdf_points": len(cdf_within) / rounds,
        "measure.cdf_within_tol": sum(cdf_within) / len(cdf_within) if cdf_within else 0.0,
        "fractal.cells_counted": sum(sum(c) for c in levels) / rounds,
        "fractal.frontier_peak": max((max(c) for c in levels), default=0),
    }
    for metric, unit in LAYER_METRICS.items():
        if metric not in out and metric.endswith("_ms") and not metric.startswith("cli."):
            out[metric] = mean_ms(metric[:-3])
    return out
