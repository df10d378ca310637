"""In-memory span tracing of dpgraph's layers, recorded from outside the package.

Spans are recorded by wrapping the public functions that ``dpgraph.cli``,
``dpgraph.simulation`` and ``dpgraph.estimator`` look up at call time, plus
``mu``/``mu_prime`` of the registered probit model.  Nothing inside the
package changes: ``install`` swaps module attributes for timing wrappers
and ``uninstall`` puts the originals back, so untraced calls run the
package exactly as shipped.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import statistics
import time
from collections import defaultdict

import dpgraph.cli
import dpgraph.estimator
import dpgraph.model
import dpgraph.simulation


def _fit_note(args, fit):
    return (fit.n, fit.iterations, fit.exists, fit.reason)


def _theta_n(args, result):
    return args[0].n


# (module, attribute, span name, note): the note keeps what a span's
# counts need (dimension, iterations, outcome) without holding arrays.
_TARGETS = [
    (dpgraph.cli, "newton_solve", "estimator.newton_solve", _fit_note),
    (dpgraph.cli, "variance_estimates", "estimator.variance_estimates", None),
    (dpgraph.cli, "degrees", "graph.degrees", None),
    (dpgraph.cli, "parse_edge_list", "graph.parse_edge_list", None),
    (dpgraph.cli, "privatize", "privacy.privatize", None),
    (dpgraph.cli, "run_experiment", "simulation.run_experiment", None),
    (dpgraph.simulation, "newton_solve", "estimator.newton_solve", _fit_note),
    (dpgraph.simulation, "variance_estimates", "estimator.variance_estimates", None),
    (dpgraph.simulation, "standardized_stats", "estimator.standardized_stats", None),
    (dpgraph.simulation, "confidence_interval", "estimator.confidence_interval", None),
    (dpgraph.simulation, "sample_graph", "graph.sample_graph", None),
    (dpgraph.simulation, "degrees", "graph.degrees", None),
    (dpgraph.simulation, "expected_bidegree", "graph.expected_bidegree", None),
    (dpgraph.simulation, "privatize", "privacy.privatize", None),
    (dpgraph.simulation, "run_replication", "simulation.run_replication", None),
    (dpgraph.estimator, "moment_residual", "estimator.moment_residual", None),
    (dpgraph.estimator, "jacobian", "estimator.jacobian", _theta_n),
]


@dataclasses.dataclass
class Span:
    span_id: int
    parent_id: int | None
    call_id: int
    name: str
    start_ns: int
    end_ns: int
    note: object = None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans in memory; one ``call_id`` per timed CLI call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list = []
        self.call_id = -1

    def wrap(self, name, fn, note=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(
                Span(
                    span_id,
                    parent,
                    self.call_id,
                    name,
                    start,
                    end,
                    note(args, result) if note else None,
                )
            )
            return result

        return traced

    def install(self, call_id: int) -> None:
        self.call_id = call_id
        for module, attr, name, note in _TARGETS:
            original = getattr(module, attr)
            self._saved.append((module.__dict__, attr, original))
            setattr(module, attr, self.wrap(name, original, note))
        registry = dpgraph.model._MODELS
        probit = registry["probit"]
        self._saved.append((registry, "probit", probit))
        registry["probit"] = dataclasses.replace(
            probit,
            mu=self.wrap("model.mu", probit.mu),
            mu_prime=self.wrap("model.mu_prime", probit.mu_prime),
        )

    def spans_of(self, call_id: int) -> list[Span]:
        return [s for s in self.spans if s.call_id == call_id]

    def uninstall(self) -> None:
        while self._saved:
            namespace, key, original = self._saved.pop()
            namespace[key] = original

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call_id,span_id,parent_id,name,start_ns,end_ns\n")
            for s in self.spans:
                parent = "" if s.parent_id is None else s.parent_id
                fh.write(
                    f"{s.call_id},{s.span_id},{parent},{s.name},{s.start_ns},{s.end_ns}\n"
                )


# Per-layer metrics reported by the traced run, in the order printed.
LAYER_METRICS = {
    "model.mu.ms": "ms",
    "model.mu.calls": "count",
    "model.mu_prime.ms": "ms",
    "model.mu_prime.calls": "count",
    "graph.sample_graph.ms": "ms",
    "graph.degrees.ms": "ms",
    "graph.expected_bidegree.ms": "ms",
    "graph.parse_edge_list.ms": "ms",
    "privacy.privatize.ms": "ms",
    "estimator.newton_solve.ms": "ms",
    "estimator.newton_solve.self_ms": "ms",
    "estimator.jacobian.ms": "ms",
    "estimator.jacobian.calls": "count",
    "estimator.moment_residual.ms": "ms",
    "estimator.moment_residual.calls": "count",
    "estimator.newton_solve.iterations": "count",
    "estimator.newton_solve.iters_1to3": "count",
    "estimator.newton_solve.iters_4": "count",
    "estimator.newton_solve.iters_5": "count",
    "estimator.newton_solve.iters_6": "count",
    "estimator.newton_solve.iters_ge7": "count",
    "estimator.solve.flops_computed": "flop",
    "estimator.dense_bytes_computed": "bytes",
    "estimator.variance_estimates.ms": "ms",
    "estimator.stats.ms": "ms",
    "estimator.fit.exist_ratio": "ratio",
    "estimator.nonexist.range": "count",
    "estimator.nonexist.solver": "count",
    "simulation.run_replication.self_ms": "ms",
    "simulation.run_replication.p50_ms": "ms",
    "simulation.run_replication.p99_ms": "ms",
    "simulation.run_experiment.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# span names whose summed time makes up one metric
_TIME_METRICS = {
    "model.mu.ms": ("model.mu",),
    "model.mu_prime.ms": ("model.mu_prime",),
    "graph.sample_graph.ms": ("graph.sample_graph",),
    "graph.degrees.ms": ("graph.degrees",),
    "graph.expected_bidegree.ms": ("graph.expected_bidegree",),
    "graph.parse_edge_list.ms": ("graph.parse_edge_list",),
    "privacy.privatize.ms": ("privacy.privatize",),
    "estimator.newton_solve.ms": ("estimator.newton_solve",),
    "estimator.jacobian.ms": ("estimator.jacobian",),
    "estimator.moment_residual.ms": ("estimator.moment_residual",),
    "estimator.variance_estimates.ms": ("estimator.variance_estimates",),
    "estimator.stats.ms": (
        "estimator.standardized_stats",
        "estimator.confidence_interval",
    ),
}
_SELF_METRICS = {
    "estimator.newton_solve.self_ms": "estimator.newton_solve",
    "simulation.run_replication.self_ms": "simulation.run_replication",
    "simulation.run_experiment.self_ms": "simulation.run_experiment",
    "cli.main.self_ms": "cli.main",
}
_SOLVER_REASONS = ("max_iter", "diverged", "singular")


def call_counts(spans: list[Span]) -> dict:
    """Exact counts of one traced call; equal for equal inputs."""
    calls = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
    fits = [s.note for s in spans if s.name == "estimator.newton_solve"]
    # a fit refused up front for range takes 0 steps; the histogram counts
    # only fits that ran Newton
    iters = [it for _, it, _, _ in fits if it > 0]
    reasons = [reason for _, _, exists, reason in fits if not exists]
    return {
        "model.mu.calls": calls["model.mu"],
        "model.mu_prime.calls": calls["model.mu_prime"],
        "estimator.jacobian.calls": calls["estimator.jacobian"],
        "estimator.moment_residual.calls": calls["estimator.moment_residual"],
        "estimator.newton_solve.iterations": sum(iters),
        "estimator.newton_solve.iters_1to3": sum(1 for it in iters if it <= 3),
        "estimator.newton_solve.iters_4": iters.count(4),
        "estimator.newton_solve.iters_5": iters.count(5),
        "estimator.newton_solve.iters_6": iters.count(6),
        "estimator.newton_solve.iters_ge7": sum(1 for it in iters if it >= 7),
        # an LU of a d x d matrix costs 2/3 d^3 flops; one per Newton step
        "estimator.solve.flops_computed": sum(
            2 * (2 * n - 1) ** 3 * it // 3 for n, it, _, _ in fits
        ),
        # each Jacobian materializes a dense (2n-1)^2 float64 matrix
        "estimator.dense_bytes_computed": sum(
            8 * (2 * s.note - 1) ** 2 for s in spans if s.name == "estimator.jacobian"
        ),
        "estimator.nonexist.range": reasons.count("range"),
        "estimator.nonexist.solver": sum(reasons.count(r) for r in _SOLVER_REASONS),
        "fits": len(fits),
        "fits_exist": sum(1 for _, _, exists, _ in fits if exists),
        "reasons": {r: reasons.count(r) for r in sorted(set(reasons))},
    }


def _self_ns(spans: list[Span]) -> dict:
    child_ns = defaultdict(int)
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] += s.ns
    out = defaultdict(int)
    for s in spans:
        out[s.name] += s.ns - child_ns[s.span_id]
    return out


def _percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(tracer: Tracer, units_per_call: int, overhead_ratio: float) -> dict:
    """Per-layer figures: times in ms per timed call divided by
    ``units_per_call`` (replications on the simulate workload), counts per
    timed call, medians over the traced calls."""
    by_call = defaultdict(list)
    for s in tracer.spans:
        by_call[s.call_id].append(s)
    per_call = []
    for spans in by_call.values():
        total = defaultdict(int)
        for s in spans:
            total[s.name] += s.ns
        self_ns = _self_ns(spans)
        row = {
            metric: sum(total[n] for n in names)
            for metric, names in _TIME_METRICS.items()
        }
        row.update({metric: self_ns[n] for metric, n in _SELF_METRICS.items()})
        per_call.append(row)

    scale = 1e6 * units_per_call
    out = {
        metric: statistics.median(row[metric] for row in per_call) / scale
        for metric in list(_TIME_METRICS) + list(_SELF_METRICS)
    }
    counts = call_counts(next(iter(by_call.values())))
    out.update({k: v for k, v in counts.items() if k in LAYER_METRICS})
    out["estimator.fit.exist_ratio"] = (
        counts["fits_exist"] / counts["fits"] if counts["fits"] else 0.0
    )
    reps = sorted(s.ns for s in tracer.spans if s.name == "simulation.run_replication")
    out["simulation.run_replication.p50_ms"] = _percentile(reps, 0.5) / 1e6 if reps else 0.0
    out["simulation.run_replication.p99_ms"] = _percentile(reps, 0.99) / 1e6 if reps else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
