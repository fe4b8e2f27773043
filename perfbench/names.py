"""Every metric the benchmark reports, with its unit.

End-to-end metrics are printed by every untraced run of every workload, each
measured on that workload's own operation (see ``workloads.py``), in
host-speed-adjusted time where the probe tracks the work (see ``clock.py``).
Per-layer metrics are printed by every traced run; a layer a workload does
not touch reads 0.  Per-layer values normalised by the workload's operation count
carry a ``/op`` unit; solver counts are per solve of that backend.
"""

from __future__ import annotations

from inputs import ANALYTIC_BACKENDS, SCALES, SOLVE_BACKENDS

#: (name, unit, better, bound).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = [
        ("core.timeline.scalar.calls", "calls/op", "lower"),
        ("core.timeline.scalar.s", "s/op", "lower"),
        ("core.timeline.fast.calls", "calls/op", "lower"),
        ("core.timeline.fast.s", "s/op", "lower"),
        ("core.overlap.s", "s/op", "lower"),
        ("core.precedence.s", "s/op", "lower"),
        ("core.estimators.s.forkjoin", "s/op", "lower"),
        ("core.estimators.s.tripathi", "s/op", "lower"),
    ]
    for backend in ANALYTIC_BACKENDS:
        rows.append((f"core.mva_solver.iterations.{backend}", "count/solve", "lower"))
        rows.append((f"core.mva_solver.unconverged.{backend}", "count/solve", "lower"))
    rows += [
        ("queueing.mva_overlap.calls", "calls/op", "lower"),
        ("queueing.mva_overlap.s", "s/op", "lower"),
        ("queueing.maximum_of.calls", "calls/op", "lower"),
        ("queueing.maximum_of.s", "s/op", "lower"),
        ("hadoop.simulator.run.s", "s/op", "lower"),
        ("hadoop.engine.advance.calls", "calls/op", "lower"),
        ("hadoop.rm.allocate.calls", "calls/op", "lower"),
        ("api.scenario.cache_key.calls", "calls/op", "lower"),
        ("api.scenario.cache_key.s", "s/op", "lower"),
        ("api.scenario.model_input.s", "s/op", "lower"),
    ]
    for counter in SERVICE_COUNTERS:
        better = "higher" if "hits" in counter else "lower"
        rows.append((f"api.service.{counter}", "count/op", better))
    rows += [
        ("api.service.hit_us", "us", "lower"),
        ("api.store.put.calls", "calls/op", "lower"),
        ("api.store.put.s", "s/op", "lower"),
        ("api.store.get.calls", "calls/op", "lower"),
        ("api.store.get.s", "s/op", "lower"),
        ("api.store.open_s", "s/op", "lower"),
        ("api.store.bytes", "bytes", "lower"),
        ("api.sweep.plan.s", "s/op", "lower"),
        ("api.backends.predict_batch.s.aria", "s/op", "lower"),
        ("api.backends.predict_batch.s.herodotou", "s/op", "lower"),
        ("serve.hit_p50_ms", "ms", "lower"),
        ("serve.miss_p50_ms", "ms", "lower"),
        ("serve.http_ms", "ms", "lower"),
        ("serve.rejected", "count", "lower"),
    ]
    for backend in SOLVE_BACKENDS:
        rows.append((f"solve_s.{backend}", "s", "lower"))
        for label, *_ in SCALES:
            rows.append((f"solve_s.{backend}.{label}", "s", "lower"))
    for backend in ANALYTIC_BACKENDS:
        for label, *_ in SCALES:
            rows.append((f"beats_simulator.{backend}.{label}", "count", "higher"))
    rows += [
        ("sweep_cold_points_per_s", "points/s", "higher"),
        ("sweep_warm_points_per_s", "points/s", "higher"),
        ("sweep.warm_share", "ratio", "lower"),
        ("serve_req_per_s", "req/s", "higher"),
        ("serve_p50_ms", "ms", "lower"),
        ("serve_p99_ms", "ms", "lower"),
        ("serve.samples", "count", "higher"),
        ("serve.hit_share", "ratio", "higher"),
        ("failed_frac", "ratio", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.uncovered_share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return tuple(rows)


#: Service counters reported as per-op deltas.
SERVICE_COUNTERS = (
    "memory_hits",
    "store_hits",
    "evaluations",
    "coalesced",
    "batch_calls",
    "batch_points",
    "failures",
)

PER_LAYER = _per_layer()

#: Span names of the shims whose ``calls``/``s`` become per-layer metrics.
SPAN_METRICS = {
    "core.timeline.scalar": ("core.timeline.scalar.calls", "core.timeline.scalar.s"),
    "core.timeline.fast": ("core.timeline.fast.calls", "core.timeline.fast.s"),
    "core.overlap": (None, "core.overlap.s"),
    "core.precedence": (None, "core.precedence.s"),
    "queueing.mva_overlap": ("queueing.mva_overlap.calls", "queueing.mva_overlap.s"),
    "queueing.maximum_of": ("queueing.maximum_of.calls", "queueing.maximum_of.s"),
    "hadoop.simulator.run": (None, "hadoop.simulator.run.s"),
    "hadoop.engine.advance": ("hadoop.engine.advance.calls", None),
    "hadoop.rm.allocate": ("hadoop.rm.allocate.calls", None),
    "api.scenario.cache_key": ("api.scenario.cache_key.calls", "api.scenario.cache_key.s"),
    "api.scenario.model_input": (None, "api.scenario.model_input.s"),
    "api.store.put": ("api.store.put.calls", "api.store.put.s"),
    "api.store.get": ("api.store.get.calls", "api.store.get.s"),
    "api.store.open": (None, "api.store.open_s"),
    "api.sweep.plan": (None, "api.sweep.plan.s"),
    "api.backends.predict_batch.aria": (None, "api.backends.predict_batch.s.aria"),
    "api.backends.predict_batch.herodotou": (None, "api.backends.predict_batch.s.herodotou"),
}
#: Estimator spans report self time (their ``maximum_of`` children excluded).
SELF_TIME_METRICS = {
    "core.estimators.forkjoin": "core.estimators.s.forkjoin",
    "core.estimators.tripathi": "core.estimators.s.tripathi",
}


def layer_values(summary: dict, ops: int) -> dict[str, float]:
    """Per-op per-layer metrics from a span summary (absent spans read 0)."""
    values: dict[str, float] = {}
    for span, (calls_name, seconds_name) in SPAN_METRICS.items():
        row = summary.get(span, {"calls": 0, "s": 0.0})
        if calls_name:
            values[calls_name] = row["calls"] / ops
        if seconds_name:
            values[seconds_name] = row["s"] / ops
    for span, name in SELF_TIME_METRICS.items():
        values[name] = summary.get(span, {"self_s": 0.0})["self_s"] / ops
    return values
