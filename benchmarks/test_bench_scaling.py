"""Perf-regression bench for the simulator hot path and the overlap MVA.

Unlike the figure benches (which check *what* the simulator computes), this
bench tracks *how fast* it computes it: it times single-job simulator runs at
8/16/32 nodes plus one overlap-MVA model solve and prints one machine-readable
``BENCH_SCALING {json}`` line per scenario, so the perf trajectory can be
compared across PRs by grepping CI logs.

It also tracks the prediction-service scaling path: a 32-node multi-scenario
suite under thread vs. process execution (the speedup line the ROADMAP's
process-pool item asks for), a store-backed cold/warm restart (the warm run
must perform zero backend evaluations), an iterative-ML comparison across
all six backends, and the batched-sweep engine: per-scenario vs. one-call
``predict_batch`` throughput over a dense static-backend grid, MVA grid
warm-starting (fewer A2–A6 iterations, same totals), and scheduler-driven
cold vs. warm sweep throughput.  The ``model_layers`` line times cold solves
of the three analytic backends and the simulator at 8n / 16n×4 / 32n and
pins their iteration and ``maximum_of`` integration counts.

Set ``BENCH_SMOKE=1`` to run only the smallest scenario (used by CI on every
push, where timing noise makes the larger scenarios uninformative).

Reference points (this machine class): the pre-incremental engine needed
~0.06 s / ~0.70 s / ~6.6 s for the 8/16/32-node scenarios; the incremental
core runs them in ~0.01 s / ~0.05 s / ~0.35 s.  The asserted ceilings are
~10x above the incremental numbers: they only catch order-of-magnitude
regressions, not scheduler noise.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time

import pytest

from repro.api import PredictionService, Scenario, ScenarioSuite, SweepScheduler, create_backend
from repro.core import EstimatorKind, Hadoop2PerformanceModel, estimators
from repro.core.mva_solver import DEFAULT_EPSILON
from repro.units import gigabytes, megabytes
from repro.workloads import (
    model_input_from_profile,
    paper_cluster,
    paper_scheduler,
    wordcount_profile,
)

BENCH_SEED = 2017

#: (label, num_nodes, input GiB, reduces, wall-clock ceiling in seconds).
SCENARIOS = [
    ("sim_8n_4g", 8, 4, 8, 2.0),
    ("sim_16n_16g", 16, 16, 16, 5.0),
    ("sim_32n_64g", 32, 64, 32, 30.0),
]


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _emit(record: dict) -> None:
    print(f"BENCH_SCALING {json.dumps(record, sort_keys=True)}")


def time_simulator_run(num_nodes: int, input_gb: int, num_reduces: int) -> dict:
    """Run one single-job simulation and return its timing record."""
    from repro.hadoop import ClusterSimulator

    profile = wordcount_profile(duration_cv=0.3)
    simulator = ClusterSimulator(
        paper_cluster(num_nodes), paper_scheduler(), seed=BENCH_SEED
    )
    job_config = profile.job_config(
        input_size_bytes=gigabytes(input_gb),
        block_size_bytes=megabytes(128),
        num_reduces=num_reduces,
    )
    simulator.submit_job(job_config, profile.simulator_profile())
    started = time.perf_counter()
    result = simulator.run()
    elapsed = time.perf_counter() - started
    return {
        "num_nodes": num_nodes,
        "input_gb": input_gb,
        "elapsed_seconds": elapsed,
        "makespan": result.makespan,
        "tasks": sum(len(trace.tasks) for trace in result.job_traces),
    }


def time_overlap_mva_solve() -> dict:
    """Solve the analytic model once (overlap MVA inside) and time it."""
    profile = wordcount_profile()
    cluster = paper_cluster(8)
    job_config = profile.job_config(gigabytes(8), megabytes(128), 8)
    model_input = model_input_from_profile(profile, cluster, job_config, num_jobs=2)
    started = time.perf_counter()
    prediction = Hadoop2PerformanceModel(model_input).predict(EstimatorKind.FORK_JOIN)
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "iterations": prediction.iterations,
        "estimate": prediction.job_response_time,
    }


def test_bench_simulator_scaling():
    scenarios = SCENARIOS[:1] if _smoke_mode() else SCENARIOS
    print()
    for label, num_nodes, input_gb, num_reduces, ceiling in scenarios:
        record = time_simulator_run(num_nodes, input_gb, num_reduces)
        record["bench"] = label
        _emit(record)
        assert record["makespan"] > 0
        assert record["elapsed_seconds"] < ceiling, (
            f"{label}: simulation took {record['elapsed_seconds']:.2f}s "
            f"(ceiling {ceiling}s) — hot-path regression?"
        )


def _service_suite() -> ScenarioSuite:
    """The multi-scenario suite behind the service-layer benches.

    Smoke mode shrinks it to 4 nodes so CI stays fast; the full bench is the
    32-node sweep the ROADMAP's scaling item targets.
    """
    if _smoke_mode():
        base = Scenario(
            workload="wordcount",
            num_nodes=4,
            input_size_bytes=megabytes(256),
            num_reduces=4,
            repetitions=1,
            seed=BENCH_SEED,
        )
        return ScenarioSuite.from_sweep(
            "bench-suite", base, input_size_bytes=[megabytes(256), megabytes(512)]
        )
    base = Scenario(
        workload="wordcount",
        num_nodes=32,
        input_size_bytes=gigabytes(8),
        num_reduces=32,
        repetitions=1,
        seed=BENCH_SEED,
    )
    return ScenarioSuite.from_sweep(
        "bench-suite",
        base,
        input_size_bytes=[gigabytes(8), gigabytes(16), gigabytes(24), gigabytes(32)],
    )


def _time_suite(
    suite: ScenarioSuite, **service_kwargs
) -> tuple[float, list[float], PredictionService]:
    service = PredictionService(backends=["simulator"], **service_kwargs)
    started = time.perf_counter()
    result = service.evaluate_suite(suite, ["simulator"])
    elapsed = time.perf_counter() - started
    return elapsed, result.series("simulator"), service


def test_bench_suite_execution_modes():
    """Thread vs. process fan-out over the multi-scenario suite."""
    suite = _service_suite()
    thread_seconds, thread_series, _ = _time_suite(suite, execution="thread")
    process_seconds, process_series, _ = _time_suite(suite, execution="process")
    record = {
        "bench": "suite_exec_32n" if not _smoke_mode() else "suite_exec_smoke",
        "scenarios": len(suite),
        "num_nodes": suite.scenarios[0].num_nodes,
        "thread_seconds": thread_seconds,
        "process_seconds": process_seconds,
        "speedup": thread_seconds / process_seconds if process_seconds > 0 else 0.0,
        "cpus": os.cpu_count(),
    }
    print()
    _emit(record)
    # Determinism across executors is the hard invariant; the speedup is
    # hardware-dependent, so it is asserted only where it can exist.
    assert process_series == thread_series
    if not _smoke_mode() and (os.cpu_count() or 1) >= 4:
        assert process_seconds < thread_seconds, (
            f"process fan-out ({process_seconds:.2f}s) should beat the GIL-bound "
            f"thread pool ({thread_seconds:.2f}s) on {os.cpu_count()} cores"
        )


def test_bench_store_warm_restart():
    """Store-backed restart: the warm run performs zero backend evaluations."""
    suite = _service_suite()
    with tempfile.TemporaryDirectory() as store_path:
        cold_seconds, cold_series, cold_service = _time_suite(suite, store=store_path)
        warm_seconds, warm_series, warm_service = _time_suite(suite, store=store_path)
        record = {
            "bench": "store_warm_restart",
            "scenarios": len(suite),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "cold_evaluations": cold_service.stats().evaluations,
            "warm_evaluations": warm_service.stats().evaluations,
            "store_records": len(cold_service.store),
        }
    print()
    _emit(record)
    assert warm_series == cold_series
    assert record["cold_evaluations"] == len(suite)
    assert record["warm_evaluations"] == 0, "warm store run re-evaluated a backend"


def test_bench_iterative_compare():
    """The iterative/ML workload through all six backends (compare-style)."""
    scenario = Scenario(
        workload="iterative-ml",
        num_nodes=4 if _smoke_mode() else 8,
        input_size_bytes=megabytes(512) if _smoke_mode() else gigabytes(4),
        num_reduces=4,
        repetitions=1,
        seed=BENCH_SEED,
    )
    service = PredictionService()
    started = time.perf_counter()
    comparison = service.compare(scenario)
    elapsed = time.perf_counter() - started
    record = {
        "bench": "iterative_ml_compare",
        "num_nodes": scenario.num_nodes,
        "elapsed_seconds": elapsed,
        "totals": {
            name: result.total_seconds
            for name, result in sorted(comparison.results.items())
        },
    }
    print()
    _emit(record)
    assert all(total > 0 for total in record["totals"].values())
    assert len(record["totals"]) == 6


#: The three static backends of the batched-sweep benches.
STATIC_BACKENDS = ["aria", "herodotou", "vianna"]


def _static_sweep_suite() -> ScenarioSuite:
    """Dense static-backend grid: ≥200 scenarios in full mode, 6 in smoke."""
    base = Scenario(workload="wordcount", num_reduces=16, repetitions=1, seed=BENCH_SEED)
    if _smoke_mode():
        return ScenarioSuite.from_sweep(
            "batched-sweep",
            base,
            num_nodes=[4, 8],
            input_size_bytes=[gigabytes(2), gigabytes(4), gigabytes(6)],
        )
    return ScenarioSuite.from_sweep(
        "batched-sweep",
        base,
        num_nodes=[4, 6, 8, 12, 16, 24, 32, 48],
        input_size_bytes=[gigabytes(g) for g in range(2, 28)],
    )


def test_bench_batched_sweep():
    """Per-scenario vs. batched evaluation of the static-backend grid.

    The invariants asserted here are *deterministic work counters*, not
    wall-clock: every point evaluates exactly once on each path, the batched
    path dispatches exactly one ``predict_batch`` per backend and routes
    every point through it, and the two paths agree numerically.  The
    wall-clock speedup is reported in the ``BENCH_SCALING`` line for trend
    tracking but deliberately not asserted — under the full suite run the
    scalar and batched timings share the machine with whatever pytest
    scheduled alongside, and a load-dependent ratio assertion flakes (the
    old ``speedup >= 5.0`` floor failed exactly that way: full-run only,
    never in isolation).
    """
    suite = _static_sweep_suite()
    scalar_service = PredictionService(backends=STATIC_BACKENDS, batch=False)
    started = time.perf_counter()
    scalar = scalar_service.evaluate_suite(suite, STATIC_BACKENDS)
    scalar_seconds = time.perf_counter() - started
    started = time.perf_counter()
    batched_service = PredictionService(backends=STATIC_BACKENDS)
    batched = batched_service.evaluate_suite(suite, STATIC_BACKENDS)
    batched_seconds = time.perf_counter() - started
    speedup = scalar_seconds / batched_seconds if batched_seconds > 0 else 0.0
    points = len(suite) * len(STATIC_BACKENDS)
    batched_stats = batched_service.stats()
    record = {
        "bench": "batched_sweep",
        "scenarios": len(suite),
        "points": points,
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,  # reported, not asserted: load-dependent
        "scalar_evaluations": scalar_service.stats().evaluations,
        "batched_evaluations": batched_stats.evaluations,
        "batch_calls": batched_stats.batch_calls,
        "batch_points": batched_stats.batch_points,
    }
    print()
    _emit(record)
    for name in STATIC_BACKENDS:
        # abs term: warm-started vianna may sit up to ~10*epsilon from the
        # cold fixed point (same bound as the mva_warm_start bench).
        for scalar_value, batched_value in zip(scalar.series(name), batched.series(name)):
            assert batched_value == pytest.approx(
                scalar_value, rel=1e-9, abs=10 * DEFAULT_EPSILON
            )
    # The work-shape invariants the wall-clock ratio was a proxy for:
    # both paths evaluate each point exactly once, and the batched path
    # really is batched — one dispatch per backend covering every point.
    assert record["scalar_evaluations"] == points
    assert record["batched_evaluations"] == points
    assert record["batch_calls"] == len(STATIC_BACKENDS)
    assert record["batch_points"] == points
    assert batched_stats.batch_fallbacks == 0


def test_bench_mva_warm_start():
    """Grid-ordered MVA warm starts: fewer A2–A6 iterations, same totals."""
    base = Scenario(workload="wordcount", num_reduces=8, num_jobs=2, repetitions=1, seed=BENCH_SEED)
    sizes = [1, 2, 3, 4, 6, 8, 12, 16] if not _smoke_mode() else [1, 2, 3, 4]
    nodes = [2, 3, 4, 6] if not _smoke_mode() else [2, 3]
    grid = [
        base.with_updates(num_nodes=node_count, input_size_bytes=size * megabytes(256))
        for node_count in nodes
        for size in sizes
    ]
    record = {"bench": "mva_warm_start", "points": len(grid)}
    print()
    for name in ("mva-forkjoin", "mva-tripathi"):
        backend = create_backend(name)
        started = time.perf_counter()
        cold = [backend.predict(scenario) for scenario in grid]
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm = backend.predict_batch(grid)
        warm_seconds = time.perf_counter() - started
        cold_iterations = sum(result.metadata["iterations"] for result in cold)
        warm_iterations = sum(result.metadata["iterations"] for result in warm)
        max_diff = max(
            abs(cold_result.total_seconds - warm_result.total_seconds)
            for cold_result, warm_result in zip(cold, warm)
        )
        record[name] = {
            "cold_iterations": cold_iterations,
            "warm_iterations": warm_iterations,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "max_abs_diff": max_diff,
        }
        # Warm starts must converge to the cold-start fixed point.  Epsilon
        # bounds the *successive-iterate* delta, not the distance between two
        # independently converged runs (each can sit ~delta/(1-rate) from the
        # true fixed point), so the guard allows a small multiple; measured
        # drift on this grid is ~8e-9, well inside one epsilon.
        assert max_diff <= 10 * DEFAULT_EPSILON, (
            f"{name}: warm-start totals drifted {max_diff:.2e}s from cold starts"
        )
        # ...in strictly fewer total iterations over the grid.
        assert warm_iterations < cold_iterations, (
            f"{name}: warm starts took {warm_iterations} iterations "
            f"vs {cold_iterations} cold"
        )
    _emit(record)


def test_bench_sweep_scheduler():
    """Scheduler-driven sweep: cold store vs. warm (resumed) re-run."""
    suite = _static_sweep_suite()
    if not _smoke_mode():
        # The cold-vs-warm contrast doesn't need the full 200-point grid.
        suite = ScenarioSuite("sweep-sched", suite.scenarios[::4])
    with tempfile.TemporaryDirectory() as store_path:
        cold_scheduler = SweepScheduler(
            PredictionService(backends=STATIC_BACKENDS, store=store_path)
        )
        started = time.perf_counter()
        cold = cold_scheduler.run(suite, STATIC_BACKENDS)
        cold_seconds = time.perf_counter() - started
        warm_scheduler = SweepScheduler(
            PredictionService(backends=STATIC_BACKENDS, store=store_path)
        )
        started = time.perf_counter()
        warm = warm_scheduler.run(suite, STATIC_BACKENDS)
        warm_seconds = time.perf_counter() - started
    points = len(suite) * len(STATIC_BACKENDS)
    record = {
        "bench": "sweep_scheduler",
        "points": points,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_missing": len(cold.plan.missing),
        "warm_missing": len(warm.plan.missing),
        "cold_evaluations": cold.evaluated_points,
        "warm_evaluations": warm.evaluated_points,
        "cold_points_per_second": points / cold_seconds if cold_seconds > 0 else 0.0,
        "warm_points_per_second": points / warm_seconds if warm_seconds > 0 else 0.0,
    }
    print()
    _emit(record)
    assert record["cold_missing"] == points
    assert record["warm_missing"] == 0, "warm plan still reports missing points"
    assert record["warm_evaluations"] == 0, "warm scheduler re-evaluated a point"
    assert warm.result.series("vianna") == cold.result.series("vianna")


def test_bench_faulted_sweep():
    """Sweep under 10% injected transient faults vs. the fault-free run.

    The resilience-layer headline: with seeded fault injection at a 10%
    transient rate, the retried sweep must finish complete, bit-identical to
    the clean run, with zero duplicate evaluations (each point's backend
    succeeds exactly once) and zero duplicate store records — and the retry
    overhead must stay bounded (the faults are cheap, so wall-clock may not
    exceed ~5x the clean run even on a noisy CI box).
    """
    from repro.api import RetryPolicy, SqliteResultStore
    from repro.testing import FaultInjector, FaultSpec, inject_backend_faults

    backends = ["aria", "herodotou"]
    node_counts = list(range(2, 10)) if _smoke_mode() else list(range(2, 34))
    suite = ScenarioSuite.from_sweep(
        "faulted-sweep",
        Scenario(
            workload="wordcount",
            input_size_bytes=megabytes(512),
            num_reduces=8,
            repetitions=1,
            seed=BENCH_SEED,
        ),
        num_nodes=node_counts,
    )
    points = len(suite) * len(backends)

    fault_rate = 0.10
    spec = FaultSpec(
        transient_rate=fault_rate,
        latency_rate=0.05,
        latency_seconds=0.001,
        seed=BENCH_SEED,
    )
    injector = FaultInjector(spec)
    with tempfile.TemporaryDirectory() as clean_store, tempfile.TemporaryDirectory() as store_path:
        # The clean run persists too, so the overhead ratio isolates the cost
        # of injected faults + retries rather than store writes.
        started = time.perf_counter()
        clean = PredictionService(
            backends=backends, store=clean_store, batch=False
        ).evaluate_suite(suite, backends)
        clean_seconds = time.perf_counter() - started

        with inject_backend_faults("aria", injector), inject_backend_faults(
            "herodotou", injector
        ):
            service = PredictionService(
                backends=backends,
                retry=RetryPolicy(
                    max_attempts=6, base_delay=0.001, max_delay=0.01, seed=BENCH_SEED
                ),
                store=store_path,
                batch=False,  # per-point injection exercises the retry loop
            )
            started = time.perf_counter()
            faulted = service.evaluate_suite(suite, backends)
            faulted_seconds = time.perf_counter() - started
        stored_records = SqliteResultStore(store_path).refresh().loaded

    stats = service.stats()
    record = {
        "bench": "faulted_sweep",
        "points": points,
        "fault_rate": fault_rate,
        "injected_transients": injector.injected.get("transient", 0),
        "retries": stats.retries,
        "failures": stats.failures,
        "duplicate_evaluations": injector.duplicate_evaluations(),
        "duplicate_records": stored_records - points,
        "clean_seconds": clean_seconds,
        "faulted_seconds": faulted_seconds,
        "overhead": faulted_seconds / clean_seconds if clean_seconds > 0 else 0.0,
    }
    print()
    _emit(record)
    assert faulted.complete
    for name in backends:
        assert faulted.series(name) == clean.series(name), (
            f"{name}: faulted sweep diverged from the fault-free run"
        )
    assert record["injected_transients"] > 0
    assert record["retries"] == record["injected_transients"]
    assert record["failures"] == 0
    assert record["duplicate_evaluations"] == 0, "a point was evaluated twice"
    assert record["duplicate_records"] == 0, "the store holds duplicate records"
    # Bounded retry overhead: ~10% extra evaluations plus millisecond backoff
    # must not blow up the sweep.  5x absorbs CI scheduler noise while still
    # catching a retry storm (which would be 6x work before even counting
    # backoff sleeps).
    if not _smoke_mode():
        assert record["overhead"] < 5.0, (
            f"faulted sweep took {faulted_seconds:.2f}s vs {clean_seconds:.2f}s "
            f"clean ({record['overhead']:.1f}x) — unbounded retry overhead?"
        )


#: (label, num_nodes, input GiB, concurrent jobs) of the model-layer bench.
MODEL_SCALES = [("8n", 8, 4, 1), ("16n4j", 16, 16, 4), ("32n", 32, 64, 1)]
MODEL_BACKENDS = ["mva-forkjoin", "mva-tripathi", "vianna", "simulator"]

#: Deterministic work of one cold solve: (A2–A6 iterations, Tripathi
#: ``maximum_of`` integrations) per (backend, scale).  The simulator has no
#: fixed point; only Tripathi integrates.
MODEL_WORK = {
    ("mva-forkjoin", "8n"): (2, 0),
    ("mva-forkjoin", "16n4j"): (11, 0),
    ("mva-forkjoin", "32n"): (2, 0),
    ("mva-tripathi", "8n"): (2, 22),
    ("mva-tripathi", "16n4j"): (11, 165),
    ("mva-tripathi", "32n"): (2, 28),
    ("vianna", "8n"): (2, 0),
    ("vianna", "16n4j"): (5, 0),
    ("vianna", "32n"): (2, 0),
    ("simulator", "8n"): (None, 0),
    ("simulator", "16n4j"): (None, 0),
    ("simulator", "32n"): (None, 0),
}


@contextlib.contextmanager
def _counting_integrations():
    """Count Tripathi's ``maximum_of`` calls (one numerical integration each)."""
    calls = [0]
    original = estimators.maximum_of

    def counting(distributions):
        calls[0] += 1
        return original(distributions)

    estimators.maximum_of = counting
    try:
        yield calls
    finally:
        estimators.maximum_of = original


def test_bench_model_layers():
    """Cold solves of every analytic backend and the simulator at three scales.

    The wall time is reported for trend tracking, not asserted (it is
    load-dependent); the iteration and integration counts are deterministic
    and pinned exactly, so a change that makes the model do more work fails
    here whatever the machine.
    """
    scales = MODEL_SCALES[:1] if _smoke_mode() else MODEL_SCALES
    record: dict = {"bench": "model_layers"}
    for label, num_nodes, input_gb, num_jobs in scales:
        scenario = Scenario(
            workload="wordcount",
            num_nodes=num_nodes,
            input_size_bytes=gigabytes(input_gb),
            num_jobs=num_jobs,
            num_reduces=num_nodes,
            duration_cv=0.3,
            seed=BENCH_SEED,
            repetitions=1,
        )
        row = {}
        for name in MODEL_BACKENDS:
            backend = create_backend(name)
            with _counting_integrations() as integrations:
                started = time.perf_counter()
                result = backend.predict(scenario)
                elapsed = time.perf_counter() - started
            row[name] = {
                "elapsed_seconds": elapsed,  # reported, not asserted
                "iterations": result.metadata.get("iterations"),
                "integrations": integrations[0],
                "total": result.total_seconds,
            }
        record[label] = row
    print()
    _emit(record)
    for label, *_ in scales:
        for name in MODEL_BACKENDS:
            work = record[label][name]
            assert (work["iterations"], work["integrations"]) == MODEL_WORK[
                (name, label)
            ], f"{name} at {label}"


def test_bench_overlap_mva_solve():
    record = time_overlap_mva_solve()
    record["bench"] = "overlap_mva_8n_2j"
    print()
    _emit(record)
    assert record["estimate"] > 0
    # One full A1-A6 solve (tens of vectorised MVA fixed points) is
    # interactive-speed; anything past a second means the solver loop
    # reverted to per-element Python work.
    assert record["elapsed_seconds"] < 1.0
