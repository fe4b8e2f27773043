"""Perf bench for the cooperative sweep fabric and the result store.

Three machine-readable ``BENCH_FABRIC {json}`` lines per run:

* ``cooperative_drain`` — four cooperative workers (threads, each with its
  own :class:`~repro.api.PredictionService` over one shared store) drain a
  grid of GIL-releasing sleepy evaluations vs. one worker draining the same
  grid alone.  Asserted: zero duplicate evaluations, every point evaluated
  exactly once, and (full mode) a ≥3x wall-clock speedup — the work is
  ``time.sleep``, so the ratio measures the fabric's parallelism, not CPU
  contention, and is load-robust in a way CPU-bound ratios are not.
* ``sqlite_cold_open`` — a fresh store object bulk-probes a store of 10k
  records (1k in smoke mode).  Asserted deterministically: the probe issues
  exactly ``ceil(probes / 500)`` ``SELECT`` statements and returns every hit; the
  seed and probe wall-clocks are reported.
* ``store_gc`` — one TTL/compaction pass over a half-expired store; purge
  counts are asserted, the wall-clock is reported.

Set ``BENCH_SMOKE=1`` to shrink the grids (used by CI on every push).
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import threading
import time

from repro.api import PredictionService, Scenario, ScenarioSuite, SweepScheduler, create_backend
from repro.api.backends import _REGISTRY
from repro.api.results import PredictionResult
from repro.api.store import DB_FILENAME, SqliteResultStore
from repro.units import megabytes

#: Scenario template the fabric grids sweep over.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=2017,
)


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _emit(record: dict) -> None:
    print(f"BENCH_FABRIC {json.dumps(record, sort_keys=True)}")


def _sleepy_backend_class(seconds: float):
    """A stub backend whose evaluations sleep (releasing the GIL) and count.

    ``time.sleep`` stands in for a real model solve: it costs wall-clock
    without CPU, so k threaded workers genuinely overlap and the measured
    drain ratio reflects the fabric, not scheduler noise.  The per-point
    call counter is the duplicate-evaluation ledger.
    """

    class SleepyBackend:
        version = 1
        cpu_bound = False
        calls: dict[str, int] = {}
        _lock = threading.Lock()

        def predict(self, scenario):
            time.sleep(seconds)
            key = scenario.cache_key()
            with type(self)._lock:
                type(self).calls[key] = type(self).calls.get(key, 0) + 1
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=float(scenario.num_nodes),
                phases={"map": 1.0},
                metadata={},
            )

    return SleepyBackend


def test_bench_cooperative_drain(tmp_path):
    """Four cooperative workers vs. one worker over the same sleepy grid."""
    points = 6 if _smoke_mode() else 24
    sleep_seconds = 0.02 if _smoke_mode() else 0.1
    workers = 4
    suite = ScenarioSuite.from_sweep(
        "fabric-drain", SMALL, num_nodes=list(range(2, 2 + points))
    )
    backend_cls = _sleepy_backend_class(sleep_seconds)
    backend_cls.name = "fabric-sleepy"
    _REGISTRY["fabric-sleepy"] = backend_cls
    try:
        solo_service = PredictionService(
            backends=["fabric-sleepy"], store=tmp_path / "solo-store"
        )
        started = time.perf_counter()
        solo = SweepScheduler(solo_service).run_cooperative(
            suite, ["fabric-sleepy"], worker_id="solo", lease_ttl=10.0
        )
        solo_seconds = time.perf_counter() - started
        assert solo.evaluated == points
        solo_calls = dict(backend_cls.calls)
        backend_cls.calls = {}

        fabric_store = tmp_path / "fabric-store"
        services = [
            PredictionService(backends=["fabric-sleepy"], store=fabric_store)
            for _ in range(workers)
        ]
        outcomes: dict[str, object] = {}
        errors: list[BaseException] = []

        def drain(worker_id: str, service: PredictionService) -> None:
            try:
                outcomes[worker_id] = SweepScheduler(service).run_cooperative(
                    suite,
                    ["fabric-sleepy"],
                    worker_id=worker_id,
                    lease_ttl=10.0,
                    poll_interval=0.02,
                    claim_limit=1,  # re-plan per point so the load balances
                )
            except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(f"w{i}", service))
            for i, service in enumerate(services)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fabric_seconds = time.perf_counter() - started
        fabric_calls = dict(backend_cls.calls)
    finally:
        _REGISTRY.pop("fabric-sleepy", None)

    assert not errors
    speedup = solo_seconds / fabric_seconds if fabric_seconds > 0 else 0.0
    evaluated_per_worker = {
        worker_id: outcome.evaluated for worker_id, outcome in outcomes.items()
    }
    duplicates = sum(count - 1 for count in fabric_calls.values() if count > 1)
    record = {
        "bench": "cooperative_drain",
        "workers": workers,
        "points": points,
        "sleep_seconds": sleep_seconds,
        "solo_seconds": solo_seconds,
        "fabric_seconds": fabric_seconds,
        "speedup": speedup,
        "evaluated_per_worker": evaluated_per_worker,
        "duplicate_evaluations": duplicates,
    }
    print()
    _emit(record)
    # The fabric promise, counter-anchored: the grid was drained exactly once.
    assert sum(solo_calls.values()) == points
    assert sum(fabric_calls.values()) == points
    assert duplicates == 0
    assert sum(evaluated_per_worker.values()) == points
    for outcome in outcomes.values():
        assert all(value > 0 for value in outcome.result.series("fabric-sleepy"))
    if not _smoke_mode():
        # Sleep-based work parallelises without CPU contention, so this
        # ratio is stable under load (unlike a CPU-bound wall-clock ratio).
        assert speedup >= 3.0, (
            f"4-worker fabric speedup {speedup:.1f}x below the 3x floor "
            f"({solo_seconds:.2f}s solo vs {fabric_seconds:.2f}s fabric)"
        )


def _seed_synthetic(store, count: int) -> PredictionResult:
    """Bulk-load ``count`` synthetic records under distinct keys."""
    result = create_backend("herodotou").predict(SMALL)
    store.put_many(
        [(f"bench-point-{i:06d}", "herodotou", result, None) for i in range(count)]
    )
    return result


def test_bench_sqlite_cold_open(tmp_path):
    """Cold bulk probe of a large store: a few indexed SELECTs, every hit found."""
    records = 1_000 if _smoke_mode() else 10_000
    probes = 600 if _smoke_mode() else 1_250
    store = SqliteResultStore(tmp_path / "store")
    started = time.perf_counter()
    expected = _seed_synthetic(store, records)
    seed_seconds = time.perf_counter() - started
    store.close()
    step = records // probes
    points = [
        (f"bench-point-{i * step:06d}", "herodotou", None) for i in range(probes)
    ]
    cold = SqliteResultStore(tmp_path / "store")  # a brand-new object: nothing indexed yet
    with cold._lock:
        conn = cold._connect()
    statements: list[str] = []
    conn.set_trace_callback(statements.append)
    started = time.perf_counter()
    found = cold.get_many(points)
    probe_seconds = time.perf_counter() - started
    conn.set_trace_callback(None)
    selects = sum(1 for sql in statements if sql.lstrip().upper().startswith("SELECT"))
    record = {
        "bench": "sqlite_cold_open",
        "records": records,
        "probes": probes,
        "select_statements": selects,
        "statements": len(statements),
        "seed_seconds": seed_seconds,
        "probe_seconds": probe_seconds,
    }
    print()
    _emit(record)
    assert len(found) == probes
    assert found[(points[0][0], "herodotou")] == expected
    assert selects == len(statements) == math.ceil(probes / 500)


def _backdate_half(store_path, count: int) -> int:
    """Make the first half of a store's records look 1000 seconds old."""
    half = count // 2
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        with conn:
            conn.execute(
                "UPDATE records SET created = ? WHERE token IN "
                "(SELECT token FROM records ORDER BY token LIMIT ?)",
                (time.time() - 1000.0, half),
            )
    finally:
        conn.close()
    return half


def test_bench_store_gc(tmp_path):
    """One TTL/compaction pass over a half-expired store."""
    records = 300 if _smoke_mode() else 2_000
    store_path = tmp_path / "store"
    seeded = SqliteResultStore(store_path)
    _seed_synthetic(seeded, records)
    seeded.close()
    half = _backdate_half(store_path, records)
    store = SqliteResultStore(store_path)
    started = time.perf_counter()
    stats = store.gc(ttl=500.0)
    gc_seconds = time.perf_counter() - started
    assert stats.expired == half
    assert stats.remaining == records - half
    print()
    _emit(
        {
            "bench": "store_gc",
            "format": store.format_name,
            "records": records,
            "purged": stats.purged,
            "remaining": stats.remaining,
            "reclaimed_bytes": stats.reclaimed_bytes,
            "gc_seconds": gc_seconds,
        }
    )
