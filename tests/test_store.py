"""Durability tests for the persistent result store (:mod:`repro.api.store`).

Covers the hard guarantees the store makes: round-trips across service
restarts, zero backend re-evaluations on a warm store, safe concurrent
writers on one store path, recovery from hand-corrupted rows and whole
databases, version-based invalidation, gc, and the refusal of the retired
sharded-JSON layout.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time

import pytest

from repro.api import (
    QUARANTINE_DIR,
    PredictionService,
    Scenario,
    ScenarioSuite,
    SqliteResultStore,
    create_backend,
)
from repro.api.backends import _REGISTRY
from repro.api.results import PredictionResult
from repro.api.store import (
    DB_FILENAME,
    STORE_FORMAT_VERSION,
    _canonical_options,
    open_store,
    point_token,
    sqlite_store,
)
from repro.cli import main
from repro.exceptions import StoreError, ValidationError
from repro.units import megabytes

#: Small, fast scenario shared by the store tests.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=21,
)


@pytest.fixture
def temporary_backend():
    """Register a throwaway backend class and unregister it afterwards."""
    registered: list[str] = []

    def register(name: str, cls: type) -> type:
        cls.name = name
        _REGISTRY[name] = cls
        registered.append(name)
        return cls

    try:
        yield register
    finally:
        for name in registered:
            _REGISTRY.pop(name, None)


def _counting_backend_class():
    """A stub backend whose predictions are cheap and counted."""

    class CountingBackend:
        calls = 0

        def predict(self, scenario):
            type(self).calls += 1
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=float(scenario.num_nodes),
                phases={"map": 1.0},
                metadata={"call": type(self).calls},
            )

    return CountingBackend


def _sqlite_tokens(store_path) -> list[str]:
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        return [row[0] for row in conn.execute("SELECT token FROM records ORDER BY token")]
    finally:
        conn.close()


def _corrupt_records(store_path, count: int) -> None:
    """Garble ``count`` rows' ``result`` payloads in place."""
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        with conn:
            conn.executemany(
                "UPDATE records SET result = '{garbled' WHERE token = ?",
                [(token,) for token in _sqlite_tokens(store_path)[:count]],
            )
    finally:
        conn.close()


def _set_version_field(store_path, field: str, value, which: int = 0) -> None:
    """Rewrite one version field of the ``which``-th row (by token order)."""
    token = _sqlite_tokens(store_path)[which]
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        with conn:
            conn.execute(f"UPDATE records SET {field} = ? WHERE token = ?", (value, token))
    finally:
        conn.close()


def _backdate_point(store_path, key: str, backend: str, seconds: float, options=None) -> None:
    """Make one record look ``seconds`` old (its ``created`` stamp)."""
    token = point_token(key, backend, _canonical_options(options))
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        with conn:
            conn.execute(
                "UPDATE records SET created = ? WHERE token = ?",
                (time.time() - seconds, token),
            )
    finally:
        conn.close()


class TestStoreContract:
    """The store's core guarantees: round-trips, visibility, bulk paths."""

    def test_put_get_roundtrip_and_restart(self, tmp_path):
        result = create_backend("aria").predict(SMALL)
        store = open_store(tmp_path / "store")
        store.put(SMALL.cache_key(), "aria", result)
        assert store.get(SMALL.cache_key(), "aria") == result
        # A brand-new store on the same path (a "restarted process") sees it —
        # first through a lazy get() probe, then through a full scan.
        reopened = open_store(tmp_path / "store")
        assert reopened.get(SMALL.cache_key(), "aria") == result
        assert len(reopened) == 1
        assert reopened.refresh().loaded == 1

    def test_get_misses_are_none(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert store.get(SMALL.cache_key(), "aria") is None

    def test_store_path_must_be_directory(self, tmp_path):
        bogus = tmp_path / "file"
        bogus.write_text("not a directory")
        with pytest.raises(StoreError):
            open_store(bogus)

    def test_cross_process_visibility_without_refresh(self, tmp_path):
        """A record written through one store object is visible to another."""
        writer = open_store(tmp_path / "store")
        reader = open_store(tmp_path / "store")  # opened while still empty
        result = create_backend("aria").predict(SMALL)
        writer.put(SMALL.cache_key(), "aria", result)
        assert reader.get(SMALL.cache_key(), "aria") == result

    def test_get_many_mixes_hits_and_misses(self, tmp_path):
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        backend = create_backend("aria")
        writer = open_store(tmp_path / "store")
        for scenario in scenarios:
            writer.put(scenario.cache_key(), "aria", backend.predict(scenario))
        missing = SMALL.with_updates(num_nodes=9)
        reader = open_store(tmp_path / "store")  # cold: everything is a disk miss
        found = reader.get_many(
            [(s.cache_key(), "aria", None) for s in scenarios + [missing]]
        )
        assert set(found) == {(s.cache_key(), "aria") for s in scenarios}
        for scenario in scenarios:
            assert found[(scenario.cache_key(), "aria")].total_seconds > 0

    def test_put_many_round_trips(self, tmp_path):
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        backend = create_backend("aria")
        store = open_store(tmp_path / "store")
        store.put_many(
            [(s.cache_key(), "aria", backend.predict(s), None) for s in scenarios]
        )
        reopened = open_store(tmp_path / "store")
        assert reopened.refresh().loaded == len(scenarios)
        for scenario in scenarios:
            assert reopened.get(scenario.cache_key(), "aria") is not None

    def test_put_racing_refresh_keeps_index_entries(self, tmp_path):
        """Regression: a ``put`` landing mid-``refresh`` must survive the scan.

        A scan that began before the put cannot have seen its record; naive
        wholesale index replacement on publish dropped such entries from
        memory even though they were durably on disk.  The refresh loop here
        races every put, and every put must still be indexed afterwards.
        """
        store = open_store(tmp_path / "store")
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in range(2, 34)]
        backend = create_backend("aria")
        results = {s.cache_key(): backend.predict(s) for s in scenarios}
        stop = threading.Event()
        errors: list[BaseException] = []

        def refresher() -> None:
            try:
                while not stop.is_set():
                    store.refresh()
            except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                errors.append(exc)

        thread = threading.Thread(target=refresher)
        thread.start()
        try:
            for scenario in scenarios:
                store.put(scenario.cache_key(), "aria", results[scenario.cache_key()])
        finally:
            stop.set()
            thread.join()
        assert not errors
        # Merge semantics: the in-memory index kept every put, no matter how
        # the scans interleaved with the writes.
        assert len(store) == len(scenarios)
        for scenario in scenarios:
            assert store.get(scenario.cache_key(), "aria") == results[scenario.cache_key()]


class TestOpenStore:
    """One engine: a fresh directory is SQLite, the retired JSON layout is refused."""

    def test_opens_sqlite_lazily(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert isinstance(store, SqliteResultStore)
        assert store.format_name == "sqlite"
        assert not (tmp_path / "store").exists()  # nothing written yet
        store.put(SMALL.cache_key(), "aria", create_backend("aria").predict(SMALL))
        assert (tmp_path / "store" / DB_FILENAME).is_file()
        assert open_store(tmp_path / "store").get(SMALL.cache_key(), "aria") is not None

    def _legacy_store(self, tmp_path):
        """A directory in the retired sharded-JSON layout: ``records/`` only."""
        root = tmp_path / "legacy"
        shard = root / "records" / "ab"
        shard.mkdir(parents=True)
        (shard / f"{'ab' * 32}.json").write_text("{}")
        return root

    def test_legacy_json_layout_is_refused(self, tmp_path):
        legacy = self._legacy_store(tmp_path)
        with pytest.raises(ValidationError, match="delete the directory") as excinfo:
            open_store(legacy)
        assert str(legacy) in str(excinfo.value)
        with pytest.raises(ValidationError):
            PredictionService(backends=["aria"], store=legacy)
        # Refused, not shadowed: no second store was created beside the records.
        assert sorted(path.name for path in legacy.iterdir()) == ["records"]

    def test_legacy_json_layout_is_refused_by_the_cli(self, tmp_path, capsys):
        legacy = self._legacy_store(tmp_path)
        for command in (["store", "info"], ["store", "gc", "--dry-run"]):
            assert main([*command[:2], str(legacy), *command[2:]]) == 2
            err = capsys.readouterr().err
            assert str(legacy) in err
            assert "delete the directory" in err
        assert sorted(path.name for path in legacy.iterdir()) == ["records"]


class TestServiceWithStore:
    def test_sweep_rerun_performs_zero_backend_evaluations(self, tmp_path, temporary_backend):
        counting = temporary_backend("counting-stub", _counting_backend_class())
        suite = ScenarioSuite.from_sweep("grid", SMALL, num_nodes=[2, 3, 4])
        first = PredictionService(backends=["counting-stub"], store=tmp_path / "store")
        cold = first.evaluate_suite(suite, ["counting-stub"])
        assert counting.calls == 3
        assert first.stats().evaluations == 3
        # A fresh service on the same path — the "restarted sweep" — answers
        # entirely from disk: zero backend evaluations.
        second = PredictionService(backends=["counting-stub"], store=tmp_path / "store")
        warm = second.evaluate_suite(suite, ["counting-stub"])
        assert counting.calls == 3
        assert second.stats().evaluations == 0
        assert second.stats().store_hits == 3
        assert warm.series("counting-stub") == cold.series("counting-stub")

    def test_backend_options_partition_the_store(self, tmp_path):
        """Records of differently configured backends must never be shared."""
        store_path = tmp_path / "store"
        four_slots = PredictionService(
            backends=["vianna"],
            backend_options={"vianna": {"map_slots_per_node": 4}},
            store=store_path,
        )
        configured = four_slots.evaluate(SMALL, "vianna")
        assert configured.metadata["map_slots_per_node"] == 4
        # Default configuration, same store: a miss, not a silent wrong hit.
        defaults = PredictionService(backends=["vianna"], store=store_path)
        default_result = defaults.evaluate(SMALL, "vianna")
        assert defaults.stats().store_hits == 0
        assert defaults.stats().evaluations == 1
        assert default_result.metadata["map_slots_per_node"] == 2
        # Each configuration is warm for its own options.
        rerun = PredictionService(
            backends=["vianna"],
            backend_options={"vianna": {"map_slots_per_node": 4}},
            store=store_path,
        )
        assert rerun.evaluate(SMALL, "vianna") == configured
        assert rerun.stats().store_hits == 1

    def test_store_survives_cache_clear(self, tmp_path):
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        first = service.evaluate(SMALL, "aria")
        service.clear_cache()
        assert service.evaluate(SMALL, "aria") == first
        assert service.stats().store_hits == 1
        assert service.stats().evaluations == 1

    def test_concurrent_writers_on_one_store_path(self, tmp_path, temporary_backend):
        counting = temporary_backend("counting-stub", _counting_backend_class())
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4, 5)]
        services = [
            PredictionService(
                backends=["counting-stub"],
                store=tmp_path / "store",
            )
            for _ in range(2)
        ]
        errors: list[BaseException] = []

        def write(service: PredictionService) -> None:
            try:
                for scenario in scenarios:
                    service.evaluate(scenario, "counting-stub")
            except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(service,)) for service in services
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Both writers may have computed a point, but the store converged to
        # exactly one readable record per point.
        merged = open_store(tmp_path / "store")
        scan = merged.refresh()
        assert scan.loaded == len(scenarios)
        assert scan.corrupt == 0
        assert len(merged) == len(scenarios)
        for scenario in scenarios:
            stored = merged.get(scenario.cache_key(), "counting-stub")
            assert stored.total_seconds == float(scenario.num_nodes)
        assert counting.calls >= len(scenarios)

    def test_corrupted_records_are_skipped_and_healed(self, tmp_path, caplog):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        # Hand-corrupt two of the three records (garbled rows).
        _corrupt_records(store_path, 2)
        with caplog.at_level(logging.WARNING, logger="repro.api.store"):
            scan = open_store(store_path).refresh()
        assert scan.loaded == 1
        assert scan.corrupt == 2
        assert any("corrupt" in record.message for record in caplog.records)
        # A fresh service recomputes the lost points and heals the store.
        healed = PredictionService(backends=["aria"], store=store_path)
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert healed.stats().evaluations == 2
        assert open_store(store_path).refresh().loaded == 3

    def test_unwritable_store_degrades_to_memory_cache(self, tmp_path, monkeypatch):
        service = PredictionService(backends=["aria"], store=tmp_path / "store")

        def failing_put(key, backend, result, options=None):
            raise StoreError("disk full")

        monkeypatch.setattr(service.store, "put", failing_put)
        first = service.evaluate(SMALL, "aria")
        assert service.evaluate(SMALL, "aria") is first  # memory cache still works
        assert open_store(tmp_path / "store").refresh().loaded == 0


class TestQuarantine:
    """Corrupt records are moved aside, not deleted — and the slot heals."""

    def _quarantine_files(self, store_path) -> list:
        return sorted((store_path / QUARANTINE_DIR).glob("*"))

    def test_corrupt_rows_round_trip_through_quarantine(self, tmp_path):
        """Row-level corruption: dumped to quarantine, deleted, slot heals."""
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        _corrupt_records(store_path, 2)
        scan = SqliteResultStore(store_path).refresh()
        assert scan.corrupt == 2
        assert scan.quarantined == 2
        quarantined = self._quarantine_files(store_path)
        assert len(quarantined) == 2
        assert all(path.name.startswith("undecodable--") for path in quarantined)
        # The dumped rows keep their envelope for post-mortems.
        for path in quarantined:
            dumped = json.loads(path.read_text())
            assert dumped["backend"] == "aria"
            assert dumped["result"] == "{garbled"
        # The rows themselves are gone: only the intact record remains.
        assert len(_sqlite_tokens(store_path)) == 1
        # Re-evaluating heals the slots; the quarantine keeps its evidence.
        healed = PredictionService(backends=["aria"], store=store_path)
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert SqliteResultStore(store_path).refresh().loaded == 3
        assert len(self._quarantine_files(store_path)) == 2

    def test_unreadable_database_is_quarantined_wholesale(self, tmp_path):
        """File-level corruption: the damaged DB is moved aside, not fatal."""
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        original = service.evaluate(SMALL, "aria")
        service.store.close()
        (store_path / DB_FILENAME).write_bytes(b"this is not a database at all")
        reopened = SqliteResultStore(store_path)
        assert reopened.refresh().loaded == 0
        quarantined = self._quarantine_files(store_path)
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(f"unreadable-db--{DB_FILENAME}")
        # The fresh database is fully usable.
        reopened.put(SMALL.cache_key(), "aria", original)
        assert SqliteResultStore(store_path).get(SMALL.cache_key(), "aria") == original

    def test_stale_records_are_not_quarantined(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        scan = open_store(store_path).refresh()
        # Stale is a versioning outcome, not corruption: the (well-formed)
        # record stays in place for inspection or rollback.
        assert scan.stale == 1
        assert scan.quarantined == 0
        assert not (store_path / QUARANTINE_DIR).exists()
        assert len(_sqlite_tokens(store_path)) == 1

    def test_quarantine_failure_still_skips_the_record(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        _corrupt_records(store_path, 1)
        # A plain file where the quarantine directory belongs: the dump fails.
        (store_path / QUARANTINE_DIR).write_text("not a directory")
        scan = SqliteResultStore(store_path).refresh()
        # Never-fatal contract: the record is skipped and counted even when
        # the quarantine write itself fails.
        assert scan.corrupt == 1
        assert scan.quarantined == 0
        assert scan.loaded == 0


def _lock_exclusively(store_path) -> sqlite3.Connection:
    """A raw connection holding the database's exclusive lock until closed.

    In WAL mode every open connection holds a shared lock, so the store
    objects on ``store_path`` must be closed before this can succeed.
    """
    conn = sqlite3.connect(store_path / DB_FILENAME, isolation_level=None)
    conn.execute("PRAGMA locking_mode=EXCLUSIVE")
    conn.execute("BEGIN EXCLUSIVE")
    return conn


def _hold_write_lock(store_path) -> sqlite3.Connection:
    """A raw connection holding the write lock (``BEGIN IMMEDIATE``) until closed."""
    conn = sqlite3.connect(store_path / DB_FILENAME, isolation_level=None)
    conn.execute("BEGIN IMMEDIATE")
    return conn


#: One store operation per database access path: reads, writes, claims.
_STORE_OPS = {
    "get": lambda store, result: store.get(SMALL.with_updates(num_nodes=9).cache_key(), "aria"),
    "get_many": lambda store, result: store.get_many(
        [(SMALL.with_updates(num_nodes=9).cache_key(), "aria", None)]
    ),
    "refresh": lambda store, result: store.refresh(),
    "scan": lambda store, result: store.lease_manager("w1").scan(),
    "put": lambda store, result: store.put(SMALL.cache_key(), "aria", result),
    "put_many": lambda store, result: store.put_many(
        [(SMALL.with_updates(num_nodes=3).cache_key(), "aria", result, None)]
    ),
    "gc": lambda store, result: store.gc(),
    "claim": lambda store, result: store.lease_manager("w1").try_claim("ab" * 32),
}
_READS = ("get", "get_many", "refresh", "scan")
_WRITES = ("put", "put_many", "gc", "claim")


class TestLockContention:
    """A busy or locked database is contention, never damage.

    Lock errors wait out ``BUSY_TIMEOUT`` and then raise ``StoreError``;
    they never quarantine a database that peers are still using (doing so
    moved a live database aside and lost every worker's claims).
    """

    @pytest.fixture(autouse=True)
    def short_busy_timeout(self, monkeypatch):
        monkeypatch.setattr(sqlite_store, "BUSY_TIMEOUT", 0.1)

    def _seeded(self, store_path) -> PredictionResult:
        result = create_backend("aria").predict(SMALL)
        store = open_store(store_path)
        store.put(SMALL.cache_key(), "aria", result)
        store.close()
        return result

    @pytest.mark.parametrize(
        ("code", "contended"),
        [
            ("SQLITE_BUSY", True),
            ("SQLITE_BUSY_RECOVERY", True),
            ("SQLITE_BUSY_SNAPSHOT", True),
            ("SQLITE_BUSY_TIMEOUT", True),
            ("SQLITE_LOCKED", True),
            ("SQLITE_LOCKED_SHAREDCACHE", True),
            ("SQLITE_CORRUPT", False),
            ("SQLITE_NOTADB", False),
            ("SQLITE_IOERR", False),
            ("SQLITE_CANTOPEN", False),
        ],
    )
    def test_only_lock_codes_count_as_contention(self, code, contended):
        exc = sqlite3.OperationalError("synthetic")
        exc.sqlite_errorcode = getattr(sqlite3, code)
        assert sqlite_store._contended(exc) is contended

    def test_errors_without_a_code_are_not_contention(self):
        assert not sqlite_store._contended(sqlite3.Error("no code attached"))

    def test_real_lock_and_damage_errors_are_told_apart(self, tmp_path):
        self._seeded(tmp_path)
        holder = _lock_exclusively(tmp_path)
        try:
            peer = sqlite3.connect(tmp_path / DB_FILENAME, timeout=0.0)
            with pytest.raises(sqlite3.OperationalError) as locked:
                peer.execute("SELECT count(*) FROM records").fetchall()
            peer.close()
        finally:
            holder.close()
        assert sqlite_store._contended(locked.value)
        garbage = tmp_path / "garbage.sqlite3"
        garbage.write_bytes(b"this is not a database at all" * 100)
        conn = sqlite3.connect(garbage)
        with pytest.raises(sqlite3.DatabaseError) as damaged:
            conn.execute("PRAGMA journal_mode=WAL")
        conn.close()
        assert not sqlite_store._contended(damaged.value)

    @pytest.mark.parametrize("op", sorted(_STORE_OPS))
    def test_locked_database_is_never_quarantined_on_open(self, tmp_path, op):
        """A fresh store object meets a database a peer holds exclusively."""
        result = self._seeded(tmp_path)
        store = open_store(tmp_path)
        holder = _lock_exclusively(tmp_path)
        try:
            with pytest.raises(StoreError, match="locked"):
                _STORE_OPS[op](store, result)
        finally:
            holder.close()
        assert not (tmp_path / QUARANTINE_DIR).exists()
        # Once the peer lets go, the same object opens the original database.
        assert store.get(SMALL.cache_key(), "aria") == result
        _STORE_OPS[op](store, result)
        assert store.refresh().corrupt == 0

    @pytest.mark.parametrize("op", _WRITES)
    def test_writes_wait_out_a_peer_writer_then_fail(self, tmp_path, op):
        result = self._seeded(tmp_path)
        store = open_store(tmp_path)
        assert store.get(SMALL.cache_key(), "aria") == result  # connected
        holder = _hold_write_lock(tmp_path)
        try:
            started = time.monotonic()
            with pytest.raises(StoreError):
                _STORE_OPS[op](store, result)
            assert time.monotonic() - started >= sqlite_store.BUSY_TIMEOUT * 0.9
        finally:
            holder.close()
        assert not (tmp_path / QUARANTINE_DIR).exists()
        _STORE_OPS[op](store, result)  # the lock is free: the write lands
        assert open_store(tmp_path).get(SMALL.cache_key(), "aria") == result

    @pytest.mark.parametrize("op", _READS)
    def test_reads_are_not_blocked_by_a_peer_writer(self, tmp_path, op):
        """WAL readers see the last commit while a peer holds the write lock."""
        result = self._seeded(tmp_path)
        store = open_store(tmp_path)
        assert store.get(SMALL.cache_key(), "aria") == result  # connected
        holder = _hold_write_lock(tmp_path)
        try:
            _STORE_OPS[op](store, result)
            assert open_store(tmp_path).get(SMALL.cache_key(), "aria") == result
        finally:
            holder.close()
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_open_retries_contention_until_it_clears(self, tmp_path, monkeypatch):
        """Setup that loses a lock race outright is retried, not quarantined."""
        real_connect = sqlite3.connect
        attempts = []

        class LosesTheFirstRaces:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql.startswith("PRAGMA journal_mode") and len(attempts) < 3:
                    attempts.append(sql)
                    exc = sqlite3.OperationalError("database is locked")
                    exc.sqlite_errorcode = sqlite3.SQLITE_BUSY
                    raise exc
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **kw: LosesTheFirstRaces(real_connect(*a, **kw))
        )
        result = create_backend("aria").predict(SMALL)
        store = open_store(tmp_path)
        store.put(SMALL.cache_key(), "aria", result)
        monkeypatch.undo()
        assert len(attempts) == 3
        assert not (tmp_path / QUARANTINE_DIR).exists()
        assert open_store(tmp_path).get(SMALL.cache_key(), "aria") == result

    @pytest.mark.parametrize("writers", [2, 4, 8])
    def test_racing_first_writes_to_a_fresh_store_all_land(self, tmp_path, writers):
        """Store objects that open one new database at once all write to it."""
        backend = create_backend("aria")
        scenarios = [SMALL.with_updates(num_nodes=2 + i) for i in range(writers)]
        results = [backend.predict(scenario) for scenario in scenarios]
        for round_ in range(10):
            store_path = tmp_path / f"round-{round_}"
            stores = [open_store(store_path) for _ in range(writers)]
            barrier = threading.Barrier(writers, timeout=30.0)
            errors: list[BaseException] = []

            def write(store, scenario, result) -> None:
                try:
                    barrier.wait()
                    store.put(scenario.cache_key(), "aria", result)
                except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                    errors.append(exc)

            threads = [
                threading.Thread(target=write, args=args)
                for args in zip(stores, scenarios, results)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert not errors
            assert not (store_path / QUARANTINE_DIR).exists()
            assert open_store(store_path).refresh().loaded == writers


class TestVersioning:
    def _write_one_record(self, store_path) -> str:
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        return SMALL.cache_key()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format", STORE_FORMAT_VERSION + 1),
            ("spec_version", 999),
            ("backend_version", 999),
        ],
    )
    def test_version_mismatch_invalidates_record(self, tmp_path, field, value):
        key = self._write_one_record(tmp_path / "store")
        _set_version_field(tmp_path / "store", field, value)
        reopened = open_store(tmp_path / "store")
        scan = reopened.refresh()
        assert scan.stale == 1
        assert scan.loaded == 0
        assert reopened.get(key, "aria") is None

    @pytest.mark.parametrize("backend", ["mva-forkjoin", "mva-tripathi", "vianna"])
    def test_records_before_the_array_timeline_path_are_re_evaluated(
        self, tmp_path, backend
    ):
        """Version 1 answers came from the scalar timeline path: stale now."""
        store_path = tmp_path / "store"
        original = PredictionService(backends=[backend], store=store_path).evaluate(
            SMALL, backend
        )
        _set_version_field(store_path, "backend_version", 1)
        assert open_store(store_path).refresh().stale == 1
        service = PredictionService(backends=[backend], store=store_path)
        assert service.evaluate(SMALL, backend) == original
        stats = service.stats()
        assert (stats.store_hits, stats.evaluations) == (0, 1)
        assert open_store(store_path).refresh().loaded == 1

    def test_unregistered_backend_records_are_stale(self, tmp_path, temporary_backend):
        temporary_backend("counting-stub", _counting_backend_class())
        service = PredictionService(backends=["counting-stub"], store=tmp_path / "store")
        service.evaluate(SMALL, "counting-stub")
        # After the backend disappears from the registry (fixture teardown
        # simulated by popping early), its records cannot be validated.
        _REGISTRY.pop("counting-stub")
        reopened = open_store(tmp_path / "store")
        assert reopened.refresh().stale == 1
        assert reopened.get(SMALL.cache_key(), "counting-stub") is None


class TestProbeMemo:
    """Unusable probes cost one indexed read, not a parse.

    Regression for the hot-path waste where every ``get`` of a point whose
    record was stale re-decoded it — and proof
    that memoisation does *not* sacrifice cross-process visibility.
    """

    def _count_reads(self, store):
        """Instrument the store's row-decode path with a call counter."""
        calls: list = []
        original = store._load_row

        def counting(row, stats, quarantine=True):
            calls.append(row[0])
            return original(row, stats, quarantine)

        store._load_row = counting
        return calls

    def test_stale_record_is_parsed_once(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        reopened = open_store(store_path)
        reads = self._count_reads(reopened)
        for _ in range(5):
            assert reopened.get(SMALL.cache_key(), "aria") is None
        # One parse classified the record stale; the other four lookups hit
        # the memo (an indexed fetch, but no decode).
        assert len(reads) == 1

    def test_memo_yields_to_a_peer_overwrite(self, tmp_path):
        """A peer rewriting the slot with a valid record is seen immediately."""
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        original = service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        reopened = open_store(store_path)
        assert reopened.get(SMALL.cache_key(), "aria") is None  # memoised as stale
        # A concurrent process heals the slot (a row upsert with a fresh
        # write stamp): the memo must not mask it.
        peer = open_store(store_path)
        peer.put(SMALL.cache_key(), "aria", original)
        assert reopened.get(SMALL.cache_key(), "aria") == original

    def test_memo_invalidated_by_local_put(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        original = service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        reopened = open_store(store_path)
        assert reopened.get(SMALL.cache_key(), "aria") is None  # memoised as stale
        reopened.put(SMALL.cache_key(), "aria", original)
        assert reopened.get(SMALL.cache_key(), "aria") == original


class TestGc:
    """TTL expiry, stale purge, size-capped eviction (lease reaping: test_fabric)."""

    def _seed(self, store_path, nodes=(2, 3, 4)):
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=n) for n in nodes]
        for scenario in scenarios:
            service.evaluate(scenario, "aria")
        service.store.close()
        return scenarios

    def test_ttl_expires_old_records(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path)
        for scenario in scenarios:
            _backdate_point(store_path, scenario.cache_key(), "aria", 100.0)
        store = open_store(store_path)
        stats = store.gc(ttl=50.0)
        assert stats.examined == 3
        assert stats.expired == 3
        assert stats.purged == 3
        assert stats.remaining == 0
        assert not stats.dry_run
        for scenario in scenarios:
            assert store.get(scenario.cache_key(), "aria") is None
        assert open_store(store_path).refresh().loaded == 0

    def test_young_records_survive_ttl(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path)
        stats = open_store(store_path).gc(ttl=3600.0)
        assert stats.expired == 0
        assert stats.remaining == 3
        assert open_store(store_path).refresh().loaded == len(scenarios)

    def test_max_records_evicts_oldest_first(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path, nodes=(2, 3, 4, 5))
        # Stagger the ages: scenarios[0] oldest ... scenarios[3] newest.
        for position, scenario in enumerate(scenarios):
            _backdate_point(
                store_path, scenario.cache_key(), "aria",
                600.0 - 100.0 * position,
            )
        store = open_store(store_path)
        stats = store.gc(max_records=2)
        assert stats.evicted == 2
        assert stats.remaining == 2
        for scenario in scenarios[:2]:  # the two oldest are gone
            assert store.get(scenario.cache_key(), "aria") is None
        for scenario in scenarios[2:]:  # the two newest survive
            assert store.get(scenario.cache_key(), "aria") is not None

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path)
        for scenario in scenarios:
            _backdate_point(store_path, scenario.cache_key(), "aria", 100.0)
        store = open_store(store_path)
        stats = store.gc(ttl=50.0, dry_run=True)
        assert stats.dry_run
        assert stats.expired == 3
        assert "would purge 3" in stats.describe()
        # Nothing was actually removed.
        assert open_store(store_path).refresh().loaded == 3

    def test_stale_records_are_purged(self, tmp_path):
        store_path = tmp_path / "store"
        self._seed(store_path, nodes=(2, 3))
        _set_version_field(store_path, "backend_version", 999)
        stats = open_store(store_path).gc()
        # gc is the explicit "this data is dead" pass: unlike the read path,
        # it removes stale records instead of skipping them in place.
        assert stats.stale == 1
        assert stats.remaining == 1
        assert open_store(store_path).refresh().loaded == 1

    def test_dry_run_writes_nothing(self, tmp_path):
        """Regression: a dry run over an undecodable row quarantined it to disk."""
        store_path = tmp_path / "store"
        self._seed(store_path)
        _corrupt_records(store_path, 1)

        def listing() -> list[str]:
            return sorted(str(path.relative_to(store_path)) for path in store_path.rglob("*"))

        before = listing()
        store = open_store(store_path)
        stats = store.gc(ttl=0.0, dry_run=True)
        store.close()
        assert stats.corrupt == 1
        assert stats.expired == 2
        assert listing() == before
        assert len(_sqlite_tokens(store_path)) == 3  # the corrupt row too

    def test_gc_on_empty_store(self, tmp_path):
        stats = open_store(tmp_path / "store").gc(ttl=1.0, max_records=10)
        assert stats.examined == 0
        assert stats.purged == 0
        assert stats.remaining == 0
