"""The result store: one WAL-mode SQLite file per store directory.

A result store materialises :class:`~repro.api.results.PredictionResult`
records keyed by ``(Scenario.cache_key(), backend, canonical backend
options)`` so sweeps, figure runs, and benches pay for each evaluation
exactly once across process lifetimes.  Every record is one row of the
``records`` table in ``<store>/store.sqlite3``, so a cold ``get_many`` over
an arbitrary grid is a handful of indexed ``SELECT``\\ s regardless of store
size, and ``put_many`` batches a whole sweep's results into one transaction.

Versioning: a row written under another store format, scenario spec, or
producing backend version is *stale* — skipped in place by reads, purged by
:meth:`SqliteResultStore.gc`.  Corruption is never fatal, at two
granularities:

* **row-level** — a row whose ``result`` payload fails to decode is counted
  corrupt, a JSON dump of the row is quarantined into
  ``<store>/.quarantine/``, and the row is deleted;
* **file-level** — an unopenable/unreadable database file is itself moved
  into quarantine and a fresh empty database takes its place.

The same database holds the cooperative-sweep claims (the ``leases`` table,
see :mod:`repro.api.store.leases`): :meth:`SqliteResultStore.lease_manager`
hands out a :class:`~repro.api.store.leases.LeaseManager` over it, so k
workers sharing one store path share one claim namespace too.

WAL mode plus a busy timeout makes concurrent cross-process writers safe;
every write is one ``BEGIN IMMEDIATE`` transaction.  Within a process a
single connection (``check_same_thread=False``) is shared, with every
database operation serialised under the store lock.  Lock contention is
never taken for damage: an operation that cannot get a lock within
``BUSY_TIMEOUT`` raises :class:`~repro.exceptions.StoreError` and leaves
the database where it is.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import sqlite3
import threading
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from ...exceptions import StoreError
from ..backends import backend_version
from ..results import PredictionResult
from ..scenario import SCENARIO_SPEC_VERSION
from .leases import DEFAULT_LEASE_TTL, LeaseManager

logger = logging.getLogger(__name__)

#: Version of the on-disk record envelope; bump on layout changes.
STORE_FORMAT_VERSION = 1

#: Sibling directory corrupt records are moved into (reason-prefixed names).
QUARANTINE_DIR = ".quarantine"

#: Name of the database file inside the store directory.
DB_FILENAME = "store.sqlite3"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    token TEXT PRIMARY KEY,
    format INTEGER NOT NULL,
    spec_version INTEGER NOT NULL,
    backend TEXT NOT NULL,
    -- no declared type: BLOB affinity stores the backend's version verbatim
    -- (int, string, or NULL for an unregistered backend)
    backend_version,
    options TEXT NOT NULL,
    key TEXT NOT NULL,
    result TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS records_created ON records (created);
CREATE TABLE IF NOT EXISTS leases (
    token TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    acquired REAL NOT NULL,
    renewed REAL NOT NULL,
    ttl REAL NOT NULL
);
"""

_ROW_FIELDS = (
    "token",
    "format",
    "spec_version",
    "backend",
    "backend_version",
    "options",
    "key",
    "result",
    "created",
)

_SELECT = f"SELECT {', '.join(_ROW_FIELDS)} FROM records"

_UPSERT = (
    f"INSERT OR REPLACE INTO records ({', '.join(_ROW_FIELDS)}) "
    f"VALUES ({','.join('?' * len(_ROW_FIELDS))})"
)

#: Claims past their TTL (``gc`` reaps them).
_EXPIRED_LEASES = "FROM leases WHERE renewed + ttl < ?"

#: Bound parameters per ``IN (...)`` statement.
_CHUNK = 500

#: Seconds an operation waits out another connection's lock before failing.
BUSY_TIMEOUT = 30.0


def _contended(exc: sqlite3.Error) -> bool:
    """Whether ``exc`` is lock contention (busy/locked) rather than damage.

    Contention is transient and says nothing about the file, so it must
    never quarantine a database that peers are using.
    """
    code = getattr(exc, "sqlite_errorcode", None)
    return code is not None and code & 0xFF in (sqlite3.SQLITE_BUSY, sqlite3.SQLITE_LOCKED)


def _canonical_options(options: "dict | None") -> str:
    """Stable string form of a backend's constructor options.

    Options change what a backend computes, so they partition the store:
    they are folded into the record digest and row.  ``default=repr``
    keeps this total — unserialisable option values yield a stable-enough
    key instead of an exception on lookup.
    """
    return json.dumps(options or {}, sort_keys=True, default=repr)


def point_token(key: str, backend: str, options_key: str) -> str:
    """Stable digest naming one ``(backend, options, cache key)`` point.

    It is the primary key of the point's ``records`` row and of its
    ``leases`` row, so a lease guards exactly one record slot.
    """
    return hashlib.sha256(f"{backend}\n{options_key}\n{key}".encode()).hexdigest()


@dataclass
class StoreStats:
    """Outcome of one scan: how many records were usable."""

    loaded: int = 0
    #: Undecodable rows (skipped, logged).
    corrupt: int = 0
    #: Well-formed records written under a different format/spec/backend version.
    stale: int = 0
    #: Corrupt rows successfully dumped into the quarantine directory
    #: (at most :attr:`corrupt`; a quarantine write can itself fail).
    quarantined: int = 0


@dataclass
class GcStats:
    """Outcome of one :meth:`SqliteResultStore.gc` maintenance pass."""

    #: Records examined by the sweep.
    examined: int = 0
    #: Records purged because they outlived the TTL.
    expired: int = 0
    #: Records purged because they were written under another version.
    stale: int = 0
    #: Oldest records purged to respect ``max_records``.
    evicted: int = 0
    #: Corrupt records quarantined while sweeping (a dry run only counts them).
    corrupt: int = 0
    #: Usable records remaining after the pass.
    remaining: int = 0
    #: Expired lease rows removed.
    leases_removed: int = 0
    #: Bytes returned to the filesystem (compaction delta; best-effort).
    reclaimed_bytes: int = 0
    #: Whether this was a report-only pass (nothing was deleted).
    dry_run: bool = False

    @property
    def purged(self) -> int:
        """Total records removed (expired + stale + evicted)."""
        return self.expired + self.stale + self.evicted

    def describe(self) -> str:
        """One-line human-readable summary of the pass."""
        verb = "would purge" if self.dry_run else "purged"
        return (
            f"gc: examined {self.examined} records, {verb} {self.purged} "
            f"({self.expired} expired, {self.stale} stale, {self.evicted} evicted), "
            f"{self.corrupt} quarantined, {self.leases_removed} stale leases, "
            f"{self.reclaimed_bytes} bytes reclaimed, {self.remaining} remaining"
        )


class SqliteResultStore:
    """Disk-backed ``(cache key, backend, options) -> PredictionResult`` mapping.

    An in-memory index fronts the database: ``get`` probes exactly the rows
    it needs, so opening a store stays O(1) however many records it has
    grown to, and :meth:`refresh` performs the full scan when a complete
    view is wanted.  All index and database access happens under
    ``self._lock`` (re-entrant, so a read may delete a corrupt row).
    """

    #: Engine name reported by ``repro store info`` and the daemon's stats.
    format_name = "sqlite"

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = Path(path)
        if self._path.exists() and not self._path.is_dir():
            raise StoreError(
                f"store path {str(self._path)!r} exists and is not a directory"
            )
        self._lock = threading.RLock()
        self._index: dict[tuple[str, str, str], PredictionResult] = {}
        self.stats = StoreStats()
        self._db_path = self._path / DB_FILENAME
        self._conn: sqlite3.Connection | None = None
        # Unusable-probe memo: token -> ``created`` stamp the row was last
        # found stale/corrupt at.  A peer overwriting the row rewrites
        # ``created``, so the memo never hides a fresh record.  Invalidated
        # by put() and cleared by refresh().
        self._stale_rows: dict[str, float] = {}

    @property
    def path(self) -> Path:
        """Root directory of the store."""
        return self._path

    def __len__(self) -> int:
        """Number of *indexed* records (run :meth:`refresh` for the disk total)."""
        with self._lock:
            return len(self._index)

    def keys(self) -> list[tuple[str, str, str]]:
        """All indexed ``(cache key, backend, canonical options)`` triples."""
        with self._lock:
            return list(self._index)

    def point_token(self, key: str, backend: str, options: dict | None = None) -> str:
        """The digest naming this point's record row and lease row."""
        return point_token(key, backend, _canonical_options(options))

    def lease_manager(self, worker_id: str, ttl: float | None = None) -> LeaseManager:
        """A claim/lease manager over this store's ``leases`` table.

        Every worker sharing this store path shares the claim namespace, so
        a point claimed through one store object (or process) is visibly
        claimed through all of them.
        """
        return LeaseManager(self, worker_id, ttl=DEFAULT_LEASE_TTL if ttl is None else ttl)

    # -- connection management -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open (or recover) the database.  Caller holds ``self._lock``."""
        if self._conn is not None:
            return self._conn
        self._path.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._open_db()
        except sqlite3.Error as exc:
            if _contended(exc):
                raise self._locked(exc) from exc
            # File-level corruption: quarantine the damaged database and
            # start fresh.
            self._quarantine_db(str(exc))
            try:
                self._conn = self._open_db()
            except sqlite3.Error as fresh_exc:
                raise StoreError(
                    f"cannot open store database {str(self._db_path)!r}: {fresh_exc}"
                ) from fresh_exc
        return self._conn

    def _open_db(self) -> sqlite3.Connection:
        """Connect and set the database up, retrying lock contention.

        Connections opening one fresh database race to switch it to WAL
        and create the schema, and SQLite fails some of those races at
        once with ``SQLITE_BUSY`` (deadlock avoidance) instead of waiting
        out the busy timeout; such a loser retries until ``BUSY_TIMEOUT``.
        """
        deadline = time.monotonic() + BUSY_TIMEOUT
        while True:
            conn = sqlite3.connect(self._db_path, timeout=BUSY_TIMEOUT, check_same_thread=False)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SCHEMA)
                conn.commit()
                return conn
            except sqlite3.Error as exc:
                conn.close()
                if not _contended(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(0.01)

    def _locked(self, exc: sqlite3.Error) -> StoreError:
        return StoreError(f"store database {str(self._db_path)!r} is locked: {exc}")

    def _quarantine_db(self, detail: str) -> None:
        self._conn = None
        target_dir = self._path / QUARANTINE_DIR
        target = target_dir / f"unreadable-db--{DB_FILENAME}.{os.getpid()}"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(self._db_path, target)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(self._db_path)
            target = None
        for suffix in ("-wal", "-shm"):
            with contextlib.suppress(OSError):
                os.unlink(f"{self._db_path}{suffix}")
        logger.warning(
            "store database %s is unreadable (%s)%s; starting fresh",
            self._db_path,
            detail,
            f"; quarantined to {target}" if target else "",
        )

    def close(self) -> None:
        """Close the database connection (reopened lazily on next use)."""
        with self._lock:
            if self._conn is not None:
                with contextlib.suppress(sqlite3.Error):
                    self._conn.close()
                self._conn = None

    # -- lookup ---------------------------------------------------------------

    def get(
        self, key: str, backend: str, options: dict | None = None
    ) -> PredictionResult | None:
        """The stored result of one point, or ``None``.

        A miss probes the database before giving up, so rows committed by a
        concurrent process are picked up without an explicit :meth:`refresh`.
        """
        options_key = _canonical_options(options)
        index_key = (key, backend, options_key)
        with self._lock:
            hit = self._index.get(index_key)
            if hit is not None:
                return hit
            token = point_token(key, backend, options_key)
            rows = self._query(f"{_SELECT} WHERE token = ?", (token,))
            return self._index_rows(rows, {token: index_key}).get((key, backend))

    def get_many(
        self, points: Sequence[tuple[str, str, dict | None]]
    ) -> dict[tuple[str, str], PredictionResult]:
        """Bulk lookup; misses are resolved with batched indexed ``SELECT``\\ s."""
        found: dict[tuple[str, str], PredictionResult] = {}
        with self._lock:
            misses: dict[str, tuple[str, str, str]] = {}
            for key, backend, options in points:
                options_key = _canonical_options(options)
                index_key = (key, backend, options_key)
                hit = self._index.get(index_key)
                if hit is not None:
                    found[(key, backend)] = hit
                    continue
                misses[point_token(key, backend, options_key)] = index_key
            tokens = list(misses)
            for start in range(0, len(tokens), _CHUNK):
                chunk = tokens[start : start + _CHUNK]
                rows = self._query(
                    f"{_SELECT} WHERE token IN ({','.join('?' * len(chunk))})", chunk
                )
                found.update(self._index_rows(rows, misses))
        return found

    def _index_rows(
        self, rows: list[tuple], expected: dict[str, tuple[str, str, str]]
    ) -> dict[tuple[str, str], PredictionResult]:
        """Decode probed rows into the index.  Caller holds ``self._lock``.

        ``expected`` maps each probed token to the point it must decode to;
        an unusable row is memoised so the next probe skips the decode.
        """
        found: dict[tuple[str, str], PredictionResult] = {}
        for row in rows:
            token = row[0]
            index_key = expected[token]
            if self._stale_rows.get(token) == row[8]:
                continue  # unchanged since it was last found unusable
            loaded = self._load_row(row, StoreStats())
            if loaded is None or loaded[:3] != index_key:
                self._stale_rows[token] = row[8]
                continue
            self._stale_rows.pop(token, None)
            self._index[index_key] = loaded[3]
            found[(index_key[0], index_key[1])] = loaded[3]
        return found

    # -- writes ---------------------------------------------------------------

    def put(
        self,
        key: str,
        backend: str,
        result: PredictionResult,
        options: dict | None = None,
    ) -> None:
        """Persist one result (an upsert in one transaction)."""
        self.put_many([(key, backend, result, options)])

    def put_many(
        self, records: Sequence[tuple[str, str, PredictionResult, dict | None]]
    ) -> None:
        """Persist many results in **one transaction** (the batching win)."""
        if not records:
            return
        now = time.time()
        rows = [
            self._encode(key, backend, result, options, now)
            for key, backend, result, options in records
        ]
        with self._lock:
            self._upsert(rows)
            for row, (key, backend, result, _options) in zip(rows, records):
                self._index[(key, backend, row[5])] = result
                self._stale_rows.pop(row[0], None)

    # -- maintenance ----------------------------------------------------------

    def refresh(self) -> StoreStats:
        """Full table scan, *merged* over the live in-memory index.

        Entries indexed before the scan survive it even if a peer deleted
        their rows meanwhile; :meth:`gc` drops the entries it purges itself.
        """
        stats = StoreStats()
        index: dict[tuple[str, str, str], PredictionResult] = {}
        with self._lock:
            self._stale_rows.clear()
            for row in self._query(f"{_SELECT} ORDER BY token"):
                loaded = self._load_row(row, stats)
                if loaded is not None:
                    index[loaded[:3]] = loaded[3]
            for index_key, result in self._index.items():
                index.setdefault(index_key, result)
            self._index = index
            self.stats = stats
        return stats

    def gc(
        self,
        ttl: float | None = None,
        max_records: int | None = None,
        dry_run: bool = False,
    ) -> GcStats:
        """Expire, purge, and compact so the store stops growing without bound.

        * ``ttl`` — purge records older than this many seconds (age is the
          row's ``created`` stamp, rewritten on every put);
        * ``max_records`` — after TTL/stale purging, evict the oldest
          records until at most this many remain;
        * stale records (written under another format/spec/backend version)
          are always purged — unlike a read path skip, gc is the explicit
          "this data is dead" operation;
        * corrupt rows are quarantined exactly as the read path would;
        * expired lease rows are always reaped;
        * ``dry_run`` only counts: it writes, moves, and deletes nothing.

        After a real pass the database is vacuumed so reclaimed pages
        actually shrink the file.
        """
        stats = GcStats(dry_run=dry_run)
        now = time.time()
        with self._lock:
            if not self._db_path.exists() and self._conn is None:
                return stats
            size_before = self._db_size()
            doomed: list[str] = []
            purged_keys: list[tuple[str, str, str]] = []
            survivors: list[tuple[str, tuple[str, str, str]]] = []
            for row in self._query(f"{_SELECT} ORDER BY created"):
                stats.examined += 1
                scan = StoreStats()
                loaded = self._load_row(row, scan, quarantine=not dry_run)
                if scan.corrupt:
                    stats.corrupt += 1
                elif scan.stale:
                    stats.stale += 1
                    doomed.append(row[0])
                elif ttl is not None and now - row[8] > ttl:
                    stats.expired += 1
                    doomed.append(row[0])
                    purged_keys.append(loaded[:3])
                else:
                    survivors.append((row[0], loaded[:3]))
            if max_records is not None and len(survivors) > max_records:
                excess = survivors[: len(survivors) - max_records]
                stats.evicted = len(excess)
                doomed.extend(token for token, _ in excess)
                purged_keys.extend(index_key for _, index_key in excess)
            stats.remaining = len(survivors) - stats.evicted
            if dry_run:
                stats.leases_removed = self._query(
                    f"SELECT COUNT(*) {_EXPIRED_LEASES}", (now,)
                )[0][0]
                if doomed:
                    # Rough estimate: average row weight times doomed rows.
                    stats.reclaimed_bytes = int(size_before * len(doomed) / stats.examined)
                return stats
            with self._write() as conn:
                for start in range(0, len(doomed), _CHUNK):
                    chunk = doomed[start : start + _CHUNK]
                    conn.execute(
                        f"DELETE FROM records WHERE token IN ({','.join('?' * len(chunk))})",
                        chunk,
                    )
                stats.leases_removed = conn.execute(
                    f"DELETE {_EXPIRED_LEASES}", (now,)
                ).rowcount
            with contextlib.suppress(sqlite3.Error):
                conn = self._connect()
                conn.execute("VACUUM")
                # VACUUM writes through the WAL; checkpointing moves the
                # compacted pages into the main file so it actually shrinks.
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            stats.reclaimed_bytes = max(0, size_before - self._db_size())
            for index_key in purged_keys:
                self._index.pop(index_key, None)
        return stats

    # -- internals ------------------------------------------------------------

    def _db_size(self) -> int:
        try:
            return self._db_path.stat().st_size
        except OSError:
            return 0

    def _query(self, sql: str, params: Sequence = ()) -> list[tuple]:
        """Run one read, recovering once from file-level corruption.

        A store whose database does not exist yet has no rows; reading it
        creates nothing.
        """
        with self._lock:
            if self._conn is None and not self._db_path.exists():
                return []
            try:
                return self._connect().execute(sql, params).fetchall()
            except sqlite3.DatabaseError as exc:
                if _contended(exc):
                    raise self._locked(exc) from exc
                self._quarantine_db(str(exc))
                return self._connect().execute(sql, params).fetchall()

    @contextlib.contextmanager
    def _write(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction on the shared connection.

        The write lock is taken up front, so a transaction never has to
        upgrade a read lock (which can fail with ``SQLITE_BUSY`` under
        contention); the body commits as a whole or not at all.
        """
        with self._lock:
            conn = self._connect()
            try:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    yield conn
                except BaseException:
                    conn.rollback()
                    raise
                conn.commit()
            except sqlite3.Error as exc:
                raise StoreError(
                    f"cannot write to store database {str(self._db_path)!r}: {exc}"
                ) from exc

    def _upsert(self, rows: Sequence[tuple]) -> None:
        """Write encoded ``records`` rows in one transaction."""
        with self._write() as conn:
            conn.executemany(_UPSERT, rows)

    def _encode(
        self,
        key: str,
        backend: str,
        result: PredictionResult,
        options: dict | None,
        created: float,
    ) -> tuple:
        """The ``records`` row persisting one result."""
        options_key = _canonical_options(options)
        try:
            payload = json.dumps(result.to_dict(), sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"cannot serialise store record for key {key!r}: {exc}"
            ) from exc
        return (
            point_token(key, backend, options_key),
            STORE_FORMAT_VERSION,
            SCENARIO_SPEC_VERSION,
            backend,
            backend_version(backend),
            options_key,
            key,
            payload,
            created,
        )

    def _quarantine_row(self, row: tuple, reason: str) -> Path | None:
        """Preserve a corrupt row as a JSON file under ``.quarantine/``."""
        target_dir = self._path / QUARANTINE_DIR
        target = target_dir / f"{reason}--{row[0]}.json"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target.write_text(
                json.dumps(dict(zip(_ROW_FIELDS, row)), sort_keys=True, default=repr)
            )
        except OSError:
            return None
        return target

    def _load_row(
        self, row: tuple, stats: StoreStats, quarantine: bool = True
    ) -> tuple[str, str, str, PredictionResult] | None:
        """Decode one row; corruption and staleness are never fatal.

        A corrupt row is dumped to a JSON file under ``.quarantine/`` and
        deleted from the table; with ``quarantine=False`` (a dry run) it is
        only counted.
        """
        (token, fmt, spec, backend, b_version, options_key, key, payload, _) = row
        if fmt != STORE_FORMAT_VERSION or spec != SCENARIO_SPEC_VERSION or (
            b_version != backend_version(backend)
        ):
            stats.stale += 1
            logger.info("skipping stale store row %s (version mismatch)", token)
            return None
        try:
            result = PredictionResult.from_dict(json.loads(payload))
        except Exception as exc:  # noqa: BLE001 — any decode failure is corruption
            stats.corrupt += 1
            quarantined = None
            if quarantine:
                quarantined = self._quarantine_row(row, "undecodable")
                if quarantined is not None:
                    stats.quarantined += 1
                with contextlib.suppress(StoreError), self._write() as conn:
                    conn.execute("DELETE FROM records WHERE token = ?", (token,))
            logger.warning(
                "skipping corrupt store row %s (undecodable: %s)%s",
                token,
                exc,
                f"; quarantined to {quarantined}" if quarantined else "",
            )
            return None
        stats.loaded += 1
        return key, backend, options_key, result
