"""Claim/lease protocol: k workers drain one grid with zero duplicate work.

A cooperative sweep needs exactly one guarantee the result store alone does
not give: *at most one live worker evaluates a given point at a time*.  The
store already makes concurrent writers safe (last upsert wins, both
contents identical); leases make them *efficient* by preventing the
duplicate evaluation in the first place — and, unlike a lock, a lease
expires, so a crashed worker's points return to the pool instead of
deadlocking the sweep.

Claims are rows of the store's own database, the ``leases`` table
``(token PRIMARY KEY, owner, acquired, renewed, ttl)``, so they work
wherever the store works with no coordination server:

* **Claim** — under ``BEGIN IMMEDIATE``, one conditional upsert inserts the
  row, or takes an existing row over only if ``renewed + ttl < now``.  The
  statement's change count says whether this worker won; SQLite's write
  lock makes exactly one of any number of racing challengers win.
* **Heartbeat** — a live worker renews its claims (``UPDATE … SET renewed``
  where it is still the owner) well inside the TTL; the
  :meth:`LeaseManager.heartbeat` context manager runs that on a background
  thread so a single long evaluation cannot silently expire its own lease.
* **Release** — ``DELETE … WHERE owner = ?`` after the point's result is
  durably in the store, so the "claimed" and "answered" states never gap.
* **Reaping** — :meth:`~repro.api.store.SqliteResultStore.gc` deletes rows
  whose TTL has passed.

Timestamps are wall-clock (``time.time``) because claims may be read by
other processes; the TTL should therefore comfortably exceed both the
heartbeat interval and any plausible clock skew.  The default heartbeat
interval is ``ttl / 3``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...exceptions import ValidationError

if TYPE_CHECKING:
    from .sqlite_store import SqliteResultStore

#: Default lease time-to-live in seconds.  Long enough that a heartbeat at
#: ttl/3 survives severe scheduler delay; short enough that a crashed
#: worker's points return to the pool quickly.
DEFAULT_LEASE_TTL = 30.0

#: Insert a claim, or take over an existing one only once it has expired.
_CLAIM = """
INSERT INTO leases (token, owner, acquired, renewed, ttl) VALUES (?, ?, ?, ?, ?)
ON CONFLICT (token) DO UPDATE SET
    owner = excluded.owner,
    acquired = excluded.acquired,
    renewed = excluded.renewed,
    ttl = excluded.ttl
WHERE leases.renewed + leases.ttl < excluded.renewed
"""

_SELECT = "SELECT token, owner, acquired, renewed, ttl FROM leases"


@dataclass(frozen=True)
class LeaseInfo:
    """One claim row."""

    token: str
    worker: str
    acquired: float
    renewed: float
    ttl: float

    @property
    def expires_at(self) -> float:
        """Wall-clock time after which the claim is dead."""
        return self.renewed + self.ttl

    def expired(self, now: float | None = None) -> bool:
        """Whether the claim's TTL has lapsed."""
        return (time.time() if now is None else now) > self.expires_at


class LeaseManager:
    """Claim, renew, and release point leases for one worker.

    One manager serves one ``worker_id``; the claim *namespace* (the
    store's ``leases`` table) is shared by every manager over the same
    store path.  Thread-safe: the heartbeat thread and the claiming thread
    share the held-lease ledger under a lock.
    """

    def __init__(
        self,
        store: "SqliteResultStore",
        worker_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        if not worker_id:
            raise ValidationError("worker_id must be a non-empty string")
        if ttl <= 0:
            raise ValidationError(f"lease ttl must be positive, got {ttl}")
        self._store = store
        self.worker_id = worker_id
        self.ttl = float(ttl)
        self._lock = threading.Lock()
        self._held: set[str] = set()
        #: Leases this worker held but lost to a takeover (it heartbeated
        #: too late); exposed so a sweep can re-check those points.
        self.lost: set[str] = set()

    def held(self) -> list[str]:
        """Tokens this manager currently believes it owns."""
        with self._lock:
            return sorted(self._held)

    def read(self, token: str) -> LeaseInfo | None:
        """The current claim on ``token``, or ``None`` when unclaimed."""
        rows = self._store._query(f"{_SELECT} WHERE token = ?", (token,))
        return LeaseInfo(*rows[0]) if rows else None

    def scan(self) -> list[LeaseInfo]:
        """All current claims in the namespace (any owner)."""
        return [LeaseInfo(*row) for row in self._store._query(f"{_SELECT} ORDER BY token")]

    def try_claim(self, token: str) -> bool:
        """Claim one point; ``True`` iff this worker now owns the lease.

        A fresh point is inserted, an owned one is already ours, a live
        peer's claim stands (``False``), and an expired claim is taken over
        by exactly one challenger.
        """
        with self._lock:
            if token in self._held:
                return True
        now = time.time()
        with self._store._write() as conn:
            won = conn.execute(_CLAIM, (token, self.worker_id, now, now, self.ttl)).rowcount
        if not won:
            return False
        with self._lock:
            self._held.add(token)
            self.lost.discard(token)
        return True

    def renew(self, token: str) -> bool:
        """Refresh one held lease's TTL; ``False`` when the lease was lost.

        A lease can be lost when this worker stalled past its TTL and a peer
        took the claim over; the loser must treat the point as no longer
        its own (the token lands in :attr:`lost`).
        """
        with self._lock:
            if token not in self._held:
                return False
        with self._store._write() as conn:
            renewed = conn.execute(
                "UPDATE leases SET renewed = ? WHERE token = ? AND owner = ?",
                (time.time(), token, self.worker_id),
            ).rowcount
        if not renewed:
            with self._lock:
                self._held.discard(token)
                self.lost.add(token)
        return bool(renewed)

    def renew_all(self) -> int:
        """Refresh every held lease; returns how many renewals succeeded."""
        return sum(1 for token in self.held() if self.renew(token))

    def release(self, token: str) -> None:
        """Drop one held lease (after the point's result is in the store).

        A lease taken over while this worker stalled belongs to the new
        owner, whose claim this leaves in place.
        """
        with self._lock:
            if token not in self._held:
                return
            self._held.discard(token)
        with self._store._write() as conn:
            conn.execute(
                "DELETE FROM leases WHERE token = ? AND owner = ?",
                (token, self.worker_id),
            )

    def release_all(self) -> None:
        """Drop every held lease."""
        for token in self.held():
            self.release(token)

    @contextlib.contextmanager
    def heartbeat(self, interval: float | None = None) -> Iterator["LeaseManager"]:
        """Renew held leases on a background thread while the body runs.

        ``interval`` defaults to ``ttl / 3`` so two consecutive missed
        beats still leave slack before expiry.
        """
        period = self.ttl / 3.0 if interval is None else interval
        if period <= 0:
            raise ValidationError(f"heartbeat interval must be positive, got {period}")
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(period):
                self.renew_all()

        thread = threading.Thread(
            target=beat, name=f"lease-heartbeat-{self.worker_id}", daemon=True
        )
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=max(1.0, period * 2))
