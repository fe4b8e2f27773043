"""Durable result store and the sweep fabric's claim namespace.

``repro.api.store`` has one engine and two layers:

* :mod:`~repro.api.store.sqlite_store` — :class:`SqliteResultStore`, every
  record one row of a single WAL-mode SQLite file (versioning, corruption
  quarantine, gc);
* :mod:`~repro.api.store.leases` — the claim/lease protocol cooperative
  sweep workers use to drain one grid with zero duplicate evaluations;
  claims are rows of the same database.

:func:`open_store` is the front door the CLI, service and daemon use.
"""

from __future__ import annotations

import os
from pathlib import Path

from ...exceptions import ValidationError
from .leases import DEFAULT_LEASE_TTL, LeaseInfo, LeaseManager
from .sqlite_store import (
    DB_FILENAME,
    QUARANTINE_DIR,
    STORE_FORMAT_VERSION,
    GcStats,
    SqliteResultStore,
    StoreStats,
    _canonical_options,
    point_token,
)


def open_store(path: str | os.PathLike) -> SqliteResultStore:
    """Open the result store at ``path`` (created on first write).

    A directory holding a ``records/`` folder and no database is a store of
    the retired sharded-JSON layout.  It is refused rather than shadowed by
    a second, empty store beside it; every record in it is recomputable.
    """
    root = Path(path)
    if (root / "records").is_dir() and not (root / DB_FILENAME).exists():
        raise ValidationError(
            f"store at {str(root)!r} uses the retired sharded-JSON layout "
            f"(a records/ directory and no {DB_FILENAME}); its results are a "
            "recomputable cache, so delete the directory and rerun to rebuild it"
        )
    return SqliteResultStore(root)


__all__ = [
    "DB_FILENAME",
    "DEFAULT_LEASE_TTL",
    "GcStats",
    "LeaseInfo",
    "LeaseManager",
    "QUARANTINE_DIR",
    "STORE_FORMAT_VERSION",
    "SqliteResultStore",
    "StoreStats",
    "_canonical_options",
    "open_store",
    "point_token",
]
