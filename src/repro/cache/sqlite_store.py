"""SQLite key→document store: the disk tier of both cache classes.

Each tier directory holds a single SQLite database, ``entries.sqlite``:

* **WAL journal mode** — readers never block the (single) writer, and
  concurrent server processes sharing one cache directory serialize their
  writes through SQLite's own file locking;
* **one row per entry** (``key, payload, mtime, size``) — the payload is
  the cache value's JSON document, ``mtime`` and ``size`` feed lifecycle
  GC (:mod:`repro.cache.lifecycle`) without reading payloads;
* **crash safety** — a torn write is impossible by SQLite's journaling
  contract; a corrupt *payload* (bad JSON smuggled into a row) is treated
  as a miss and deleted by the caller.

Thread/process safety: one :class:`SqliteStore` holds one connection,
guarded by a lock, and may be shared by many threads; many processes may
each hold their own store on the same path (``busy_timeout`` absorbs
write contention).  All errors surface as :class:`OSError`, the type the
cache layer's disk-error accounting catches.

Resilience
----------

Every statement batch runs through :meth:`SqliteStore._run`, which maps
three failure classes to three responses (see ``docs/resilience.md``):

* *busy/locked* — retried under the store's :class:`RetryPolicy` (capped
  exponential backoff, deterministic jitter), sleeping **outside** the
  store lock so contended writers back off without blocking readers;
* *corruption* ("malformed", "not a database") — the database file is
  quarantined (renamed to ``entries.sqlite.corrupt.<pid>.<n>``) together
  with its WAL sidecars, rebuilt empty, and the operation retried once;
* anything else — surfaced as :class:`OSError` for the cache layer's
  disk-error accounting (and possible memory-only degradation).

The shared ``counters`` (:class:`ResilienceStats`) make all of this
visible in ``python -m repro.cache stats`` and the server's ``/stats``.
Fault-injection points ``cache.sqlite.open|read|write`` (see
:mod:`repro.faults`) sit at the top of each statement batch.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from repro.cache.resilience import ResilienceStats, RetryPolicy
from repro.faults import fault_point

__all__ = ["DB_FILENAME", "SqliteStore", "read_entries", "delete_entries"]

_T = TypeVar("_T")

#: Database file name inside a tier directory.
DB_FILENAME = "entries.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    mtime   REAL NOT NULL,
    size    INTEGER NOT NULL
)
"""

#: Seconds a writer waits on a locked database before giving up.  Five
#: seconds absorbs any realistic WAL checkpoint or competing transaction;
#: a longer stall indicates a wedged filesystem and should surface.
_BUSY_TIMEOUT_S = 5.0

#: Substrings identifying a transiently locked database (retryable) and a
#: corrupt database image (quarantine-and-rebuild) in SQLite messages.
_BUSY_MARKERS = ("locked", "busy")
_CORRUPTION_MARKERS = ("malformed", "not a database", "corrupt")

#: WAL sidecar suffixes moved aside together with a quarantined database,
#: so the rebuilt file can never adopt a stale write-ahead log.
_SIDECAR_SUFFIXES = ("-wal", "-shm")


def _is_busy(exc: sqlite3.Error) -> bool:
    message = str(exc).lower()
    return isinstance(exc, sqlite3.OperationalError) and any(
        marker in message for marker in _BUSY_MARKERS
    )


def _is_corruption(exc: sqlite3.Error) -> bool:
    message = str(exc).lower()
    return isinstance(exc, sqlite3.DatabaseError) and any(
        marker in message for marker in _CORRUPTION_MARKERS
    )


class SqliteStore:
    """One tier's key→JSON-text store on a single SQLite database."""

    def __init__(
        self,
        directory: "str | Path",
        timeout: float = _BUSY_TIMEOUT_S,
        retry: "RetryPolicy | None" = None,
        counters: "ResilienceStats | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / DB_FILENAME
        self.timeout = timeout
        self.retry = RetryPolicy.from_env() if retry is None else retry
        # Shared with the owning cache so retries/quarantines surface in
        # that tier's stats; standalone stores get private counters.
        self.counters = ResilienceStats() if counters is None else counters
        self._lock = threading.RLock()
        self._conn: "sqlite3.Connection | None" = None
        self._open_with_recovery()

    # ------------------------------------------------------------------ API

    def get(self, key: str) -> "str | None":
        """The JSON text stored under ``key``, or ``None``."""
        row = self._run(
            "read",
            lambda: self._conn.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone(),
        )
        return row[0] if row is not None else None

    def put(self, key: str, payload: str, mtime: "float | None" = None) -> None:
        """Insert or replace one entry (last writer wins)."""
        stamp = time.time() if mtime is None else float(mtime)

        def _write() -> None:
            self._conn.execute(
                "INSERT OR REPLACE INTO entries (key, payload, mtime, size) "
                "VALUES (?, ?, ?, ?)",
                (key, payload, stamp, len(payload.encode("utf-8"))),
            )
            self._conn.commit()

        self._run("write", _write)

    def delete(self, key: str) -> None:
        """Remove one entry (no-op when absent)."""

        def _delete() -> None:
            self._conn.execute("DELETE FROM entries WHERE key = ?", (key,))
            self._conn.commit()

        self._run("write", _delete)

    def contains(self, key: str) -> bool:
        row = self._run(
            "read",
            lambda: self._conn.execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone(),
        )
        return row is not None

    def clear(self) -> None:
        """Remove every entry (the database file itself stays)."""

        def _clear() -> None:
            self._conn.execute("DELETE FROM entries")
            self._conn.commit()

        self._run("write", _clear)

    def entries(self) -> "Iterator[tuple[str, int, float]]":
        """Yield ``(key, size_bytes, mtime)`` for every entry (GC scanning)."""
        rows = self._run(
            "read",
            lambda: self._conn.execute(
                "SELECT key, size, mtime FROM entries"
            ).fetchall(),
        )
        return iter(rows)

    def __len__(self) -> int:
        row = self._run(
            "read",
            lambda: self._conn.execute("SELECT COUNT(*) FROM entries").fetchone(),
        )
        return int(row[0])

    def close(self) -> None:
        with self._lock:
            conn = self._conn
            if conn is None:
                return
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close never fails in practice
                pass

    # ----------------------------------------------------------- resilience

    def _run(self, action: str, fn: "Callable[[], _T]") -> "_T":
        """Execute one locked statement batch with busy retry and
        corruption quarantine; every SQLite failure leaves as OSError."""
        attempt = 0
        while True:
            try:
                with self._lock:
                    fault_point(f"cache.sqlite.{action}")
                    return fn()
            except sqlite3.Error as exc:
                self._rollback()
                if _is_corruption(exc):
                    self._quarantine_and_rebuild(exc)
                    try:
                        with self._lock:
                            return fn()
                    except sqlite3.Error as retry_exc:
                        raise OSError(
                            f"cache database {action} failed after rebuild: {retry_exc}"
                        ) from retry_exc
                if _is_busy(exc):
                    delay = self.retry.delay_s(attempt)
                    if delay is not None:
                        attempt += 1
                        self.counters.record_retry(delay)
                        # Outside the lock: contended writers back off
                        # without stalling this store's other threads.
                        time.sleep(delay)
                        continue
                raise OSError(f"cache database {action} failed: {exc}") from exc

    def _rollback(self) -> None:
        """Drop any transaction a failed batch left open (best effort)."""
        try:
            with self._lock:
                if self._conn is not None:
                    self._conn.rollback()
        except sqlite3.Error:  # pragma: no cover - rollback on a dead handle
            pass

    def _open_with_recovery(self) -> None:
        """Open the database, retrying busy errors and quarantining a
        corrupt image, mirroring :meth:`_run` for the connect path."""
        attempt = 0
        while True:
            try:
                self._connect()
                return
            except sqlite3.Error as exc:
                if _is_corruption(exc):
                    self._quarantine_and_rebuild(exc)
                    return
                if _is_busy(exc):
                    delay = self.retry.delay_s(attempt)
                    if delay is not None:
                        attempt += 1
                        self.counters.record_retry(delay)
                        time.sleep(delay)
                        continue
                raise OSError(
                    f"cannot open cache database {self.path}: {exc}"
                ) from exc

    def _connect(self) -> None:
        """(Re)open the connection and ensure the schema exists.

        The only place ``self._conn`` is assigned after construction, so
        the quarantine path and ``__init__`` share one code path."""
        fault_point("cache.sqlite.open")
        self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path), timeout=self.timeout, check_same_thread=False
        )
        try:
            # WAL survives across connections (it is a database property,
            # not a connection one) but setting it is idempotent and cheap.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA)
            conn.commit()
        except sqlite3.Error:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close of a dead handle
                pass
            raise
        self._conn = conn

    def _quarantine_and_rebuild(self, exc: sqlite3.Error) -> None:
        """Move a corrupt database (and WAL sidecars) aside, then rebuild.

        Cached entries in the quarantined file are lost — the cache only
        trades recomputation for time, never correctness — but the file is
        kept on disk for post-mortem inspection.  Raises :class:`OSError`
        when the filesystem refuses the quarantine or the rebuild."""
        self.counters.quarantines += 1
        with self._lock:
            conn = self._conn
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:  # pragma: no cover - close of a dead handle
                    pass
            stamp = f"corrupt.{os.getpid()}.{self.counters.quarantines}"
            try:
                os.replace(self.path, self.path.with_name(f"{DB_FILENAME}.{stamp}"))
            except FileNotFoundError:
                pass  # never materialized; rebuild below creates it
            except OSError as move_exc:
                raise OSError(
                    f"cache database corrupt ({exc}) and quarantine failed: {move_exc}"
                ) from exc
            for suffix in _SIDECAR_SUFFIXES:
                sidecar = self.path.with_name(f"{DB_FILENAME}{suffix}")
                try:
                    os.replace(sidecar, sidecar.with_name(f"{sidecar.name}.{stamp}"))
                except OSError:
                    pass  # no sidecar, or not movable: the fresh DB resets it
            try:
                self._connect()
            except sqlite3.Error as rebuild_exc:
                raise OSError(
                    f"cache database rebuild after corruption failed: {rebuild_exc}"
                ) from rebuild_exc

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -------------------------------------------------- lifecycle/GC helpers
#
# The garbage collector (repro.cache.lifecycle) must be able to *inspect*
# a database without side effects — opening a SqliteStore creates the
# directory and database, and `stats`/`ls`/`--dry-run prune` must never
# mutate the directory they describe.  These free functions open a plain
# read (or delete-only) connection instead.


def read_entries(db_path: "str | Path") -> "list[tuple[str, int, float]]":
    """``(key, size_bytes, mtime)`` rows of a database, read-only.

    A missing database means no entries; an unreadable or schema-less one
    is reported as empty too (GC skips it, never crashing the pass)."""
    path = Path(db_path)
    if not path.is_file():
        return []
    try:
        conn = sqlite3.connect(str(path), timeout=_BUSY_TIMEOUT_S)
        try:
            return [
                (str(key), int(size), float(mtime))
                for key, size, mtime in conn.execute(
                    "SELECT key, size, mtime FROM entries"
                )
            ]
        finally:
            conn.close()
    except sqlite3.Error:
        return []


def delete_entries(db_path: "str | Path", keys: "list[str]") -> int:
    """Delete the given rows from a database; returns how many went away.

    Raises :class:`OSError` when the database cannot be opened or written,
    so callers can account the failure like any other disk error."""
    if not keys:
        return 0
    path = Path(db_path)
    if not path.is_file():
        return 0
    try:
        conn = sqlite3.connect(str(path), timeout=_BUSY_TIMEOUT_S)
        try:
            cursor = conn.executemany(
                "DELETE FROM entries WHERE key = ?", [(key,) for key in keys]
            )
            conn.commit()
            return int(cursor.rowcount) if cursor.rowcount >= 0 else len(keys)
        finally:
            conn.close()
    except sqlite3.Error as exc:
        raise OSError(f"cache database delete failed: {exc}") from exc
