"""Sqlite-backed persistent result store with O(1) appends.

The schema is one table::

    results(key TEXT, seed INTEGER, version TEXT, payload TEXT, created_at REAL,
            PRIMARY KEY (key, seed, version))

``key`` is a :func:`~repro.store.fingerprint.spec_fingerprint` or
:func:`~repro.store.fingerprint.callable_fingerprint`, ``seed`` the derived
trial seed, ``version`` the :func:`~repro.store.fingerprint.code_version`
stamp, ``payload`` the :func:`~repro.store.codec.encode_result` JSON.  The
primary key makes recording idempotent (``INSERT OR IGNORE``), and each
``record_many`` is one transaction over just the new rows, whatever keys
they carry -- cost is proportional to the batch, never to the store size.

Lookups are filtered to the current code version; rows recorded under a
different version are *ignored with a stderr note* (results from different
code must never be mixed into one aggregate) unless the store was opened
with ``allow_stale=True`` (the ``--allow-stale-cache`` escape hatch, for
consciously reusing results across a version bump that did not change
behaviour).
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.store import fingerprint as _fingerprint
from repro.store.codec import decode_result, encode_result

__all__ = ["DamagedStoreError", "ResultStore"]

#: sqlite bind-parameter budget per query (the historical hard limit is 999).
_CHUNK = 500

#: The first bytes of every sqlite 3 database file.
_SQLITE_HEADER = b"SQLite format 3\x00"


def _check_store_file(path: str) -> None:
    """Refuse a file that is neither empty nor a sqlite database.

    Runs before ``fresh`` removes anything and before sqlite connects, so a
    mistyped path (above all a retired JSONL checkpoint journal) is never
    deleted or half-opened, and the error names the path.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(_SQLITE_HEADER))
    except FileNotFoundError:
        return
    if not head or head == _SQLITE_HEADER:
        return
    message = f"{path} is not a sqlite result store"
    if head.lstrip().startswith(b"{"):
        message += (
            "; it looks like a JSONL checkpoint journal, which is no longer "
            "read: pass a new .sqlite path and re-run the trials"
        )
    raise ValueError(message)


class DamagedStoreError(ValueError):
    """A store file sqlite cannot open, read or write (truncated, corrupt).

    Its message is one line naming the path; the CLI exits with it.
    """


def _stale_note(path: str, ignored: int, current: str) -> None:
    print(
        f"note: {path}: ignoring {ignored} cached result(s) recorded under a "
        f"different code version than the current {current!r}; "
        "pass --allow-stale-cache to reuse them",
        file=sys.stderr,
    )


class ResultStore:
    """Persistent ``(key, seed, code_version)``-keyed trial-result store.

    The trial executor (:class:`~repro.experiments.parallel.SweepPool`)
    talks to it through ``lookup`` / ``record_many``; ``__len__`` /
    ``__contains__`` and the introspection methods serve reports and export.

    Parameters
    ----------
    path:
        Database file location (created with parents if missing).  An
        existing file must be empty or a sqlite database: anything else --
        e.g. a JSONL journal -- raises ``ValueError`` naming the path and is
        left untouched, and so does a database sqlite cannot open or whose
        size is not a whole number of pages (:class:`DamagedStoreError`).
    fresh:
        ``True`` discards any existing content first (the ``--checkpoint``
        without ``--resume`` semantics); default keeps everything -- a store
        is a cache, accumulating results across runs is its purpose.
    allow_stale:
        Serve results recorded under other code versions too (current-version
        rows still win when both exist).  Off by default.
    """

    kind = "sqlite"

    def __init__(self, path: Any, fresh: bool = False, allow_stale: bool = False) -> None:
        self.path = str(path)
        self.allow_stale = bool(allow_stale)
        self.version = _fingerprint.code_version()
        #: Lookup counters (reset never; snapshot deltas for per-run stats).
        self.hits = 0
        self.misses = 0
        #: Payload bytes appended this process (for the O(1)-append bench).
        self.bytes_written = 0
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        _check_store_file(self.path)
        if fresh and os.path.exists(self.path):
            os.remove(self.path)
        self._conn = sqlite3.connect(self.path)
        try:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " key TEXT NOT NULL,"
                " seed INTEGER NOT NULL,"
                " version TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " created_at REAL NOT NULL,"
                " PRIMARY KEY (key, seed, version))"
            )
            self._conn.commit()
            self.stale_ignored = self._count_other_versions()
            page_size = int(self._conn.execute("PRAGMA page_size").fetchone()[0])
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise self._damaged("open", error) from None
        # A cut file can still open and answer the keys on its intact pages;
        # sqlite only ever writes whole pages, so a partial one gives it away.
        size = os.path.getsize(self.path)
        if size % page_size:
            self._conn.close()
            raise self._damaged(
                "open", f"{size} bytes is not a whole number of {page_size}-byte pages"
            )
        if self.stale_ignored and not self.allow_stale:
            _stale_note(self.path, self.stale_ignored, self.version)

    # --------------------------------------------------------------- plumbing

    def _damaged(self, action: str, error: Any) -> DamagedStoreError:
        return DamagedStoreError(f"{self.path}: cannot {action} the result store ({error})")

    @contextmanager
    def _guard(self, action: str) -> Iterator[None]:
        """A truncated or corrupt file can open and fail at any later query:
        every query raises one line naming the store, not a traceback."""
        try:
            yield
        except sqlite3.DatabaseError as error:
            raise self._damaged(action, error) from None

    def _count_other_versions(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM results WHERE version != ?", (self.version,)
        ).fetchone()
        return int(row[0])

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -------------------------------------------------------------------- api

    def __len__(self) -> int:
        with self._guard("read"):
            if self.allow_stale:
                row = self._conn.execute(
                    "SELECT COUNT(DISTINCT key || '/' || seed) FROM results"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM results WHERE version = ?", (self.version,)
                ).fetchone()
        return int(row[0])

    def __contains__(self, key_seed: Tuple[str, int]) -> bool:
        key, seed = str(key_seed[0]), int(key_seed[1])
        with self._guard("read"):
            if self.allow_stale:
                row = self._conn.execute(
                    "SELECT 1 FROM results WHERE key = ? AND seed = ? LIMIT 1", (key, seed)
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT 1 FROM results WHERE key = ? AND seed = ? AND version = ? LIMIT 1",
                    (key, seed, self.version),
                ).fetchone()
        return row is not None

    def lookup(self, key: str, seeds: Sequence[int]) -> Dict[int, Any]:
        """Decoded results for the given seeds already completed under ``key``.

        Current-version rows only, unless ``allow_stale`` -- and even then a
        current-version row always wins over a stale one for the same seed.
        """
        seeds = [int(seed) for seed in seeds]
        current: Dict[int, Any] = {}
        stale: Dict[int, Any] = {}
        with self._guard("read"):
            for start in range(0, len(seeds), _CHUNK):
                chunk = seeds[start : start + _CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT seed, version, payload FROM results"
                    f" WHERE key = ? AND seed IN ({marks})",
                    [key, *chunk],
                )
                for seed, version, payload in rows:
                    if version == self.version:
                        current[seed] = payload
                    elif self.allow_stale and seed not in stale:
                        stale[seed] = payload
        found: Dict[int, Any] = {}
        for seed in seeds:
            payload = current.get(seed)
            if payload is None and self.allow_stale:
                payload = stale.get(seed)
            if payload is not None:
                found[seed] = decode_result(json.loads(payload))
        self.hits += len(found)
        self.misses += len(seeds) - len(found)
        return found

    def record(self, key: str, seed: int, result: Any) -> bool:
        """Store one completed trial; returns whether a new row was written."""
        return self.record_many([(key, seed, result)]) > 0

    def record_many(self, rows: Sequence[Tuple[str, int, Any]]) -> int:
        """Store a batch of ``(key, seed, result)`` rows in one transaction.

        Cost is O(batch): one ``INSERT OR IGNORE`` per row inside a single
        commit, independent of how many results the store already holds.
        Returns the number of new rows written.
        """
        encoded: List[Tuple[str, int, str, str, float]] = []
        for key, seed, result in rows:
            try:
                payload = json.dumps(encode_result(result), sort_keys=True)
            except TypeError:
                continue  # unjournalable result: run it again next time
            encoded.append((key, int(seed), self.version, payload, time.time()))
        if not encoded:
            return 0
        before = self._conn.total_changes
        with self._guard("write to"), self._conn:
            self._conn.executemany(
                "INSERT OR IGNORE INTO results (key, seed, version, payload, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                encoded,
            )
        written = self._conn.total_changes - before
        self.bytes_written += sum(len(row[3]) for row in encoded[:written])
        return written

    # ------------------------------------------------------------ introspection

    def iter_rows(
        self, all_versions: bool = False
    ) -> Iterable[Tuple[str, int, str, float, Any]]:
        """Yield ``(key, seed, version, created_at, decoded_result)`` rows.

        Deterministic order (key, seed, version); current code version only
        unless ``all_versions``.  This is the analysis-export surface
        (``abe-repro export-store``) -- it never touches the hit/miss
        counters, so exporting a store does not distort its cache stats.
        """
        query = "SELECT key, seed, version, created_at, payload FROM results"
        with self._guard("read"):
            if all_versions:
                rows = self._conn.execute(query + " ORDER BY key, seed, version")
            else:
                rows = self._conn.execute(
                    query + " WHERE version = ? ORDER BY key, seed, version", (self.version,)
                )
            for key, seed, version, created_at, payload in rows:
                yield (
                    str(key),
                    int(seed),
                    str(version),
                    float(created_at),
                    decode_result(json.loads(payload)),
                )

    def keys(self) -> List[str]:
        """Distinct fingerprints present (any version)."""
        with self._guard("read"):
            return [row[0] for row in self._conn.execute("SELECT DISTINCT key FROM results")]

    def counts_by_version(self) -> Dict[str, int]:
        with self._guard("read"):
            return {
                str(version): int(count)
                for version, count in self._conn.execute(
                    "SELECT version, COUNT(*) FROM results GROUP BY version"
                )
            }
