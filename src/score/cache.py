"""Where `LlmGateway` keeps replies, so that a later identical request is
answered without being sent: `get(key)` returns the reply kept under a
request digest, or None; `put(key, record)` keeps the reply of a record
{op, model, request, response}; `close()` forgets or closes.

`MemoryStore` holds the replies of one remote gateway with cache `off`.
`FileStore` is the cache file of `record` and `replay`, one SQLite table
`entries(key, record)` of compact canonical JSON records, stamped with
`FORMAT` in SQLite's `PRAGMA user_version` header field when `record`
creates it. `FORMAT` changes whenever a key or a record changes meaning. A
file with another number, or none, was recorded by another version of
score and is refused when opened: by `replay` as a replay miss, by `record`
as a persistence error that leaves the file as it is.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
from pathlib import Path
from typing import Any

import numpy as np

from .errors import PersistenceError, UncachedRequestError
from .jsonio import canonical_dumps

logger = logging.getLogger(__name__)

CACHE_FILE = "cache.sqlite3"
FORMAT = 1  # never 0, SQLite's default, which every file made before the number existed carries
# SQLite's page cache for the cache file, in KiB. Keys are digests, so a run
# reads and writes leaf pages in no order and seldom twice; 256 KiB keeps the
# tree's inner pages, and the default 2 MiB would only add to peak memory.
_PAGE_CACHE_KIB = 256


class MemoryStore(dict):
    """The replies of one remote gateway with cache `off`, as objects, not
    JSON, so that the callers it answers share one (a remote embedding is a
    read-only array). Each call is one atomic dict operation: it needs no lock."""

    hit_counter = "memo_hits"  # the GatewayStats field a reply found here counts in
    miss_counter = None  # the field a request not found here counts in, if any
    replays = False  # whether a request not found here is an error instead of sent

    def put(self, key: str, record: dict) -> None:
        self[key] = record["response"]

    close = dict.clear


class FileStore:
    """`<cache_dir>/cache.sqlite3`, open from the first call until `close()`.

    Threads share one connection under the store's own lock. `replay` opens
    the file read-only, and no file is an empty cache. `record` writes each
    entry in an autocommit transaction of its own in the write-ahead log, so
    a run cut short leaves each entry whole or absent. A file SQLite cannot
    use raises PersistenceError naming it.
    """

    hit_counter = "cache_hits"
    miss_counter = "cache_misses"

    def __init__(self, cache_dir: Path, mode: str):
        self.path = Path(cache_dir) / CACHE_FILE
        self.replays = mode == "replay"
        self._lock = threading.Lock()
        self._db = None

    def get(self, key: str) -> Any:
        row = self._execute("SELECT record FROM entries WHERE key = ?", (key,))
        if row is None:
            return None
        try:
            return json.loads(row[0])["response"]
        except (ValueError, KeyError, TypeError) as e:
            if self.replays:
                raise PersistenceError(f"unreadable cache entry {key} in {self.path}: {e}") from e
            logger.warning("unreadable cache entry %s in %s (%s); requesting again", key, self.path, e)
            return None

    def put(self, key: str, record: dict) -> None:
        if isinstance(record["response"], list):  # an embedding row: its vectors as lists of numbers
            record = {**record, "response": [np.asarray(vec).tolist() for vec in record["response"]]}
        self._execute("INSERT OR REPLACE INTO entries (key, record) VALUES (?, ?)", (key, canonical_dumps(record)))

    def close(self) -> None:
        import sqlite3

        with self._lock:
            db, self._db = self._db, None
            if db is None:
                return
            if not self.replays:
                # back to rollback mode, so that a read-only replay creates no
                # side files; while another reader holds it, WAL mode stays
                with contextlib.suppress(sqlite3.DatabaseError):
                    db.execute("PRAGMA journal_mode=DELETE")
            db.close()

    def _execute(self, sql: str, params: tuple) -> tuple | None:
        """The first row of one statement; None when replay finds no file."""
        import sqlite3

        try:
            with self._lock:
                if self._db is None:
                    self._db = self._open()
                    if self._db is None:
                        return None
                return self._db.execute(sql, params).fetchone()
        except sqlite3.DatabaseError as e:
            raise PersistenceError(f"{self.path}: not a usable cache file ({e})") from e

    def _open(self):
        import sqlite3

        if self.replays:
            if not self.path.is_file():
                return None
            db = sqlite3.connect(self.path.resolve().as_uri() + "?mode=ro", uri=True, check_same_thread=False)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            db = sqlite3.connect(self.path, isolation_level=None, check_same_thread=False)
        try:
            db.execute(f"PRAGMA cache_size = -{_PAGE_CACHE_KIB}")
            if not self.replays:
                with db:  # one transaction: a new file gets its table and number, or stays new
                    db.execute("BEGIN IMMEDIATE")
                    if db.execute("SELECT count(*) FROM sqlite_master").fetchone() == (0,) and _format(db) == 0:
                        db.execute("CREATE TABLE entries (key TEXT PRIMARY KEY, record TEXT NOT NULL)")
                        db.execute(f"PRAGMA user_version = {FORMAT}")
            version = _format(db)
            if version != FORMAT:
                problem = f"{self.path}: recorded by another version of score"
                if self.replays:
                    raise UncachedRequestError(f"{problem}: record it again")
                raise PersistenceError(f"{problem} (format {version}, not {FORMAT}): remove it to record again")
            if not self.replays:
                db.execute("PRAGMA journal_mode=WAL")
                db.execute("PRAGMA synchronous=NORMAL")
        except BaseException:
            db.close()
            raise
        return db


def _format(db) -> int:
    return db.execute("PRAGMA user_version").fetchone()[0]
