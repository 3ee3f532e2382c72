"""Where `LlmGateway` keeps replies, so that a later identical request is
answered without being sent: `get_many(op, keys)` returns, by key, the
replies to requests of `op` kept under request digests; `put(key, record)`
keeps the reply of a record {op, model, request, response}; `close()`
forgets or closes.

`MemoryStore` holds the replies of one remote gateway with cache `off`.
`FileStore` is the cache file of `record` and `replay`, one SQLite table
`entries(key, request, response)`: the compact canonical JSON of {op,
model, request}, which says what a row answers and which no run reads, and
the reply as itself, in the SQLite type that holds it exactly (a completion
as TEXT, an embedding as its vector's little-endian float64 bytes, a mock
tone as a REAL), so that a read decodes no JSON. `record` stamps a new file
with `FORMAT` in SQLite's `PRAGMA user_version` header field. `FORMAT`
changes whenever a key or a row changes meaning. A file with another
number, or none, was recorded by another version of score and is refused
when opened: by `replay` as a replay miss, by `record` as a persistence
error that leaves the file as it is.
"""

from __future__ import annotations

import contextlib
import logging
import threading
from pathlib import Path
from typing import Any

import numpy as np

from .errors import PersistenceError, UncachedRequestError
from .jsonio import canonical_dumps

logger = logging.getLogger(__name__)

CACHE_FILE = "cache.sqlite3"
FORMAT = 2  # never 0, SQLite's default for files made before the number; format 1 kept JSON records
# SQLite's page cache for the cache file, in KiB. Keys are digests, so a run
# reads and writes leaf pages in no order and seldom twice; 256 KiB keeps the
# tree's inner pages, and the default 2 MiB would only add to peak memory.
_PAGE_CACHE_KIB = 256
_KEYS_PER_SELECT = 500  # under the 999 parameters a statement could bind before SQLite 3.32
_REPLY_TYPES = {"complete": b"text", "embed": b"blob", "sentiment": b"real"}  # the SQLite type of each op's reply
_VECTOR = np.dtype("<f8")


class MemoryStore(dict):
    """The replies of one remote gateway with cache `off`, as objects, not
    JSON, so that the callers it answers share one (a remote embedding is a
    read-only array). Each dict operation is atomic: it needs no lock."""

    hit_counter = "memo_hits"  # the GatewayStats field a reply found here counts in
    miss_counter = None  # the field a request not found here counts in, if any
    replays = False  # whether a request not found here is an error instead of sent

    def get_many(self, op: str, keys: list[str]) -> dict[str, Any]:
        return {key: reply for key in keys if (reply := self.get(key)) is not None}

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

    def get_many(self, op: str, keys: list[str]) -> dict[str, Any]:
        """The replies kept under `keys`, `_KEYS_PER_SELECT` keys a query; a
        vector is a read-only array over the bytes SQLite returns. An entry
        that holds no reply of `op`, text not UTF-8 included, is a
        PersistenceError in replay, and a warning and a miss in record."""
        found = {}
        for start in range(0, len(keys), _KEYS_PER_SELECT):
            chunk = keys[start : start + _KEYS_PER_SELECT]
            sql = f"SELECT key, typeof(response), response FROM entries WHERE key IN ({','.join('?' * len(chunk))})"
            for key, kind, value in self._execute(sql, chunk):
                key = key.decode()  # the hex digest the query matched
                try:
                    if kind != _REPLY_TYPES[op]:
                        raise ValueError(f"a {kind.decode()} where a {op} reply is kept")
                    if op == "complete":
                        value = value.decode("utf-8")
                    found[key] = np.frombuffer(value, dtype=_VECTOR) if op == "embed" else value
                except ValueError as e:  # also bytes that are not whole float64s, or not UTF-8
                    if self.replays:
                        raise PersistenceError(f"unreadable cache entry {key} in {self.path}: {e}") from e
                    logger.warning("unreadable cache entry %s in %s (%s); requesting again", key, self.path, e)
        return found

    def put(self, key: str, record: dict) -> None:
        request = canonical_dumps({name: record[name] for name in ("op", "model", "request")})
        response = record["response"]
        if record["op"] == "embed":
            response = np.asarray(response, dtype=_VECTOR).tobytes()
        self._execute("INSERT OR REPLACE INTO entries (key, request, response) VALUES (?, ?, ?)",
                      (key, request, response))

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

    def _execute(self, sql: str, params: tuple | list) -> list[tuple]:
        """The rows of one statement; none when replay finds no file."""
        import sqlite3

        try:
            with self._lock:
                if self._db is None:
                    self._db = self._open()
                    if self._db is None:
                        return []
                return self._db.execute(sql, params).fetchall()
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
        db.text_factory = bytes  # so that one TEXT value that is not UTF-8 fails its own row, not the query
        try:
            db.execute(f"PRAGMA cache_size = -{_PAGE_CACHE_KIB}")
            if not self.replays:
                with db:  # one transaction: a new file gets its table and number, or stays new
                    db.execute("BEGIN IMMEDIATE")
                    if db.execute("SELECT count(*) FROM sqlite_master").fetchone() == (0,) and _format(db) == 0:
                        # `response` has no declared type, so SQLite keeps each value in the type it is given
                        db.execute("CREATE TABLE entries (key TEXT PRIMARY KEY, request TEXT NOT NULL, "
                                   "response NOT NULL)")
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

