"""Persistent oracle cache: one SQLite table per cache directory.

Each directory holds one database file, `entries.sqlite`, whose table maps a
canonical key to the JSON text of its entry.  A `put` is one `INSERT OR
REPLACE` under the WAL journal, in a transaction of its own, so concurrent
writers (the pair-search workers of `graph --jobs`, other processes) only
ever replace a whole entry.
Inside :func:`batched_writes` the process that opened the batch keeps its
rows in memory instead, and writes them in one transaction per
:data:`BATCH_ROWS` rows and when the batch ends, also by an exception or an
interrupt; reads see the database alone.  The first row it keeps after each
write opens the connection, so an unusable location fails at that row.  It
holds no lock between those writes, so a process killed in a batch loses at
most its unwritten rows, never part of an entry.  A key, such as
`n2|self|v|v.2.0.1.2.v`, does not carry the model version: each entry holds
it in its `"version"` field, which :meth:`CacheStore.get` checks, so bumping
:data:`MODEL_VERSION` makes old entries misses.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from .words import PreconditionError

MODEL_VERSION = "2"
DATABASE = "entries.sqlite"
BATCH_ROWS = 500  # rows a batch keeps before it writes them
BUSY_SECONDS = 5.0  # how long a connection waits for another's lock

sqlite3 = None  # imported on first cache use, so a run without a cache never loads it
# pid -> (database path, connection): one connection per process, closed when
# the process moves to another database.  A forked worker opens its own, and
# neither uses nor closes one inherited across `fork`.
_connections: dict = {}
# pid -> {(directory, key): entry text}: the unwritten rows of the process's
# open batch.  A forked worker has another pid, so it writes at once.
_batches: dict = {}


def default_cache_dir() -> str:
    try:
        return os.environ.get("LOOPFORGE_CACHE") or os.path.join(os.getcwd(), ".loopforge-cache")
    except OSError as exc:  # the working directory was deleted
        raise PreconditionError(f"no working directory for the default oracle cache "
                                f"(set --cache-dir or $LOOPFORGE_CACHE): {exc}") from exc


@contextlib.contextmanager
def batched_writes():
    """Keep this process's cache writes in memory until BATCH_ROWS of them
    are kept or the block ends, however it ends; then write them in one
    transaction per database.  A nested block joins the open batch."""
    pid = os.getpid()
    if pid in _batches:
        yield
        return
    _batches[pid] = {}
    try:
        yield
    finally:
        try:
            flush_batch()
        finally:
            del _batches[pid]


def flush_batch() -> None:
    """Write the rows this process's open batch keeps, if any."""
    rows = _batches.get(os.getpid())
    if not rows:
        return
    by_directory: dict[str, list[tuple[str, str]]] = {}
    for (directory, key), text in rows.items():
        by_directory.setdefault(directory, []).append((key, text))
    rows.clear()  # a write that fails is not retried
    for directory, items in by_directory.items():
        CacheStore(directory)._write(items)


def _open(path: str):
    # autocommit; SQLite serializes threads, so every thread may use it
    conn = sqlite3.connect(path, timeout=BUSY_SECONDS, isolation_level=None,
                           check_same_thread=False)
    try:
        # the file keeps its journal mode.  Of two processes setting it on a
        # new file at once (`graph --jobs` workers), SQLite fails one at once
        # instead of letting it wait, so that one tries again
        deadline = time.monotonic() + BUSY_SECONDS
        while conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if str(exc) != "database is locked" or time.monotonic() > deadline:
                    raise
        conn.executescript("PRAGMA synchronous=NORMAL; "
                           "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, entry TEXT)")
    except sqlite3.Error:
        conn.close()
        raise
    return conn


class CacheStore:
    def __init__(self, directory: os.PathLike | str):
        self.directory = os.fspath(directory)  # a str: a store is built per query
        self.path = os.path.join(self.directory, DATABASE)

    def _connection(self, write: bool):
        """This process's connection to the database, opened on first use and
        again by a write that finds the file gone (its directory deleted).
        Opening it closes the process's connection to another database.
        A read gets None when there is no usable database; a write makes the
        directory and the database, and raises `OSError` or `sqlite3.Error`
        when it cannot."""
        pid = os.getpid()
        path, conn = _connections.get(pid, (None, None))
        if path == self.path and (not write or os.path.exists(self.path)):
            return conn
        if not write and not os.path.isfile(self.path):
            return None
        global sqlite3
        if sqlite3 is None:
            import sqlite3
        if conn is not None:
            del _connections[pid]
            conn.close()
        try:
            if write:
                os.makedirs(self.directory, exist_ok=True)
            conn = _open(self.path)
        except sqlite3.Error:
            if write:
                raise
            return None
        _connections[pid] = (self.path, conn)
        return conn

    def get(self, key: str) -> dict | None:
        """The entry of `key`, or None when there is no database or no row, or
        the row is not UTF-8 JSON, is not a JSON object, or was written for
        another key or version.  Never creates the directory or the database."""
        return self.get_many([key])[key]

    def get_many(self, keys: list[str]) -> dict[str, dict | None]:
        """Each key's entry as :meth:`get` reads it, one query per BATCH_ROWS
        keys; the calls that batch their writes keep what they wrote."""
        found = dict.fromkeys(keys)
        conn = self._connection(write=False)
        try:
            for i in range(0, len(keys) if conn else 0, BATCH_ROWS):
                chunk = keys[i:i + BATCH_ROWS]
                # entry texts as bytes, so a text that is not UTF-8 misses alone
                found.update(conn.execute("SELECT key, CAST(entry AS BLOB) FROM entries "
                                          f"WHERE key IN ({','.join('?' * len(chunk))})", chunk))
        except sqlite3.Error:
            return dict.fromkeys(keys)
        for key, text in found.items():
            try:
                entry = json.loads(text.decode()) if text is not None else None
            except ValueError:  # not UTF-8 JSON text
                entry = None
            ok = isinstance(entry, dict) and entry.get("version") == MODEL_VERSION
            found[key] = entry if ok and entry.get("key") == key else None
        return found

    def put(self, key: str, fields: dict) -> None:
        """Store the entry of `key`, or keep it in this process's open batch."""
        text = json.dumps({**fields, "key": key, "version": MODEL_VERSION}, sort_keys=True)
        rows = _batches.get(os.getpid())
        if rows is None:
            self._write([(key, text)])
            return
        if not rows:
            # an empty write opens the connection, so an unusable location
            # fails at the batch's first row and not when the batch is written
            self._write([])
        rows[self.directory, key] = text
        if len(rows) >= BATCH_ROWS:
            flush_batch()

    def _write(self, rows: list[tuple[str, str]]) -> None:
        """Store (key, entry text) rows in one transaction."""
        try:
            conn = self._connection(write=True)
            with conn:  # commits, or rolls back on any exception
                conn.execute("BEGIN")
                conn.executemany("INSERT OR REPLACE INTO entries (key, entry) VALUES (?, ?)", rows)
        except (OSError, sqlite3.Error) as exc:
            raise PreconditionError(f"cannot write the oracle cache {self.path}: {exc}") from exc
