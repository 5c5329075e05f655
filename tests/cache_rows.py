"""The rows of an oracle cache directory, read and written the way a second
process would: through its own connection to the directory's database."""

from __future__ import annotations

import contextlib
import sqlite3
from pathlib import Path

from loopforge.cache import DATABASE


def _connect(directory):
    path = Path(directory) / DATABASE
    assert path.is_file(), path
    return contextlib.closing(sqlite3.connect(path, isolation_level=None))


def cache_rows(directory) -> dict[str, str]:
    """{key: entry text} of every row stored under `directory`."""
    with _connect(directory) as conn:
        return dict(conn.execute("SELECT key, entry FROM entries"))


def write_row(directory, key: str, text: str | bytes) -> None:
    """Store `text` as the entry text of `key`; bytes are stored as TEXT
    unchanged, so they need not be UTF-8."""
    with _connect(directory) as conn:
        conn.execute("INSERT OR REPLACE INTO entries (key, entry) VALUES (?, CAST(? AS TEXT))",
                     (key, text))
