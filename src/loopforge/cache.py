"""Persistent oracle cache: one JSON file per canonical key.

Entries are written atomically (temp file + rename), so concurrent writers
can only ever replace a whole entry.  Keys embed the model version; bumping
:data:`MODEL_VERSION` invalidates old entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile

MODEL_VERSION = "2"

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def default_cache_dir() -> str:
    return os.environ.get("LOOPFORGE_CACHE") or os.path.join(os.getcwd(), ".loopforge-cache")


class CacheStore:
    def __init__(self, directory: os.PathLike | str):
        self.directory = os.fspath(directory)  # a str: a store is built per query

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(f"{MODEL_VERSION}|{key}".encode()).hexdigest()[:16]
        stem = _SAFE.sub("_", key)[:80].strip("_") or "entry"
        return os.path.join(self.directory, f"{stem}-{digest}.json")

    def get(self, key: str) -> dict | None:
        """The entry of `key`, or None when it is missing, is not UTF-8 JSON,
        is not a JSON object, or was written for another key or version."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("version") != MODEL_VERSION or entry.get("key") != key:
            return None
        return entry

    def put(self, key: str, fields: dict) -> None:
        text = json.dumps({**fields, "key": key, "version": MODEL_VERSION}, sort_keys=True)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        except FileNotFoundError:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
