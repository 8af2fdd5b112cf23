"""On-disk result cache: one JSON record per executed :class:`RunSpec`.

Layout (content-addressed, two-level fan-out to keep directories small)::

    <root>/ab/abcdef….json

Each record carries the result payload plus enough provenance to make
the files self-describing (`kind`, `label`, `seed`, package version).
Corrupted or partial records — an interrupted write, a stray file — are
treated as misses so the runner falls back to re-simulating.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR"]

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultCache:
    """Content-addressed store of run results keyed by spec hashes."""

    def __init__(self, root: os.PathLike | str = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        # Traffic counters for the sweep profile: how often the disk
        # cache answered, and how many bytes moved either way.
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        self.bytes_read += len(text.encode("utf-8"))
        try:
            record = json.loads(text)
        except ValueError:
            self.misses += 1
            return None
        if not isinstance(record, dict) or "result" not in record:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Atomically persist a record (write-to-temp + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        text = json.dumps(record, sort_keys=True)
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
        self.bytes_written += len(text.encode("utf-8"))
