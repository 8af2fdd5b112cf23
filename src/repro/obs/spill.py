"""Windowed, memory-bounded spilling of trace records to JSONL files.

:class:`TraceSpiller` is the streaming replacement for buffering a whole
run's trace in memory: it holds at most :data:`WINDOW` records and
appends canonical JSONL to its target file whenever the window fills.
It is the only JSONL writer: :func:`repro.obs.export.write_jsonl` is
its one-shot form, and the concatenated output is the canonical
encoding of every record in order, whatever the window — the
equivalence ``tests/obs/test_spill.py`` pins against a reference loop.
Topic selection happens upstream, on the bus (``TraceBus.record_topic``):
the spiller keeps every record it is handed.

The spiller writes to ``<path>.partial`` and renames on :meth:`close`,
so a crashed run never leaves a file that looks like a complete trace.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

from ..sim.tracing import TraceRecord
from .export import encode_record

__all__ = ["TraceSpiller", "WINDOW"]

#: Records buffered between appends.  Small enough that a multi-hour
#: sweep never holds more than a few hundred KB of trace per worker,
#: large enough to amortise the write syscalls.
WINDOW = 4096


class TraceSpiller:
    """Streaming JSONL sink with bounded memory.

    :meth:`add` is a :meth:`TraceBus.add_sink <repro.sim.tracing.TraceBus.add_sink>`
    callback.  Typical life cycle::

        spiller = TraceSpiller(path)
        bus.add_sink(spiller.add)
        bus.retain_records = False      # the bus stays O(1) in run length
        ... run the simulation ...
        n = spiller.close()             # flush + rename .partial -> path
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        #: Read from the module when built, so tests can patch WINDOW.
        self.window = WINDOW
        #: Records written to the file so far (excludes the open window).
        self.spilled = 0
        #: Windows flushed to disk (1 at close even for short runs).
        self.flushes = 0
        self._buffer: List[TraceRecord] = []
        #: encode_record's per-shape templates for this file.
        self._templates: Dict[tuple, tuple] = {}
        self._partial = self.path.with_name(self.path.name + ".partial")
        self._fh = None
        self._closed = False

    # -- ingestion ------------------------------------------------------------------
    def add(self, record: TraceRecord) -> None:
        if self._closed:
            raise RuntimeError("spiller is closed")
        buffer = self._buffer
        buffer.append(record)
        if len(buffer) >= self.window:
            self._flush_window()

    @property
    def buffered(self) -> int:
        """Records currently held in memory (the open window)."""
        return len(self._buffer)

    # -- the disk path --------------------------------------------------------------
    def _flush_window(self) -> None:
        if self._fh is None:
            self._partial.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self._partial.open("w", encoding="utf-8")
        fh, buffer, templates = self._fh, self._buffer, self._templates
        for record in buffer:
            fh.write(encode_record(record, templates))
            fh.write("\n")
        self.spilled += len(buffer)
        buffer.clear()
        self.flushes += 1

    def close(self) -> int:
        """Flush the remaining window and finalise the file.

        Returns the number of records written.  Idempotent: a second
        close is a no-op returning the same count.  Zero records still
        produce an (empty) trace file.
        """
        if self._closed:
            return self.spilled
        self._flush_window()
        assert self._fh is not None  # _flush_window always opens
        self._fh.close()
        os.replace(self._partial, self.path)
        self._closed = True
        return self.spilled

    def abort(self) -> None:
        """Drop the partial file without finalising (failed runs)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        try:
            self._partial.unlink()
        except OSError:
            pass
        self._buffer.clear()
        self._closed = True
