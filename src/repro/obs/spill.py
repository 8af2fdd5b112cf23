"""Windowed, memory-bounded spilling of trace records to JSONL files.

:class:`TraceSpiller` is the streaming replacement for buffering a whole
run's trace in memory: it holds at most ``window`` records (or ``cap``
records when a ring-buffer cap is set) and appends canonical JSONL to
its target file whenever the window fills.  It is the only JSONL
writer: :func:`repro.obs.export.write_jsonl` is its one-shot form, and
the concatenated output is the canonical encoding of every kept record
in order, whatever the window — the equivalence
``tests/obs/test_spill.py`` pins against a reference loop.  Topic
selection happens upstream, on the bus (``TraceBus.record_topic``): the
spiller keeps every record it is handed.

Two retention modes, matching :class:`~repro.obs.capture.CaptureConfig`:

* ``cap is None`` (the default) — every record survives; memory is
  bounded by ``window`` and the file grows incrementally as windows
  flush.
* ``cap`` set — only the *last* ``cap`` records survive (a ring);
  memory is bounded by ``cap`` and the file is written once at
  :meth:`close`, because records at the head of the ring can still be
  evicted by later arrivals.

The spiller writes to ``<path>.partial`` and renames on :meth:`close`,
so a crashed run never leaves a file that looks like a complete trace.
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Optional

from ..sim.tracing import TraceRecord
from .export import encode_record

__all__ = ["TraceSpiller", "DEFAULT_WINDOW"]

#: Records buffered between appends when no ring cap is set.  Small
#: enough that a multi-hour sweep never holds more than a few hundred
#: KB of trace per worker, large enough to amortise the write syscalls.
DEFAULT_WINDOW = 4096


class TraceSpiller:
    """Streaming JSONL sink with bounded memory.

    :meth:`add` is a :meth:`TraceBus.add_sink <repro.sim.tracing.TraceBus.add_sink>`
    callback.  Typical life cycle::

        spiller = TraceSpiller(path, window=4096)
        bus.add_sink(spiller.add)
        bus.retain_records = False      # the bus stays O(1) in run length
        ... run the simulation ...
        n = spiller.close()             # flush + rename .partial -> path
    """

    def __init__(self, path: Path | str, window: int = DEFAULT_WINDOW,
                 cap: Optional[int] = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive (or None for unbounded)")
        self.path = Path(path)
        self.window = window
        self.cap = cap
        #: Records written to the file so far (excludes the open window).
        self.spilled = 0
        #: Records evicted by the ring cap.
        self.dropped = 0
        #: Windows flushed to disk (1 at close even for short runs).
        self.flushes = 0
        self._ring: Deque[TraceRecord] = deque(maxlen=cap)
        #: encode_record's per-shape templates for this file.
        self._templates: Dict[tuple, tuple] = {}
        self._partial = self.path.with_name(self.path.name + ".partial")
        self._fh = None
        self._closed = False

    # -- ingestion ------------------------------------------------------------------
    def add(self, record: TraceRecord) -> None:
        if self._closed:
            raise RuntimeError("spiller is closed")
        ring = self._ring
        if len(ring) == self.cap:
            self.dropped += 1  # the ring evicts its oldest record
        ring.append(record)
        if self.cap is None and len(ring) >= self.window:
            self._flush_window()

    @property
    def buffered(self) -> int:
        """Records currently held in memory (the open window or ring)."""
        return len(self._ring)

    # -- the disk path --------------------------------------------------------------
    def _flush_window(self) -> None:
        if self._fh is None:
            self._partial.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self._partial.open("w", encoding="utf-8")
        fh, ring, templates = self._fh, self._ring, self._templates
        for record in ring:
            fh.write(encode_record(record, templates))
            fh.write("\n")
        self.spilled += len(ring)
        ring.clear()
        self.flushes += 1

    def close(self) -> int:
        """Flush the remaining window and finalise the file.

        Returns the number of records written.  Idempotent: a second
        close is a no-op returning the same count.  Zero records still
        produce an (empty) trace file, exactly like the buffered path.
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
        self._ring.clear()
        self._closed = True
