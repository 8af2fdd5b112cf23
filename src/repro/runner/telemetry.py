"""Live sweep telemetry: structured events and a terminal progress line.

:class:`SweepRunner <repro.runner.sweep.SweepRunner>` calls its
``events`` callback with one :class:`SweepEvent` per lookup outcome and
run lifecycle edge; it is the runner's only hook.  The CLI's default
per-run ``  ran <label> (<s>s)`` lines consume it, and so does
:class:`ProgressRenderer`, which folds the stream into a single
self-overwriting progress line with a completion ETA
(``repro <experiment> --progress``).

Telemetry is wall-clock territory (like the runner's ``SweepStats``
timings): events never flow into payloads or cache keys, and a runner
without an ``events`` callback pays nothing.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, TextIO

__all__ = ["SweepEvent", "ProgressRenderer", "EVENT_KINDS"]

#: Every kind a :class:`SweepEvent` may carry.
EVENT_KINDS = (
    "batch_started",   # lookups resolved; ``pending`` runs will execute
    "run_started",     # one spec dispatched (inline or to a worker)
    "run_finished",    # one spec executed (``seconds`` of simulation)
    "cache_hit",       # served from the on-disk result cache
    "memo_hit",        # served from the in-process memo
    "batch_finished",  # the batch's results are complete
)


@dataclass(frozen=True)
class SweepEvent:
    """One observable edge in a sweep's execution."""

    kind: str
    #: Human label for the spec (``spec.label`` or ``kind seed=N``).
    label: str = ""
    #: Content-addressed spec key (12-hex prefix is the artifact id).
    key: str = ""
    #: Simulation wall seconds (``run_finished`` only).
    seconds: float = 0.0
    #: Executed runs finished so far in this batch.
    completed: int = 0
    #: Executed runs still outstanding in this batch.
    pending: int = 0


def describe_spec(spec) -> str:
    """The display label the runner stamps on events for ``spec``."""
    return spec.label or f"{spec.kind} seed={spec.seed}"


class ProgressRenderer:
    """Single-line live progress for a sweep (the ``--progress`` flag).

    Consumes :class:`SweepEvent`s (it is callable, so it plugs straight
    into ``SweepRunner(events=...)``) and repaints one ``\\r``-terminated
    status line on ``stream``:

        sweep: 7/24 runs, 3 cache, 0 memo | ETA 41s | job seed=5

    The ETA is ``pending × mean-run-seconds ÷ jobs`` — crude, but it
    converges as runs finish and costs nothing.  Call :meth:`close` (or
    let the runner's ``close`` do it) to finish the line with a newline
    so the next print starts clean.
    """

    def __init__(self, jobs: int = 1, stream: Optional[TextIO] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.jobs = max(jobs, 1)
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.runs = 0
        self.cache_hits = 0
        self.memo_hits = 0
        self.pending = 0
        self.durations: List[float] = []
        self._started = clock()
        self._dirty = False
        #: Repaint at most this often (seconds) so tight memo loops
        #: don't spend their time writing to the terminal.
        self.min_interval = 0.1
        self._last_paint = -1.0

    # -- event intake ---------------------------------------------------------------
    def __call__(self, event: SweepEvent) -> None:
        kind = event.kind
        if kind == "batch_started":
            self.pending += event.pending
        elif kind == "run_finished":
            self.runs += 1
            self.pending = max(0, self.pending - 1)
            self.durations.append(event.seconds)
        elif kind == "cache_hit":
            self.cache_hits += 1
        elif kind == "memo_hit":
            self.memo_hits += 1
        elif kind == "batch_finished":
            self.pending = max(0, self.pending - event.pending)
        self._paint(event.label, force=kind == "batch_finished")

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds until the outstanding runs finish."""
        if not self.pending:
            return 0.0
        if not self.durations:
            return None
        mean = sum(self.durations) / len(self.durations)
        return self.pending * mean / self.jobs

    # -- painting -------------------------------------------------------------------
    def _format(self, label: str) -> str:
        parts = [f"sweep: {self.runs} run{'s' if self.runs != 1 else ''}"]
        if self.pending:
            parts[0] = f"sweep: {self.runs}/{self.runs + self.pending} runs"
        parts.append(f"{self.cache_hits} cache, {self.memo_hits} memo")
        eta = self.eta_seconds()
        if self.pending and eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        elif self.pending:
            parts.append("ETA ...")
        if label:
            parts.append(label)
        return " | ".join(parts)

    def _paint(self, label: str, force: bool = False) -> None:
        now = self.clock()
        if not force and now - self._last_paint < self.min_interval:
            self._dirty = True
            return
        self._last_paint = now
        self._dirty = False
        line = self._format(label)
        # Pad to wipe leftovers from a longer previous line.
        width = max(len(line), getattr(self, "_width", 0))
        self._width = len(line)
        self.stream.write("\r" + line.ljust(width))
        self.stream.flush()

    def close(self) -> None:
        """Finish the progress line (idempotent)."""
        if self.runs or self.cache_hits or self.memo_hits or self._dirty:
            self._paint("", force=True)
            self.stream.write("\n")
            self.stream.flush()
            self.runs = self.cache_hits = self.memo_hits = 0
            self._dirty = False
