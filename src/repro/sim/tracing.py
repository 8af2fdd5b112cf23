"""A lightweight recording trace bus and time-series samplers.

Simulated components publish records ("disk.complete", "job.maps_done",
...) without knowing who, if anyone, keeps them.  The bus only records:
nothing in the simulation reads it back, so attaching one never changes
a run.  The observability layer (:mod:`repro.obs`) records whole topic
families with ``record_topic("disk.*")`` or ``record_topic("*")`` and
streams them to a sink (the capture's JSONL spiller).

The canonical list of topics the simulator publishes lives in
:mod:`repro.obs.topics` (the registry ``repro lint``'s TRACE001 rule
enforces); :func:`known_topics` returns it without making this module —
which sits *below* the obs layer — depend on obs at import time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple

__all__ = ["TraceBus", "TraceRecord", "IntervalSampler", "known_topics"]


def known_topics() -> FrozenSet[str]:
    """Every registered topic name, from :mod:`repro.obs.topics`.

    Imported lazily: obs depends on this module, so the reverse edge
    must not run at import time.
    """
    from ..obs.topics import REGISTERED_TOPICS

    return REGISTERED_TOPICS


class TraceRecord(NamedTuple):
    """One published trace event (a tuple: the cheapest immutable record)."""

    time: float
    topic: str
    payload: Dict[str, Any]


class TraceBus:
    """Topic-filtered recorder with optional streaming sinks."""

    def __init__(self) -> None:
        self._recorded_topics: set[str] = set()
        #: Prefixes registered via ``record_topic("family.*")``.
        self._recorded_prefixes: List[str] = []
        self._record_all = False
        #: Streaming consumers of *recorded* records (see :meth:`add_sink`).
        self._sinks: List[Callable[[TraceRecord], None]] = []
        #: When ``False``, matched records are delivered to sinks only and
        #: never accumulate in :attr:`records` — the memory-bounded mode
        #: the capture spiller runs in.
        self.retain_records = True
        self.records: List[TraceRecord] = []
        #: Memoised _should_record decisions, one per topic seen; reset
        #: whenever record_topic() widens the recorded set.  This keeps
        #: publish() on un-recorded topics a cheap dict probe instead of
        #: a prefix scan per event.
        self._keep_cache: Dict[str, bool] = {}

    def record_topic(self, topic: str) -> None:
        """Keep all records for ``topic`` in :attr:`records`.

        ``topic`` may be an exact name (``"disk.complete"``), a family
        glob (``"disk.*"``, matching every topic under the prefix), or
        ``"*"`` to record everything published.

        Recording starts at the time of this call: records published on
        ``topic`` beforehand were dropped (publish is a no-op on topics
        nobody records) and are *not* retroactively recovered.  Calling
        this twice is a no-op.
        """
        if topic == "*":
            self._record_all = True
        elif topic.endswith(".*"):
            prefix = topic[:-1]  # keep the dot: "disk.*" -> "disk."
            if prefix not in self._recorded_prefixes:
                self._recorded_prefixes.append(prefix)
        else:
            self._recorded_topics.add(topic)
        self._keep_cache.clear()

    def add_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        """Stream every record matched by the recorded-topic config to
        ``sink``, in publication order.

        Sinks see exactly the records :attr:`records` would have kept —
        same topic filter, same order — which is what lets a disk
        spiller replace in-memory buffering byte-for-byte.  Setting
        :attr:`retain_records` to ``False`` alongside makes the bus
        itself O(1) in run length.
        """
        self._sinks.append(sink)

    def _should_record(self, topic: str) -> bool:
        if self._record_all or topic in self._recorded_topics:
            return True
        return any(topic.startswith(p) for p in self._recorded_prefixes)

    def publish(self, time: float, topic: str, **payload: Any) -> None:
        """Publish a record; cheap no-op on topics nobody records."""
        keep = self._keep_cache.get(topic)
        if keep is None:
            keep = self._keep_cache[topic] = self._should_record(topic)
        if not keep:
            return
        record = TraceRecord(time, topic, payload)
        if self.retain_records:
            self.records.append(record)
        for sink in self._sinks:
            sink(record)

    def recorded(self, topic: str) -> List[TraceRecord]:
        """All recorded records for ``topic`` in publication order."""
        return [record for record in self.records if record.topic == topic]


@dataclass
class IntervalSampler:
    """Accumulates a quantity and emits per-interval rates.

    Used for I/O throughput CDFs: add bytes as transfers complete, then
    :meth:`series` yields MB/s samples over fixed windows, matching how
    ``iostat`` would have sampled the paper's testbed.

    Samples are two ``array('d')`` columns, 16 bytes per sample, since
    every completed I/O adds one.  Bins are float sums, and a byte count
    below 2**53 is exact as a double, so storing amounts as doubles
    changes no bin.
    """

    interval: float = 1.0
    _times: array = field(default_factory=lambda: array("d"))
    _amounts: array = field(default_factory=lambda: array("d"))

    def add(self, time: float, amount: float) -> None:
        self._times.append(time)
        self._amounts.append(amount)

    def series(self, start: float = 0.0, end: float | None = None) -> List[float]:
        """Per-interval sums of ``amount`` between ``start`` and ``end``.

        The window is covered by ``ceil((end - start) / interval)`` bins;
        when the span divides evenly there is *no* extra trailing bin —
        events at exactly ``t == end`` are clamped into the last full bin
        (previously they opened a spurious final bin that diluted
        :meth:`rates`).
        """
        if not self._times:
            return []
        if end is None:
            end = max(self._times)
        if end <= start:
            return []
        span = (end - start) / self.interval
        n_bins = int(span)
        # Tolerate float noise on exact multiples (e.g. 3.0000000000004).
        if span - n_bins > 1e-9 or n_bins == 0:
            n_bins += 1
        bins = [0.0] * n_bins
        for t, amount in zip(self._times, self._amounts):
            if t < start or t > end:
                continue
            idx = min(int((t - start) / self.interval), n_bins - 1)
            bins[idx] += amount
        return bins

    def rates(self, start: float = 0.0, end: float | None = None) -> List[float]:
        """Per-interval rates (``amount`` per second)."""
        return [b / self.interval for b in self.series(start, end)]
