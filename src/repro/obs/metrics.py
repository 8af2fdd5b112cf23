"""Simulation-time metrics: counters, gauges, fixed-bucket histograms.

Everything here is driven by *simulated* time and trace records — no
wall clock, no host state — so two runs of the same seed produce
byte-identical snapshots.  :class:`TraceMetrics` is the bridge from the
trace bus: it knows the repo's topic taxonomy (DESIGN.md
"Observability") and folds each record into a :class:`MetricsRegistry`.
``repro report`` replays every captured JSONL trace through it; capture
itself folds nothing.  Its :meth:`~TraceMetrics.handle` also works as a
sink of a recording :class:`~repro.sim.tracing.TraceBus`, for checks
that read metrics while a run is live.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim.tracing import TraceRecord

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceMetrics",
    "DEFAULT_LATENCY_BUCKETS",
    "JOB_LATENCY_BUCKETS",
]

#: Request-latency histogram edges in seconds (upper bounds; the last
#: implicit bucket is +inf).  Spans anticipation holds (~ms) through
#: switch-stall convoys (~s).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)

#: Whole-job latency histogram edges in seconds — jobs live for tens of
#: seconds to an hour of simulated time, far above request latencies.
JOB_LATENCY_BUCKETS: Tuple[float, ...] = (
    5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 3600.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value; tracks its high-water mark too."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """Fixed-bucket histogram (cumulative-style, Prometheus flavoured).

    ``buckets`` are sorted upper bounds; observations above the last
    bound land in the implicit +inf bucket.  Bucket counts are
    *per-bucket* (not cumulative) so snapshots stay human-readable.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        self.buckets: Tuple[float, ...] = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets) or not self.buckets:
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": [list(pair) for pair in zip(self.buckets, self.counts)],
            "overflow": self.counts[-1],
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
        }


def _key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home for named metrics with flat label rendering.

    Keys render Prometheus-style (``disk.completed{device=h0.sda}``) and
    snapshots sort them, so the JSON form is deterministic.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # Get, then create on a miss: most calls hit, and a hit allocates nothing.
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        return self._counters.get(key) or self._counters.setdefault(key, Counter())

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        return self._gauges.get(key) or self._gauges.setdefault(key, Gauge())

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: Any) -> Histogram:
        key = _key(name, labels)
        return self._histograms.get(key) or \
            self._histograms.setdefault(key, Histogram(buckets))

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able, deterministically ordered dump of every metric."""
        return {
            "counters": {k: self._counters[k].snapshot()
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].snapshot()
                       for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].snapshot()
                           for k in sorted(self._histograms)},
        }


class TraceMetrics:
    """Populates a :class:`MetricsRegistry` from the trace-topic taxonomy.

    Replay (on records loaded from a trace file; what ``repro report``
    does)::

        snapshot = TraceMetrics().replay(records).registry.snapshot()

    Live use (during a simulation; the fold sees exactly the records
    the bus's ``record_topic`` filter keeps)::

        tm = TraceMetrics()
        bus.add_sink(tm.handle)
        ... run the simulation ...
        snapshot = tm.registry.snapshot()
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        #: Submit time per (device, rid), for dispatch-latency histograms.
        self._pending: Dict[Tuple[str, int], float] = {}
        #: The metrics each hot topic updates, per (topic, label value):
        #: rendering a registry key costs more than the update itself,
        #: and a report replays every record of every trace.
        self._bound: Dict[Any, Any] = {}

    # -- wiring -------------------------------------------------------------------
    def replay(self, records: Iterable[TraceRecord]) -> "TraceMetrics":
        for record in records:
            self.handle(record)
        return self

    # -- the taxonomy --------------------------------------------------------------
    def handle(self, record: TraceRecord) -> None:
        time, topic, p = record
        reg, bound = self.registry, self._bound
        if topic == "disk.submit":
            device = p["device"]
            submitted, depth = bound.get((topic, device)) or bound.setdefault(
                (topic, device), (reg.counter("disk.submitted", device=device),
                                  reg.gauge("disk.queue_depth", device=device)))
            submitted.inc()
            depth.add(1)
            self._pending[(device, p["rid"])] = time
        elif topic == "disk.complete":
            device = p["device"]
            completed, merged_n, nbytes, depth, hist = bound.get(
                (topic, device)) or bound.setdefault((topic, device), (
                    reg.counter("disk.completed", device=device),
                    reg.counter("disk.merged", device=device),
                    reg.counter("disk.bytes", device=device),
                    reg.gauge("disk.queue_depth", device=device),
                    reg.histogram("disk.latency", device=device)))
            merged = list(p.get("merged_rids", ()))
            served = 1 + len(merged)
            completed.inc(served)
            merged_n.inc(len(merged))
            nbytes.inc(p.get("nbytes", 0))
            depth.add(-served)
            for rid in [p["rid"], *merged]:
                submitted = self._pending.pop((device, rid), None)
                if submitted is not None:
                    hist.observe(time - submitted)
        elif topic == "disk.service":
            device = p["device"]
            busy, seek, rotation, transfer = bound.get(
                (topic, device)) or bound.setdefault((topic, device), (
                    reg.counter("disk.busy_seconds", device=device),
                    reg.counter("disk.seek_seconds", device=device),
                    reg.counter("disk.rotation_seconds", device=device),
                    reg.counter("disk.transfer_seconds", device=device)))
            busy.inc(p["service"])
            seek.inc(p["seek"])
            rotation.inc(p["rotation"])
            transfer.inc(p["transfer"])
        elif topic in ("fs.read", "fs.write"):
            vm, op = p["vm"], topic[len("fs."):]
            ops, nbytes = bound.get((topic, vm)) or bound.setdefault(
                (topic, vm), (reg.counter("fs.ops", vm=vm, op=op),
                              reg.counter("fs.bytes", vm=vm, op=op)))
            ops.inc()
            nbytes.inc(p.get("length", 0))
        elif topic == "shuffle.fetch":
            fetches, nbytes, remaining = bound.get(topic) or bound.setdefault(
                topic, (reg.counter("shuffle.fetches"), reg.counter("shuffle.bytes"),
                        reg.gauge("shuffle.fetches_remaining")))
            fetches.inc()
            nbytes.inc(p.get("nbytes", 0))
            remaining.set(p.get("remaining", 0))
        elif topic == "ssd.channel":
            key = (topic, p["device"], p["channel"])
            backlog = bound.get(key) or bound.setdefault(key, reg.gauge(
                "ssd.channel_backlog_s", device=key[1], channel=key[2]))
            backlog.set(p["backlog"])
        elif topic == "disk.switched":
            device = p["device"]
            reg.counter("sched.switches", device=device).inc()
            reg.counter("sched.switch_stall_seconds", device=device).inc(p["stall"])
            reg.counter("sched.switch_stall_seconds_total").inc(p["stall"])
        elif topic == "ssd.gc":
            device = p["device"]
            reg.counter("ssd.gc_cycles", device=device).inc()
            reg.counter("ssd.moved_pages", device=device).inc(p.get("moved", 0))
            reg.gauge("ssd.write_amp", device=device).set(p["write_amp"])
        elif topic == "ssd.writeback":
            device = p["device"]
            reg.counter("ssd.flushed_pages", device=device).inc(p.get("pages", 0))
        elif topic == "cluster.set_pair":
            reg.counter("cluster.pair_switches").inc()
        elif topic == "job.start":
            reg.gauge("job.start_time").set(time)
        elif topic == "job.map_finished":
            reg.counter("job.maps_finished").inc()
            if p.get("total"):
                reg.gauge("job.map_progress").set(p["done"] / p["total"])
        elif topic == "job.maps_done":
            reg.gauge("job.maps_done_time").set(time)
        elif topic == "job.shuffle_done":
            reg.gauge("job.shuffle_done_time").set(time)
        elif topic == "ctrl.phase":
            reg.counter("ctrl.boundaries", boundary=p["boundary"]).inc()
        elif topic == "ctrl.decision":
            action = "hold" if p.get("target") is None else "switch"
            reg.counter("ctrl.decisions", policy=p["policy"],
                        action=action).inc()
        elif topic == "ctrl.switch":
            reg.counter("ctrl.switches").inc()
            reg.counter("ctrl.switch_stall_seconds").inc(p["stall"])
        elif topic == "job.reduce_finished":
            reg.counter("job.reduces_finished").inc()
        elif topic == "job.done":
            reg.gauge("job.end_time").set(time)
        elif topic == "sched.job_admitted":
            reg.counter("sched.jobs_admitted", tenant=p["tenant"]).inc()
            reg.gauge("sched.jobs_live").add(1)
        elif topic == "sched.task_assigned":
            reg.counter("sched.tasks_assigned", kind=p["kind"]).inc()
        elif topic == "sched.job_done":
            reg.counter("sched.jobs_done", tenant=p["tenant"]).inc()
            reg.gauge("sched.jobs_live").add(-1)
        elif topic == "tenant.job_latency":
            reg.histogram("tenant.job_latency", buckets=JOB_LATENCY_BUCKETS,
                          tenant=p["tenant"]).observe(p["latency"])
        elif topic == "task.retry":
            reg.counter("task.retries", kind=p.get("kind", "unknown")).inc()
        elif topic == "task.speculative":
            reg.counter("task.speculative").inc()
        elif topic.startswith("fault."):
            reg.counter("faults", type=topic[len("fault."):]).inc()
