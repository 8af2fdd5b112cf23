"""Unit tests for the metrics registry and the trace-topic bridge."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceMetrics,
)
from repro.sim.tracing import TraceBus, TraceRecord


def rec(time, topic, **payload):
    return TraceRecord(time=time, topic=topic, payload=payload)


# -- primitives ---------------------------------------------------------------------


def test_counter_increments_and_rejects_negative():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.snapshot() == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_high_water_mark():
    g = Gauge()
    g.add(3)
    g.add(4)
    g.add(-5)
    assert g.snapshot() == {"value": 2.0, "max": 7.0}


def test_histogram_buckets_and_mean():
    h = Histogram(buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    assert h.count == 4
    assert h.counts == [1, 1, 1, 1]  # one per bucket incl. +inf overflow
    assert h.mean == pytest.approx((0.005 + 0.05 + 0.5 + 5.0) / 4)
    # Exact bucket edge lands in that bucket (upper bounds are inclusive).
    h.observe(0.1)
    assert h.counts[1] == 2


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 0.1))
    with pytest.raises(ValueError):
        Histogram(buckets=())


def test_registry_keys_are_deterministic_and_labelled():
    reg = MetricsRegistry()
    reg.counter("disk.submitted", device="h0.sda").inc()
    reg.counter("fs.ops", op="read", vm="h0v1").inc()
    # Same metric through a second get-or-create call.
    reg.counter("disk.submitted", device="h0.sda").inc()
    snap = reg.snapshot()
    assert snap["counters"] == {
        "disk.submitted{device=h0.sda}": 2.0,
        "fs.ops{op=read,vm=h0v1}": 1.0,
    }
    # Label order in the call never changes the key.
    reg.counter("fs.ops", vm="h0v1", op="read").inc()
    assert reg.snapshot()["counters"]["fs.ops{op=read,vm=h0v1}"] == 2.0


def test_trace_metrics_disk_lifecycle():
    tm = TraceMetrics()
    tm.replay([
        rec(0.0, "disk.submit", device="d", rid=1, op="read"),
        rec(0.0, "disk.submit", device="d", rid=2, op="read"),
        rec(0.5, "disk.complete", device="d", rid=1, merged_rids=[2],
            nbytes=4096),
    ])
    c = tm.registry.snapshot()
    assert c["counters"]["disk.submitted{device=d}"] == 2.0
    assert c["counters"]["disk.completed{device=d}"] == 2.0
    assert c["counters"]["disk.merged{device=d}"] == 1.0
    assert c["counters"]["disk.bytes{device=d}"] == 4096.0
    depth = c["gauges"]["disk.queue_depth{device=d}"]
    assert depth == {"value": 0.0, "max": 2.0}
    hist = c["histograms"]["disk.latency{device=d}"]
    assert hist["count"] == 2  # primary + merged rid both observed
    assert hist["mean"] == pytest.approx(0.5)


def test_trace_metrics_job_phases_and_faults():
    tm = TraceMetrics()
    tm.replay([
        rec(0.0, "job.start", name="sort"),
        rec(1.0, "job.map_finished", task_id=0, done=1, total=2),
        rec(2.0, "job.map_finished", task_id=1, done=2, total=2),
        rec(2.0, "job.maps_done"),
        rec(3.0, "job.shuffle_done"),
        rec(4.0, "job.reduce_finished", reducer=0),
        rec(5.0, "job.done", name="sort"),
        rec(1.5, "fault.vm_pause", vm="h0v0", duration=0.5),
        rec(1.6, "task.retry", kind="map"),
    ])
    snap = tm.registry.snapshot()
    assert snap["counters"]["job.maps_finished"] == 2.0
    assert snap["gauges"]["job.map_progress"]["value"] == 1.0
    assert snap["gauges"]["job.maps_done_time"]["value"] == 2.0
    assert snap["gauges"]["job.shuffle_done_time"]["value"] == 3.0
    assert snap["gauges"]["job.end_time"]["value"] == 5.0
    assert snap["counters"]["faults{type=vm_pause}"] == 1.0
    assert snap["counters"]["task.retries{kind=map}"] == 1.0


def test_trace_metrics_switch_and_service_accounting():
    tm = TraceMetrics()
    tm.replay([
        rec(1.0, "disk.switched", device="d", scheduler="NOOP", stall=0.25),
        rec(2.0, "disk.service", device="d", rid=1, op="read",
            service=0.02, seek=0.008, rotation=0.004, transfer=0.008),
    ])
    c = tm.registry.snapshot()["counters"]
    assert c["sched.switches{device=d}"] == 1.0
    assert c["sched.switch_stall_seconds{device=d}"] == 0.25
    assert c["sched.switch_stall_seconds_total"] == 0.25
    assert c["disk.busy_seconds{device=d}"] == pytest.approx(0.02)
    assert c["disk.seek_seconds{device=d}"] == pytest.approx(0.008)


def test_trace_metrics_attach_detach_live_bus():
    # Attached as a sink, the fold sees what the bus records, live.
    bus = TraceBus()
    bus.record_topic("disk.*")
    tm = TraceMetrics()
    bus.add_sink(tm.handle)
    bus.publish(0.0, "disk.submit", device="d", rid=1)
    bus.publish(1.0, "job.start", name="sort")
    snap = tm.registry.snapshot()
    assert snap["counters"]["disk.submitted{device=d}"] == 1.0
    assert "job.start_time" not in snap["gauges"]
