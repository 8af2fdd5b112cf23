"""Integration tests for the disk device dispatch loop and switching."""

import numpy as np
import pytest

from repro.disk import (
    SWITCH_CONTROL_LATENCY,
    BlockRequest,
    DiskDevice,
    DiskGeometry,
    IoOp,
    ServiceTimeModel,
)
from repro.iosched import (
    AnticipatoryScheduler,
    CfqScheduler,
    DeadlineScheduler,
    NoopScheduler,
    scheduler_factory,
)
from repro.obs.metrics import TraceMetrics
from repro.sim import Environment, TraceBus


def make_device(env, sched=None, seed=1, **kwargs):
    model = ServiceTimeModel(rng=np.random.default_rng(seed))
    return DiskDevice(env, sched or NoopScheduler(), model, **kwargs)


def req(lba, n=256, op=IoOp.READ, pid="p", sync=None):
    return BlockRequest(lba, n, op, pid, sync=sync)


def test_single_request_completes():
    env = Environment()
    dev = make_device(env)
    done = dev.submit(req(0))
    env.run(until=done)
    assert done.value.complete_time == env.now
    assert dev.stats.read_count == 1
    assert dev.idle


def test_requests_while_busy_are_queued():
    env = Environment()
    dev = make_device(env)
    d1 = dev.submit(req(0))
    d2 = dev.submit(req(1_000_000_000))
    env.run()
    assert d1.processed and d2.processed
    assert dev.stats.total_requests == 2


def test_merged_requests_complete_together():
    env = Environment()
    dev = make_device(env)
    d1 = dev.submit(req(1_000_000, 256))

    completions = []

    def submit_adjacent(env, dev):
        # While the first request is being served... queue two that merge.
        yield env.timeout(0.0001)
        a = dev.submit(req(2_000_000, 256))
        b = dev.submit(req(2_000_256, 256))
        yield a & b
        completions.append(env.now)

    env.process(submit_adjacent(env, dev))
    env.run()
    assert d1.processed
    assert completions
    # Two submissions merged into one disk command.
    assert dev.stats.total_requests == 2  # first + merged pair
    assert dev.stats.merged_count == 1


def test_merged_completions_fire_with_the_merged_request_and_unbind():
    env = Environment()
    dev = make_device(env)
    first, a, b, c = req(0), req(2_000_000), req(2_000_256), req(1_999_744)
    done = [dev.submit(r) for r in (first, a, b, c)]
    env.run()
    # b back-merged into a, then c front-merged into it: one command.
    assert a.merged_children == [b, c]
    assert [event.value for event in done] == [first, a, a, a]
    # Nothing points back at a fired event.
    assert [r.completion for r in (first, a, b, c)] == [None] * 4


def test_sequential_stream_throughput_near_media_rate():
    env = Environment()
    dev = make_device(env)
    n, size = 100, 1024  # 100 x 512 KB sequential
    events = [dev.submit(req(i * size, size)) for i in range(n)]
    env.run()
    total_bytes = n * size * 512
    rate = total_bytes / env.now
    # Should be close to the outer-zone rate (130 MB/s), minus overheads.
    assert rate > 100e6


def test_anticipatory_device_idles_then_fires():
    env = Environment()
    dev = make_device(env, sched=AnticipatoryScheduler())
    log = []

    def reader(env, dev, pid, base):
        for i in range(5):
            done = dev.submit(req(base + i * 256, 256, pid=pid))
            yield done
            log.append((env.now, pid))
            yield env.timeout(0.001)  # think time < antic window

    env.process(reader(env, dev, "a", 0))
    env.process(reader(env, dev, "b", 1_000_000_000))
    env.run()
    # Anticipation should keep each process streaming: few alternations.
    sequence = [pid for _, pid in log]
    alternations = sum(1 for x, y in zip(sequence, sequence[1:]) if x != y)
    assert alternations <= 4
    assert dev.scheduler.antic_hits > 0


def test_switch_scheduler_installs_new_elevator():
    env = Environment()
    dev = make_device(env)
    done = dev.switch_scheduler(scheduler_factory("deadline"))
    env.run(until=done)
    assert isinstance(dev.scheduler, DeadlineScheduler)
    assert dev.switch_count == 1
    assert done.value >= SWITCH_CONTROL_LATENCY


def test_switch_under_load_drains_backlog_first():
    env = Environment()
    dev = make_device(env, sched=DeadlineScheduler())
    events = [dev.submit(req(i * 100_000_000 % 1_900_000_000, 256)) for i in range(30)]
    switch_done = dev.switch_scheduler(scheduler_factory("cfq"))
    env.run(until=switch_done)
    # All requests queued before the switch have completed.
    assert all(ev.processed for ev in events)
    assert isinstance(dev.scheduler, CfqScheduler)
    assert switch_done.value > 0.01  # stall includes the drain


def test_requests_during_switch_bypass_and_complete():
    env = Environment()
    dev = make_device(env, sched=DeadlineScheduler())
    for i in range(20):
        dev.submit(req(i * 50_000_000, 256))
    switch_done = dev.switch_scheduler(scheduler_factory("noop"))

    late = []

    def submit_late(env, dev):
        yield env.timeout(0.005)  # mid-switch
        late.append(dev.submit(req(123_456, 256)))

    env.process(submit_late(env, dev))
    env.run()
    assert late and late[0].processed


def test_same_to_same_switch_still_pays():
    """The paper: re-selecting the current scheduler is not free."""
    env = Environment()
    dev = make_device(env, sched=DeadlineScheduler())
    for i in range(10):
        dev.submit(req(i * 100_000_000, 256))
    done = dev.switch_scheduler(scheduler_factory("deadline"))
    env.run(until=done)
    assert done.value > SWITCH_CONTROL_LATENCY


def test_concurrent_switches_serialize():
    env = Environment()
    dev = make_device(env)
    d1 = dev.switch_scheduler(scheduler_factory("cfq"))
    d2 = dev.switch_scheduler(scheduler_factory("anticipatory"))
    env.run()
    assert d1.processed and d2.processed
    assert isinstance(dev.scheduler, AnticipatoryScheduler)
    assert dev.switch_count == 2


def test_trace_events_published():
    env = Environment()
    bus = TraceBus()
    bus.record_topic("disk.submit")
    bus.record_topic("disk.complete")
    dev = make_device(env, trace=bus)
    dev.submit(req(0))
    env.run()
    assert len(bus.recorded("disk.submit")) == 1
    assert len(bus.recorded("disk.complete")) == 1


def test_unfinished_count_matches_the_trace_gauge_through_merges_and_a_switch():
    env = Environment()
    bus = TraceBus()
    bus.record_topic("disk.*")
    dev = make_device(env, sched=DeadlineScheduler(), trace=bus)
    fold = TraceMetrics()
    bus.add_sink(fold.handle)
    seen = []

    def check(record):
        if record.topic in ("disk.submit", "disk.complete"):
            gauge = fold.registry.gauge("disk.queue_depth", device=dev.name)
            seen.append((dev.unfinished, gauge.value))

    bus.add_sink(check)
    dev.submit(req(1_000_000))  # occupies the spindle
    for i in range(3):  # queued back to back: merged into one command
        dev.submit(req(2_000_000 + 256 * i))
    for i in range(10):
        dev.submit(req(i * 100_000_000))
    switch_done = dev.switch_scheduler(scheduler_factory("cfq"))

    def submit_late(env, dev):
        yield env.timeout(0.005)  # mid-switch: bypasses the elevator
        dev.submit(req(123_456))

    env.process(submit_late(env, dev))
    env.run()
    assert switch_done.processed
    merged = [r.payload["merged_rids"] for r in bus.recorded("disk.complete")]
    assert max(len(rids) for rids in merged) >= 2
    assert len(seen) == len(bus.recorded("disk.submit")) + len(merged)
    assert all(count == gauge for count, gauge in seen)
    assert dev.unfinished == 0


def test_stats_busy_time_accumulates():
    env = Environment()
    dev = make_device(env)
    dev.submit(req(0, 1024))
    env.run()
    assert dev.stats.busy_time > 0
    assert dev.stats.busy_time <= env.now + 1e-9
    assert dev.stats.utilization(env.now) > 0
