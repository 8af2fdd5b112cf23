"""Focused tests for the elevator switch's drain-and-bypass semantics."""

import numpy as np

from repro.disk import BlockRequest, DiskDevice, IoOp, ServiceTimeModel
from repro.iosched import DeadlineScheduler, NoopScheduler, scheduler_factory
from repro.sim import Environment


def make_device(env):
    model = ServiceTimeModel(rng=np.random.default_rng(1))
    return DiskDevice(env, DeadlineScheduler(), model)


def req(lba, n=256):
    return BlockRequest(lba, n, IoOp.READ, "p")


def submit_backlog(dev, count=20):
    return [dev.submit(req(i * 50_000_000 % 1_900_000_000)) for i in range(count)]


def test_bypass_mode_serves_arrivals_during_switch():
    """2.6 semantics: mid-switch arrivals flow via the FIFO."""
    env = Environment()
    dev = make_device(env)
    submit_backlog(dev)
    switch_done = dev.switch_scheduler(scheduler_factory("noop"))

    mid = {}

    def prober():
        yield env.timeout(0.06)  # after control latency, during drain
        assert dev._switching
        mid["ev"] = dev.submit(req(123_000))
        yield mid["ev"]
        mid["completed_at"] = env.now

    env.process(prober())
    env.run(until=switch_done)
    switch_end = env.now
    env.run()
    # The mid-switch request rode the dispatch FIFO: it completes with
    # the drain tail rather than waiting for the new elevator (it sits
    # behind the drained backlog, so allow the FIFO tail's slack).
    assert mid["completed_at"] <= switch_end + 0.1


def test_switch_completes_even_under_continuous_arrivals():
    """Bypass arrivals must not extend the drain wait indefinitely."""
    env = Environment()
    dev = make_device(env)
    submit_backlog(dev, count=10)
    switch_done = dev.switch_scheduler(scheduler_factory("cfq"))

    def firehose():
        i = 0
        while not switch_done.processed and i < 500:
            dev.submit(req((i * 7_000_000) % 1_000_000_000))
            i += 1
            yield env.timeout(0.002)

    env.process(firehose())
    env.run(until=switch_done)
    assert dev.scheduler.name == "cfq"
    # The backlog queued pre-switch is fully served by then.
    assert not dev._drain_watch


def test_drain_watch_empties_and_new_elevator_gets_later_requests():
    env = Environment()
    dev = make_device(env)
    pre = submit_backlog(dev, count=8)
    done = dev.switch_scheduler(scheduler_factory("noop"))
    env.run(until=done)
    assert all(ev.processed for ev in pre)
    post = dev.submit(req(42_000))
    env.run()
    assert post.processed
    assert isinstance(dev.scheduler, NoopScheduler)
