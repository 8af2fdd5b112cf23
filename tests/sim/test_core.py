"""Unit tests for the Environment run loop."""

import pytest

from repro.sim import EmptySchedule, Environment


def test_now_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(10.0).now == 10.0


def test_run_until_time():
    env = Environment()
    fired = []
    env.timeout(1).callbacks.append(lambda ev: fired.append(1))
    env.timeout(5).callbacks.append(lambda ev: fired.append(5))
    env.run(until=3)
    assert env.now == pytest.approx(3)
    assert fired == [1]
    env.run(until=10)
    assert fired == [1, 5]


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == pytest.approx(2)


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_drains_queue_when_no_until():
    env = Environment()
    env.timeout(1)
    env.timeout(2)
    env.run()
    assert env.now == pytest.approx(2)


def test_step_on_empty_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4)
    env.timeout(2)
    assert env.peek() == pytest.approx(2)


def test_run_until_never_triggering_event_raises():
    env = Environment()
    ev = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=ev)


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 7

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == 7


def test_schedule_negative_delay_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(ValueError):
        env.schedule(ev, delay=-0.5)


def test_timeout_at_fires_at_exactly_the_absolute_time():
    # 0.7 + (2.9 - 0.7) rounds to 2.9000000000000004: a relative
    # timeout would miss the absolute time by one ulp.
    env = Environment(initial_time=0.7)
    assert env.now + (2.9 - env.now) != 2.9
    seen = []

    def proc(env):
        value = yield env.timeout_at(2.9, value="v")
        seen.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert seen == [(2.9, "v")]


def test_timeout_at_now_and_past():
    env = Environment(initial_time=1.0)
    ev = env.timeout_at(1.0)
    env.run(until=ev)
    assert env.now == 1.0
    with pytest.raises(ValueError):
        env.timeout_at(0.5)


# -- NaN times: rejected where they enter, so the clock cannot run backwards --


def test_timeout_rejects_a_nan_delay():
    with pytest.raises(ValueError, match="delay"):
        Environment().timeout(float("nan"))


def test_timeout_at_rejects_a_nan_time():
    with pytest.raises(ValueError, match="when"):
        Environment().timeout_at(float("nan"))


def test_schedule_rejects_a_nan_delay():
    env = Environment()
    with pytest.raises(ValueError, match="delay"):
        env.schedule(env.event(), delay=float("nan"))


def test_run_rejects_a_nan_until():
    with pytest.raises(ValueError, match="until"):
        Environment().run(until=float("nan"))


def test_timeout_reserved_rejects_a_nan_delay():
    env = Environment()
    with pytest.raises(ValueError, match="delay"):
        env.timeout_reserved(float("nan"), env.reserve_order())


# -- reserved order keys ------------------------------------------------------


def test_reserved_key_runs_where_the_event_would_have_been_created():
    env = Environment()
    fired = []
    key = env.reserve_order()
    env.timeout(1.0).callbacks.append(lambda ev: fired.append("created later"))
    env.timeout_reserved(1.0, key).callbacks.append(
        lambda ev: fired.append("reserved"))
    env.run()
    assert fired == ["reserved", "created later"]
