"""Unit tests for RNG streams and the trace bus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import IntervalSampler, RngStreams, TraceBus


def test_same_name_same_stream_object():
    rngs = RngStreams(1)
    assert rngs.stream("a") is rngs.stream("a")


def test_streams_reproducible_across_factories():
    a = RngStreams(42).stream("disk").random(5)
    b = RngStreams(42).stream("disk").random(5)
    assert list(a) == list(b)


def test_different_names_differ():
    rngs = RngStreams(42)
    a = rngs.stream("disk").random(5)
    b = rngs.stream("net").random(5)
    assert list(a) != list(b)


def test_different_seeds_differ():
    a = RngStreams(1).stream("disk").random(5)
    b = RngStreams(2).stream("disk").random(5)
    assert list(a) != list(b)


def test_spawn_is_deterministic_and_independent():
    r1 = RngStreams(7).spawn("host0").stream("s").random(3)
    r2 = RngStreams(7).spawn("host0").stream("s").random(3)
    r3 = RngStreams(7).spawn("host1").stream("s").random(3)
    assert list(r1) == list(r2)
    assert list(r1) != list(r3)


def test_trace_record_topic_keeps_records():
    bus = TraceBus()
    bus.record_topic("x")
    bus.publish(1.0, "x", v=1)
    bus.publish(2.0, "x", v=2)
    recs = bus.recorded("x")
    assert [r.payload["v"] for r in recs] == [1, 2]


def test_trace_unrecorded_topic_not_kept():
    bus = TraceBus()
    got = []
    bus.record_topic("x")
    bus.add_sink(got.append)
    bus.publish(1.0, "y", v=1)  # nobody records "y" → dropped
    bus.publish(2.0, "x", a=1)
    assert bus.recorded("y") == []
    # Sinks see exactly the recorded records, time and payload intact.
    assert [(r.time, r.topic, r.payload) for r in got] == [(2.0, "x", {"a": 1})]


def test_trace_record_topic_starts_at_call_time():
    bus = TraceBus()
    bus.publish(1.0, "x", v=1)  # before record_topic → dropped
    bus.record_topic("x")
    bus.record_topic("x")  # idempotent
    bus.publish(2.0, "x", v=2)
    assert [r.payload["v"] for r in bus.recorded("x")] == [2]


def test_trace_record_topic_wildcards():
    bus = TraceBus()
    bus.record_topic("disk.*")
    bus.publish(1.0, "disk.submit", rid=1)
    bus.publish(2.0, "disk.complete", rid=1)
    bus.publish(3.0, "job.start")  # not under the recorded family
    assert [r.topic for r in bus.records] == ["disk.submit", "disk.complete"]

    bus2 = TraceBus()
    bus2.record_topic("*")
    bus2.publish(1.0, "anything", v=1)
    bus2.publish(2.0, "else.entirely")
    assert len(bus2.records) == 2


def test_trace_recorded_uses_per_topic_index():
    bus = TraceBus()
    bus.record_topic("x")
    bus.record_topic("y")
    for i in range(5):
        bus.publish(float(i), "x", v=i)
    bus.publish(9.0, "y", v=99)
    assert [r.payload["v"] for r in bus.recorded("x")] == [0, 1, 2, 3, 4]
    assert [r.payload["v"] for r in bus.recorded("y")] == [99]
    # recorded() hands back a copy: mutating it must not corrupt the bus.
    view = bus.recorded("y")
    view.clear()
    assert len(bus.recorded("y")) == 1


def test_interval_sampler_bins():
    s = IntervalSampler(interval=1.0)
    s.add(0.1, 10)
    s.add(0.9, 5)
    s.add(1.5, 20)
    s.add(3.2, 1)
    assert s.series() == [15, 20, 0, 1]


def test_interval_sampler_rates():
    s = IntervalSampler(interval=2.0)
    s.add(0.5, 10)
    s.add(1.5, 10)
    # end=2.0 is an exact multiple of the interval: exactly one bin, no
    # spurious trailing bin (the old artifact diluted mean rates).
    assert s.rates(end=2.0) == [pytest.approx(10.0)]


def test_interval_sampler_empty():
    assert IntervalSampler().series() == []
    assert IntervalSampler().rates() == []


def test_interval_sampler_window():
    s = IntervalSampler(interval=1.0)
    for t in [0.5, 1.5, 2.5, 3.5]:
        s.add(t, 1)
    # 0.5 precedes the window and 3.5 follows it; the exact-multiple span
    # yields exactly (end - start) / interval bins.
    assert s.series(start=1.0, end=3.0) == [1, 1]


def test_interval_sampler_boundary_event_clamps_into_last_bin():
    # Regression: with end - start an exact multiple of interval, an
    # event at t == end used to land alone in a spurious final bin.
    s = IntervalSampler(interval=1.0)
    s.add(0.5, 2)
    s.add(1.5, 4)
    s.add(2.0, 6)  # exactly at the window edge
    assert s.series(end=2.0) == [2, 10]
    assert s.rates(end=2.0) == [pytest.approx(2.0), pytest.approx(10.0)]


def test_interval_sampler_fractional_span_keeps_partial_bin():
    s = IntervalSampler(interval=1.0)
    s.add(0.1, 1)
    s.add(2.2, 3)
    # span 2.5 -> 3 bins, the last covering the partial [2.0, 2.5] tail.
    assert s.series(end=2.5) == [1, 0, 3]


def _tuple_list_series(events, interval, start=0.0, end=None):
    """The sampler's bins as computed over a list of (time, amount)
    tuples, before it kept its samples in columns."""
    if not events:
        return []
    if end is None:
        end = max(t for t, _ in events)
    if end <= start:
        return []
    span = (end - start) / interval
    n_bins = int(span)
    if span - n_bins > 1e-9 or n_bins == 0:
        n_bins += 1
    bins = [0.0] * n_bins
    for t, amount in events:
        if t < start or t > end:
            continue
        idx = min(int((t - start) / interval), n_bins - 1)
        bins[idx] += amount
    return bins


_times = st.floats(min_value=-5.0, max_value=40.0)
_amounts = st.one_of(
    st.integers(min_value=0, max_value=2**40),
    st.floats(min_value=-1e9, max_value=1e9),
)


@st.composite
def _sampler_case(draw):
    interval = draw(st.floats(min_value=0.05, max_value=10.0))
    start = draw(st.one_of(st.just(0.0), _times))
    end = draw(st.one_of(
        st.none(),
        _times,
        # An exact multiple of the interval: events at t == end clamp
        # into the last full bin.
        st.integers(min_value=0, max_value=50).map(
            lambda k: start + k * interval),
    ))
    events = draw(st.lists(st.tuples(_times, _amounts), max_size=40))
    if end is not None:
        events += [(end, amount)
                   for amount in draw(st.lists(_amounts, max_size=3))]
    events = draw(st.permutations(events))
    return interval, start, end, events


@settings(max_examples=300, deadline=None)
@given(_sampler_case())
def test_interval_sampler_matches_the_tuple_list_reference(case):
    interval, start, end, events = case
    s = IntervalSampler(interval=interval)
    for t, amount in events:
        s.add(t, amount)
    expected = _tuple_list_series(events, interval, start, end)
    assert s.series(start, end) == expected
    assert s.rates(start, end) == [b / interval for b in expected]
    assert s.series() == _tuple_list_series(events, interval)
