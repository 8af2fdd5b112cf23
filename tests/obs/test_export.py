"""Trace export: the canonical encoder, JSONL round-trip determinism
and Chrome trace shape."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    decode_record,
    encode_record,
    load_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.spill import TraceSpiller
from repro.sim.tracing import TraceRecord


def rec(time, topic, **payload):
    return TraceRecord(time=time, topic=topic, payload=payload)


SAMPLE = [
    rec(0.0, "job.start", name="sort"),
    rec(0.0, "disk.submit", device="h0.sda", rid=1, op="read", lba=100,
        nsectors=8, process="h0v0"),
    rec(0.001, "disk.submit", device="h0.sda", rid=2, op="read", lba=108,
        nsectors=8, process="h0v0"),
    rec(0.02, "disk.complete", device="h0.sda", rid=1, merged_rids=[2],
        nbytes=8192),
    rec(0.5, "disk.switched", device="h0.sda", scheduler="NOOP", stall=0.1),
    rec(1.0, "job.maps_done"),
    rec(1.5, "job.shuffle_done"),
    rec(1.7, "fault.vm_pause", vm="h0v0", duration=0.2),
    rec(1.8, "fault.vm_crash", vm="h0v1"),
    rec(1.9, "task.retry", kind="map", task_id=3),
    rec(2.0, "job.done", name="sort"),
]


# -- the writer ---------------------------------------------------------------------


def test_writer_caps(tmp_path):
    # write_jsonl is the streaming writer in one call: same bytes.
    spiller = TraceSpiller(tmp_path / "t.jsonl")
    for record in SAMPLE:
        spiller.add(record)
    assert spiller.close() == len(SAMPLE)
    assert write_jsonl(SAMPLE, tmp_path / "w.jsonl") == len(SAMPLE)
    assert (tmp_path / "w.jsonl").read_bytes() == \
        (tmp_path / "t.jsonl").read_bytes()


# -- the canonical encoder ------------------------------------------------------------


def reference_encode(record):
    """The canonical line, spelled the slow, obvious way."""
    return json.dumps(
        {"time": record.time, "topic": record.topic, "payload": record.payload},
        sort_keys=True,
        separators=(",", ":"),
    )


def assert_encodes_like_reference(record, templates):
    """Same text as the reference, or the same exception type."""
    try:
        expected = reference_encode(record)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            encode_record(record, templates)
    else:
        assert encode_record(record, templates) == expected


class Rid(int):
    """An int subclass: json renders it through int.__repr__."""


#: Strings that need escaping (or would break a %-format) in keys,
#: topics and values.
AWKWARD = st.sampled_from(['%s', '100%', '"q"', "back\\slash", "tab\t",
                           "nul\x00", "caf\u00e9", "\u2603", "\U0001f600"])
TEXT = st.text(max_size=8) | AWKWARD
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.integers(min_value=0, max_value=2 ** 40).map(Rid),
    st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"),
                                  float("-inf")]),
    st.floats(allow_nan=False).map(np.float64), TEXT,
    # json.dumps rejects both: the encoder must raise the same type.
    st.sampled_from([np.int64(7), {1, 2}]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT | st.integers(), inner, max_size=4)),
    max_leaves=8,
)
TIMES = st.floats() | st.integers() | st.floats(allow_nan=False).map(np.float64)
TOPICS = st.sampled_from(["disk.submit", "fs.read"]) | TEXT


@settings(max_examples=300, deadline=None)
@given(TIMES, TOPICS,
       st.dictionaries(TEXT, VALUES, max_size=6)
       | st.dictionaries(st.integers() | st.floats() | st.booleans()
                         | st.none() | TEXT, SCALARS, max_size=4))
def test_encoder_matches_reference(time, topic, payload):
    record = TraceRecord(time=time, topic=topic, payload=payload)
    assert_encodes_like_reference(record, None)
    templates = {}
    assert_encodes_like_reference(record, templates)  # learns the shape
    assert_encodes_like_reference(record, templates)  # reuses it


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(TIMES, VALUES, VALUES), min_size=2, max_size=6))
def test_template_cache_does_not_pin_value_types(rows):
    # One shape, whatever the values: a template learned from one
    # record must render the next one's types as the reference does.
    templates = {}
    for time, rid, device in rows:
        record = TraceRecord(time, "disk.submit", {"rid": rid, "device": device})
        assert_encodes_like_reference(record, templates)
    assert len(templates) == 1


@pytest.mark.parametrize("value", [np.int64(7), {1, 2}])
def test_encoder_rejects_what_json_rejects(value):
    record = rec(0.0, "disk.submit", rid=value)
    with pytest.raises(TypeError):
        reference_encode(record)
    with pytest.raises(TypeError):
        encode_record(record, {})


# -- JSONL round-trip (the determinism guard) ---------------------------------------


def test_encode_decode_roundtrip():
    for record in SAMPLE:
        assert decode_record(encode_record(record)) == record


def test_jsonl_reexport_is_byte_identical(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    write_jsonl(SAMPLE, first)
    # Reload and re-export: the canonical encoder must reproduce the
    # file byte for byte.
    write_jsonl(load_jsonl(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert len(load_jsonl(second)) == len(SAMPLE)


# -- Chrome trace-event export -------------------------------------------------------


def test_chrome_trace_schema():
    trace = to_chrome_trace(SAMPLE)
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    assert events, "expected events from the sample records"
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        assert event["ph"] in ("M", "X", "i")
        if event["ph"] != "M":
            assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_chrome_trace_maps_tracks_and_phases():
    trace = to_chrome_trace(SAMPLE)
    events = trace["traceEvents"]
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert tracks == {"job", "h0.sda"}
    x_names = {e["name"] for e in events if e["ph"] == "X"}
    # Phases, both rids of the merged completion, the elevator switch,
    # and the timed fault all become duration events.
    assert {"phase:map", "phase:shuffle", "phase:reduce",
            "read rid=1", "read rid=2", "elv→NOOP",
            "pause h0v0"} <= x_names
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert {"fault.vm_crash", "task.retry"} <= instants
    phase = next(e for e in events if e["name"] == "phase:map")
    assert phase["ts"] == 0.0
    assert phase["dur"] == pytest.approx(1.0 * 1e6)


def test_chrome_trace_file_is_valid_json(tmp_path):
    path = tmp_path / "trace.chrome.json"
    n = write_chrome_trace(SAMPLE, path)
    data = json.loads(path.read_text())
    assert len(data["traceEvents"]) == n
