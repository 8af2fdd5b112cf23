"""TraceSpiller: streamed output must equal a buffered reference, byte for byte.

The cheap tests drive synthetic record streams (seeded, so three
distinct shapes) through every window size that matters — 1 (flush per
record), a window that divides the stream length, one that doesn't, and
one larger than the stream, each patched into ``spill.WINDOW`` — and
compare the file bytes against an in-test reference: encode each record
with ``json.dumps`` (see ``tests/obs/test_capture.py`` for the pinned
artifacts of real captured runs).
"""

import random

import pytest

from repro.obs import spill as spill_module
from repro.obs.export import load_jsonl
from repro.obs.spill import TraceSpiller
from repro.sim.tracing import TraceRecord
from tests.obs.test_export import reference_encode

TOPICS = ("disk.submit", "disk.complete", "fs.read", "job.start", "job.done")


def synthetic_records(seed, n=1000):
    rng = random.Random(seed)
    records = []
    t = 0.0
    for i in range(n):
        t += rng.random()
        topic = rng.choice(TOPICS)
        records.append(TraceRecord(time=t, topic=topic, payload={
            "rid": i, "device": f"h{rng.randrange(2)}.sda",
            "process": f"map{i}@h0v0", "nbytes": rng.randrange(1 << 20),
        }))
    return records


def reference_bytes(records):
    """What a spiller must write: every record, one reference line each."""
    return "".join(reference_encode(r) + "\n" for r in records).encode()


def spill(records, path):
    spiller = TraceSpiller(path)
    for record in records:
        spiller.add(record)
    return spiller


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("window", [1, 100, 333, 5000])
def test_spilled_bytes_equal_buffered_bytes(tmp_path, monkeypatch, seed, window):
    monkeypatch.setattr(spill_module, "WINDOW", window)
    records = synthetic_records(seed)
    streamed = tmp_path / "streamed.jsonl"

    spiller = spill(records, streamed)
    assert spiller.buffered <= window
    n = spiller.close()
    assert n == len(records)
    assert streamed.read_bytes() == reference_bytes(records)


def test_window_flushes_bound_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(spill_module, "WINDOW", 100)
    records = synthetic_records(0, n=250)
    spiller = TraceSpiller(tmp_path / "t.jsonl")
    for record in records:
        spiller.add(record)
        assert spiller.buffered < 100  # the window flushes *at* 100
    # 250 records at window 100: two mid-run flushes, 50 still open.
    assert spiller.flushes == 2
    assert spiller.spilled == 200
    assert spiller.buffered == 50
    spiller.close()
    assert spiller.spilled == 250


def test_partial_file_until_close(tmp_path, monkeypatch):
    monkeypatch.setattr(spill_module, "WINDOW", 10)
    path = tmp_path / "t.jsonl"
    spiller = spill(synthetic_records(0, n=50), path)
    assert not path.exists()
    assert path.with_name("t.jsonl.partial").exists()
    spiller.close()
    assert path.exists()
    assert not path.with_name("t.jsonl.partial").exists()
    assert len(load_jsonl(path)) == 50


def test_close_is_idempotent_and_add_after_close_raises(tmp_path):
    spiller = spill(synthetic_records(0, n=5), tmp_path / "t.jsonl")
    assert spiller.close() == 5
    assert spiller.close() == 5
    with pytest.raises(RuntimeError):
        spiller.add(TraceRecord(time=0.0, topic="job.start", payload={}))


def test_zero_records_still_writes_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    spiller = TraceSpiller(path)
    assert spiller.close() == 0
    assert path.exists()
    assert path.read_bytes() == b""


def test_abort_leaves_nothing_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(spill_module, "WINDOW", 10)
    path = tmp_path / "t.jsonl"
    spiller = spill(synthetic_records(0, n=50), path)
    spiller.abort()
    assert not path.exists()
    assert not path.with_name("t.jsonl.partial").exists()
    with pytest.raises(RuntimeError):
        spiller.add(TraceRecord(time=0.0, topic="job.start", payload={}))


def test_default_window_is_sane(tmp_path):
    assert spill_module.WINDOW == 4096
    assert TraceSpiller(tmp_path / "t.jsonl").window == spill_module.WINDOW
