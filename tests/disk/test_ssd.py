"""Unit tests for the FTL-based SSD backend: conservation, GC, cache."""

import hashlib
import json

import pytest

from repro.disk import BlockRequest, IoOp, SsdDevice, SsdParameters
from repro.iosched import NoopScheduler
from repro.sim import Environment


#: Tiny geometry so a synthetic workload can fill and churn the FTL.
SMALL = SsdParameters(
    pages_per_block=4,
    channels=2,
    write_cache_pages=8,
    writeback_delay=0.001,
    gc_min_invalid=2,
)


def make_ssd(env, params=SMALL, **kwargs):
    return SsdDevice(env, NoopScheduler(), params, **kwargs)


def write(lba, n=8, pid="p"):
    return BlockRequest(lba, n, IoOp.WRITE, pid)


def read(lba, n=8, pid="p"):
    return BlockRequest(lba, n, IoOp.READ, pid)


def run_all(env, dev, requests):
    events = [dev.submit(r) for r in requests]
    for ev in events:
        env.run(until=ev)
    # Let the delayed writeback drain the cache completely.
    env.run(until=env.now + 10 * dev.params.writeback_delay + 1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SsdParameters(pages_per_block=0)
    with pytest.raises(ValueError):
        SsdParameters(channels=0)
    with pytest.raises(ValueError):
        SsdParameters(write_cache_pages=-1)


# NaN and negative latencies used to pass: a 2x2 SSD sort with
# program_latency=nan or -1e-3 silently finished 0.15 s early.
@pytest.mark.parametrize("field, value", [
    ("read_latency", float("nan")),
    ("program_latency", float("nan")),
    ("program_latency", -1e-3),
    ("erase_latency", float("inf")),
    ("cache_read_latency", -1.0),
    ("cache_write_latency", float("inf")),
    ("writeback_delay", float("nan")),
])
def test_latencies_must_be_finite_and_non_negative(field, value):
    with pytest.raises(ValueError, match=field):
        SsdParameters(**{field: value})


# A 2.5-channel device failed building its channel list, and an 8.5-page
# write cache ran as a 9-page one.
@pytest.mark.parametrize("field", ["channels", "write_cache_pages",
                                   "pages_per_block", "ncq_depth"])
def test_geometry_must_be_integers(field):
    with pytest.raises(ValueError, match=field):
        SsdParameters(**{field: 8.5})


def test_sequential_writes_conserved_and_wa_one():
    """Append-only writes: every logical page lands exactly once."""
    env = Environment()
    dev = make_ssd(env)
    run_all(env, dev, [write(i * 8) for i in range(64)])
    dev.check_conservation()
    stats = dev.storage_stats()
    assert stats["kind"] == "ssd"
    # No overwrites -> nothing for GC to reclaim -> no amplification.
    assert stats["write_amp"] == pytest.approx(1.0)
    assert stats["nand_erases"] == 0
    assert stats["host_pages"] == stats["nand_programs"]


def test_overwrite_churn_forces_gc_and_wa_above_one():
    """Overwriting a hot set invalidates pages until greedy GC fires."""
    env = Environment()
    dev = make_ssd(env)
    # 16 logical extents overwritten across 16 rounds, with the write
    # cache drained between rounds so every overwrite reaches NAND and
    # invalidates the previous on-flash copy (a single burst would
    # coalesce in cache and never amplify).
    for _ in range(16):
        run_all(env, dev, [write(i * 8) for i in range(16)])
    dev.check_conservation()
    stats = dev.storage_stats()
    assert stats["gc_cycles"] > 0
    assert stats["nand_erases"] >= stats["gc_cycles"]
    assert stats["write_amp"] >= 1.0
    # Conservation: programs account for every host flush plus every
    # GC relocation, nothing else.
    assert stats["nand_programs"] == \
        stats["host_pages"] + stats["gc_moved_pages"]


def test_write_amp_never_below_one_under_coalescing():
    """Back-to-back overwrites coalesce in cache, but WA stays >= 1."""
    env = Environment()
    dev = make_ssd(env)
    # Same extent hammered while still dirty in cache: the cache
    # absorbs the repeats, so host_pages counts flushes, not submits.
    run_all(env, dev, [write(0) for _ in range(32)])
    dev.check_conservation()
    stats = dev.storage_stats()
    assert stats["cache_coalesced"] > 0
    assert stats["write_amp"] >= 1.0


def test_read_after_write_hits_dirty_cache():
    env = Environment()
    dev = make_ssd(env)
    done = dev.submit(write(0))
    env.run(until=done)
    done = dev.submit(read(0))
    env.run(until=done)
    assert dev.storage_stats()["cache_read_hits"] > 0


def test_reads_complete_and_charge_channels():
    env = Environment()
    dev = make_ssd(env)
    run_all(env, dev, [write(i * 8) for i in range(16)])
    events = [dev.submit(read(i * 8)) for i in range(16)]
    for ev in events:
        env.run(until=ev)
    assert all(ev.triggered for ev in events)
    # Contiguous reads may merge in the elevator, but every NAND page
    # still gets charged on its channel.
    assert dev.storage_stats()["nand_reads"] >= 16


def test_service_scale_slows_ssd():
    """The fault knob stretches flash service like it does a spindle."""
    def run_with(scale):
        env = Environment()
        dev = make_ssd(env)
        dev.service_scale = scale
        done = dev.submit(write(0))
        env.run(until=done)
        return env.now

    assert run_with(4.0) > run_with(1.0)


def test_service_scale_applies_to_ops_charged_after_it():
    """A NAND op takes the scale in force when it is booked on its
    channel: ops already queued keep their time, later ones stretch."""
    env = Environment()
    dev = make_ssd(env)
    # Unmapped pages 0 and 2 both live on channel 0 (2 channels).
    first = dev.submit(read(0))
    queued = dev.submit(read(16))
    env.run(until=1e-9)  # both dispatched and booked at t=0
    dev.service_scale = 4.0
    late = dev.submit(read(32))  # page 4: channel 0 again
    for ev in (first, queued, late):
        env.run(until=ev)
    lat = SMALL.read_latency
    assert first.value.complete_time == lat
    # Still waiting for the channel when the scale changed, but booked
    # before it: unscaled.
    assert queued.value.complete_time == lat + lat
    assert late.value.complete_time == (lat + lat) + lat * 4.0


def test_channel_backlog_trace_hand_computed():
    """ssd.channel carries the seconds of work left on the channel."""
    from repro.sim import TraceBus

    env = Environment()
    bus = TraceBus()
    bus.record_topic("ssd.channel")
    dev = make_ssd(env, trace=bus)
    done = [dev.submit(read(0)), dev.submit(read(16))]
    for ev in done:
        env.run(until=ev)
    lat = SMALL.read_latency
    seen = [(r.time, r.payload) for r in bus.recorded("ssd.channel")]
    assert seen == [
        (0.0, {"device": dev.name, "channel": 0, "backlog": lat}),
        (0.0, {"device": dev.name, "channel": 0, "backlog": lat + lat}),
    ]
    assert [ev.value.complete_time for ev in done] == [lat, lat + lat]


#: Pinned outputs of ``_churn_with_reads`` (recorded on the model where
#: every NAND channel was its own server process): GC victims and moved
#: pages in order, final FTL counters, final clock, read completions.
CHURN_GC = [
    (0, 2), (1, 2), (2, 2), (3, 2), (4, 0), (0, 2), (5, 0),
] + [(b, 0) for b in (1, 2, 3, 4, 0, 5)] * 5 + [(1, 0), (2, 0)]
CHURN_STATS = {
    "kind": "ssd", "host_pages": 170, "nand_programs": 180,
    "nand_reads": 96, "nand_erases": 39, "gc_cycles": 39,
    "gc_moved_pages": 10, "flushed_pages": 170, "cache_coalesced": 0,
    "cache_read_hits": 0, "write_amp": 1.0588235294117647,
}
CHURN_NOW = 16.096419999999984
CHURN_READS = [
    0.0024600000000000004, 0.002085, 0.0025200000000000005, 0.002145,
    0.0025800000000000007, 0.0022050000000000004, 1.0073599999999996,
    1.0074199999999995, 1.0073599999999996, 1.0074199999999995,
    1.0074799999999995, 2.0118599999999986, 2.0124599999999986,
    2.0125199999999985, 2.0119199999999986, 2.0119799999999985,
    3.016979999999998, 3.017039999999998, 3.0196999999999976,
    3.0197599999999976, 3.017099999999998, 3.017159999999998, 4.02362,
    4.023680000000001, 4.023740000000001, 4.023800000000001,
    4.026220000000001, 5.028305000000002, 5.028365000000003,
    5.028425000000003, 5.032880000000005, 5.032940000000005,
    6.039600000000009, 6.039660000000009, 6.037400000000007,
    6.037460000000007, 6.037520000000008, 6.037580000000008,
    7.0435200000000115, 7.043580000000012, 7.043640000000012,
    7.043700000000013, 7.046120000000013, 8.048205000000012,
    8.05278000000001, 8.052840000000009, 8.048265000000011,
    8.04832500000001, 9.059100000000006, 9.059160000000006,
    9.056700000000006, 9.056760000000006, 9.056820000000005,
    9.056880000000005, 10.063420000000002, 10.063480000000002,
    10.065220000000004, 10.065280000000003, 10.063540000000001, 11.06914,
    11.0692, 11.06926, 11.06974, 11.069799999999999, 12.074259999999997,
    12.074319999999997, 12.076459999999996, 12.076519999999995,
    12.074379999999996, 12.074439999999996, 13.080379999999993,
    13.080439999999992, 13.080499999999992, 13.080559999999991,
    13.082979999999992, 14.085064999999991, 14.08512499999999,
    14.08518499999999, 14.089639999999989, 14.089699999999988,
    15.096359999999985, 15.096419999999984, 15.094159999999986,
    15.094219999999986, 15.094279999999985, 15.094339999999985,
]
#: sha256 of the churn's ``ssd.channel`` and ``ssd.writeback`` records:
#: every NAND booking's channel and backlog, and every flush, in order.
CHURN_CHANNEL_WRITEBACK_SHA256 = (
    "b45b6a7db8b343e19ec4dcea648031ebc2a4f1cfa90653848ba2fd0db4f00912"
)


def _churn_with_reads():
    """Partial overwrite churn on SMALL, reading the cold extents while
    each round's writeback (and the GC it triggers) holds the channels."""
    from repro.sim import TraceBus

    env = Environment()
    bus = TraceBus()
    bus.record_topic("ssd.*")
    dev = make_ssd(env, trace=bus)
    reads = []
    for rnd in range(16):
        hot = [i for i in range(16) if (i * 7 + rnd) % 3]
        cold = [i for i in range(16) if not (i * 7 + rnd) % 3]
        for ev in [dev.submit(write(i * 8)) for i in hot]:
            env.run(until=ev)
        env.run(until=env.now + SMALL.writeback_delay)
        done = [dev.submit(read(i * 8)) for i in cold]
        for ev in done:
            env.run(until=ev)
        reads += [ev.value.complete_time for ev in done]
        env.run(until=env.now + 1.0)
    dev.check_conservation()
    return bus, dev.storage_stats(), env.now, reads


def records_sha256(records):
    """sha256 of trace records as JSON (floats in shortest repr)."""
    blob = json.dumps([[r.time, r.topic, r.payload] for r in records])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_gc_churn_bit_identical():
    """No benchmark workload reaches GC, so its timing is pinned here."""
    bus, stats, now, reads = _churn_with_reads()
    gc = [(r.payload["victim"], r.payload["moved"])
          for r in bus.recorded("ssd.gc")]
    assert gc == CHURN_GC
    assert stats == CHURN_STATS
    assert now == CHURN_NOW
    assert reads == CHURN_READS
    assert records_sha256(
        r for r in bus.records if r.topic in ("ssd.channel", "ssd.writeback")
    ) == CHURN_CHANNEL_WRITEBACK_SHA256


def test_gc_records_never_report_write_amp_below_one():
    """GC publishes write_amp mid-flush, so the page being placed must
    count in both of its counters or in neither (it read 0.889 here)."""
    from repro.sim import TraceBus

    env = Environment()
    bus = TraceBus()
    bus.record_topic("ssd.gc")
    dev = make_ssd(env, trace=bus)
    # Pages 0-3 twice, then 4-7: the third flush's first page finds no
    # free block and collects block 0, which the overwrite invalidated.
    for lba in (0, 0, 32):
        env.run(until=dev.submit(write(lba, n=32)))
        env.run(until=env.now + 0.010)
    records = bus.recorded("ssd.gc") + _churn_with_reads()[0].recorded("ssd.gc")
    assert len(records) > len(CHURN_GC)
    assert all(r.payload["write_amp"] >= 1 for r in records)


def test_trace_topics_published():
    """ssd.* topics fire on churn (registry half lives in obs.topics)."""
    from repro.sim import TraceBus

    env = Environment()
    bus = TraceBus()
    bus.record_topic("ssd.*")
    dev = make_ssd(env, trace=bus)
    for _ in range(16):
        run_all(env, dev, [write(i * 8) for i in range(16)])
    seen = {r.topic for r in bus.records}
    assert {"ssd.gc", "ssd.writeback", "ssd.channel"} <= seen
