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


def test_sequential_flush_is_one_extent_and_a_middle_overwrite_three():
    """Eight pages fill blocks 0 and 1 and stay one extent across the
    block boundary; rewriting pages 3-4 moves them to block 2 and
    splits the extent around them."""
    env = Environment()
    dev = make_ssd(env)
    run_all(env, dev, [write(0, n=64)])
    assert dev._l2p == [(0, 0, 8)]
    run_all(env, dev, [write(24, n=16)])
    assert dev._l2p == [(0, 0, 3), (3, 8, 2), (5, 5, 3)]
    assert list(dev._p2l) == [0, 1, 2, -1, -1, 5, 6, 7, 3, 4, -1, -1]
    assert dev._invalid == {0: 1, 1: 1, 2: 0}
    dev.check_conservation()


@pytest.mark.parametrize("corrupt", [
    lambda dev: dev._l2p.__setitem__(1, (3, 9, 2)),    # maps a stale slot
    lambda dev: dev._l2p.__setitem__(1, (2, 8, 2)),    # overlaps extent 0
    lambda dev: dev._l2p.__setitem__(1, (3, 8, 0)),    # empty
    lambda dev: dev._p2l.__setitem__(6, -1),           # a mapped slot lost
    lambda dev: dev._p2l.__setitem__(3, 3),            # a stale slot valid
    lambda dev: dev._invalid.__setitem__(2, 1),        # count off by one
], ids=["extent-ppn", "extent-overlap", "extent-empty", "p2l-lost",
        "p2l-stale", "invalid-count"])
def test_check_conservation_catches_corruption(corrupt):
    env = Environment()
    dev = make_ssd(env)
    run_all(env, dev, [write(0, n=64)])
    run_all(env, dev, [write(24, n=16)])  # flushed apart: an overwrite
    dev.check_conservation()
    corrupt(dev)
    with pytest.raises(AssertionError):
        dev.check_conservation()


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


#: Pinned outputs of ``_churn_with_reads``: GC victims and moved pages
#: in order, final FTL counters, final clock, read completions.
CHURN_GC = [
    (0, 2), (1, 2), (4, 1),
] + [(b, 0) for b in (2, 3, 0, 5, 1, 6, 4)] * 4 + [
    (b, 0) for b in (2, 3, 0, 5, 1, 6)
]
CHURN_STATS = {
    "kind": "ssd", "host_pages": 170, "nand_programs": 175,
    "nand_reads": 91, "nand_erases": 37, "gc_cycles": 37,
    "gc_moved_pages": 5, "flushed_pages": 170, "cache_coalesced": 0,
    "cache_read_hits": 0, "write_amp": 1.0294117647058822,
}
CHURN_NOW = 16.09263999999998
CHURN_READS = [
    0.0024600000000000004, 0.002085, 0.0025200000000000005, 0.002145,
    0.0025800000000000007, 0.0022050000000000004, 1.0075599999999996,
    1.0076199999999995, 1.0046649999999997, 1.0047249999999996,
    1.0076799999999995, 2.011999999999999, 2.012459999999999,
    2.012519999999999, 2.012059999999999, 2.012119999999999,
    3.0169799999999984, 3.0161799999999985, 3.0162399999999985,
    3.0162999999999984, 3.0170399999999984, 3.0170999999999983,
    4.0209600000000005, 4.021020000000001, 4.021080000000001,
    4.023560000000002, 4.023620000000002, 5.032480000000006,
    5.032540000000006, 5.025705000000003, 5.025765000000003,
    5.025825000000004, 6.036400000000008, 6.036800000000009,
    6.03686000000001, 6.03692000000001, 6.0369800000000104,
    6.037040000000011, 7.0415000000000125, 7.0437000000000145,
    7.043760000000015, 7.041560000000013, 7.041620000000013,
    8.048020000000013, 8.048080000000013, 8.048140000000013,
    8.048200000000012, 8.05082000000001, 9.054680000000008,
    9.054740000000008, 9.054800000000007, 9.054860000000007,
    9.054920000000006, 9.055080000000007, 10.059140000000005,
    10.061340000000005, 10.061400000000004, 10.059200000000004,
    10.059260000000004, 11.065260000000002, 11.065320000000002,
    11.067860000000001, 11.06792, 11.06798, 12.070065, 12.070124999999999,
    12.070184999999999, 12.074439999999997, 12.074499999999997,
    12.070244999999998, 13.083559999999993, 13.076584999999996,
    13.076644999999996, 13.076704999999995, 13.076764999999995,
    14.08781999999999, 14.08787999999999, 14.087939999999989,
    14.087999999999989, 14.088059999999988, 15.091719999999986,
    15.092519999999984, 15.092579999999984, 15.091779999999986,
    15.091839999999985, 15.092639999999983,
]
#: sha256 of the churn's ``ssd.channel`` and ``ssd.writeback`` records:
#: every NAND booking's channel and backlog, and every flush, in order.
CHURN_CHANNEL_WRITEBACK_SHA256 = (
    "ab254d1df3fbc377ecfb3a2914e5de02f88820b06252619691f6e25dafb12773"
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
    return bus, dev, env.now, reads


def records_sha256(records):
    """sha256 of trace records as JSON (floats in shortest repr)."""
    blob = json.dumps([[r.time, r.topic, r.payload] for r in records])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_gc_churn_bit_identical():
    """No benchmark workload reaches GC, so its timing is pinned here."""
    bus, dev, now, reads = _churn_with_reads()
    gc = [(r.payload["victim"], r.payload["moved"])
          for r in bus.recorded("ssd.gc")]
    assert gc == CHURN_GC
    assert dev.storage_stats() == CHURN_STATS
    assert now == CHURN_NOW
    assert reads == CHURN_READS
    assert records_sha256(
        r for r in bus.records if r.topic in ("ssd.channel", "ssd.writeback")
    ) == CHURN_CHANNEL_WRITEBACK_SHA256


def test_gc_fills_the_block_its_moves_opened():
    """A write that finds no free block runs GC, whose moves open a
    block; the write goes on filling it, so only the open block has
    free slots (GC's block was sealed half-empty: 9 blocks, not 7)."""
    dev = _churn_with_reads()[1]
    assert [
        block for block in dev._invalid
        if block != dev._open and dev._fill[block] != SMALL.pages_per_block
    ] == []


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
