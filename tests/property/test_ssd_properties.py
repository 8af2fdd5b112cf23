"""Property test: the FTL's run-at-a-time service path equals per-page.

``SsdDevice`` places a flush a block run at a time, books each run on
its channel with one call, absorbs write spans into the cache in chunks
and books reads per run of same-channel pages.  ``PerPageSsd`` below
keeps the one-page-at-a-time loops, with every NAND op booked alone.
Random scripts on tiny geometries (overwrites, GC at every threshold,
a cache small enough to block writers, ``service_scale`` changes
mid-run) must give both the same completion times, counters, channel
clocks and trace records, float for float.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import BlockRequest, IoOp, SsdDevice, SsdParameters
from repro.disk.request import reset_rids
from repro.iosched import NoopScheduler
from repro.sim import Environment, TraceBus
from repro.sim.events import Event, Timeout


class PerPageSsd(SsdDevice):
    """Reference FTL: one page, one lookup and one booking at a time."""

    def _charge(self, channel, latency):
        now = self.env._now
        busy = self._chan_busy[channel]
        end = (busy if busy > now else now) + latency * self.service_scale
        self._chan_busy[channel] = end
        if self.trace is not None:
            self.trace.publish(now, "ssd.channel", device=self.name,
                               channel=channel, backlog=end - now)
        return end

    def _book(self, channel, latency, count):
        for _ in range(count):
            end = self._charge(channel, latency)
        return end

    def _serve_write(self, request):
        env = self.env
        dirty, capacity = self._dirty, self.params.write_cache_pages
        kick = False
        for lpn in self._page_span(request):
            while lpn not in dirty and len(dirty) >= capacity:
                if kick:
                    self._kick_flusher()
                    kick = False
                waiter = Event(env)
                self._cache_waiters.append(waiter)
                yield waiter
            if lpn in dirty:
                self.cache_coalesced += 1
            else:
                dirty[lpn] = None
                kick = True
        if kick:
            self._kick_flusher()
        yield Timeout(env, self.params.cache_write_latency * self.service_scale)

    def _serve_read(self, request):
        env = self.env
        params = self.params
        done = None
        hit_cache = False
        for lpn in self._page_span(request):
            if lpn in self._dirty:
                hit_cache = True
                self.cache_read_hits += 1
                continue
            ppn = self._l2p.get(lpn)
            block = lpn if ppn is None else ppn // params.pages_per_block
            end = self._charge(block % params.channels, params.read_latency)
            self.nand_reads += 1
            if done is None or end > done:
                done = end
        if hit_cache:
            yield Timeout(env, params.cache_read_latency * self.service_scale)
        if done is not None:
            yield env.timeout_at(done if done > env._now else env._now)

    def _program(self, lpns, during_gc=False):
        l2p, blocks, invalid = self._l2p, self._blocks, self._invalid
        params = self.params
        per_block = params.pages_per_block
        for lpn in lpns:
            old = l2p.get(lpn)
            if old is not None:
                old_block, old_slot = divmod(old, per_block)
                blocks[old_block][old_slot] = None
                invalid[old_block] += 1
                if invalid[old_block] == params.gc_min_invalid:
                    self._gc_candidates += 1
            if self._open is None or len(blocks[self._open]) == per_block:
                self._open_block(during_gc)
            block = self._open
            l2p[lpn] = block * per_block + len(blocks[block])
            blocks[block].append(lpn)
            self.nand_programs += 1
            if not during_gc:
                self.host_pages += 1
            self._charge(block % params.channels, params.program_latency)


@st.composite
def geometries(draw):
    per_block = draw(st.integers(min_value=2, max_value=8))
    return SsdParameters(
        pages_per_block=per_block,
        channels=draw(st.integers(min_value=1, max_value=3)),
        write_cache_pages=draw(st.integers(min_value=1, max_value=16)),
        writeback_delay=draw(st.sampled_from([0.0, 1e-4, 1e-3])),
        gc_min_invalid=draw(st.integers(min_value=1, max_value=per_block)),
    )


#: 16 logical pages (8 sectors each): small enough that writes overwrite
#: and reads hit mapped, unmapped and still-cached pages.
SECTORS = 16 * 8

REQUESTS = st.lists(
    st.tuples(st.sampled_from([IoOp.WRITE, IoOp.WRITE, IoOp.READ]),
              st.integers(min_value=0, max_value=SECTORS - 1),
              st.integers(min_value=1, max_value=48)),
    min_size=1,
    max_size=4,
)

#: Rounds of (service_scale to set or None, requests submitted together,
#: seconds to run before the next round).  A settle past the writeback
#: delay flushes the round, so the next one's writes overwrite on NAND.
SCRIPTS = st.lists(
    st.tuples(st.sampled_from([None, None, 0.5, 1.0, 3.0]),
              REQUESTS,
              st.sampled_from([0.0, 1e-4, 2e-3, 2e-2])),
    min_size=1,
    max_size=12,
)


def run_script(cls, params, script, traced):
    """Run ``script`` on a fresh ``cls`` device until the heap drains."""
    reset_rids()
    env = Environment()
    bus = None
    if traced:
        bus = TraceBus()
        bus.record_topic("ssd.*")
        bus.record_topic("disk.*")
    dev = cls(env, NoopScheduler(), params, trace=bus)
    done = []
    for scale, requests, settle in script:
        if scale is not None:
            dev.service_scale = scale
        for op, lba, nsectors in requests:
            done.append(dev.submit(BlockRequest(lba, nsectors, op, "p")))
        env.run(until=env.now + settle)
    env.run()
    assert all(ev.triggered for ev in done)
    dev.check_conservation()
    return dev, env.now, [ev.value.complete_time for ev in done], bus


@settings(max_examples=150, deadline=None)
@given(geometries(), SCRIPTS, st.booleans())
def test_run_service_matches_per_page_reference(params, script, traced):
    dev, now, completions, bus = run_script(SsdDevice, params, script, traced)
    ref, ref_now, ref_completions, ref_bus = run_script(
        PerPageSsd, params, script, traced)
    assert completions == ref_completions
    assert now == ref_now
    assert dev.storage_stats() == ref.storage_stats()
    assert dev._chan_busy == ref._chan_busy
    if traced:
        assert bus.records == ref_bus.records
        assert all(r.payload["write_amp"] >= 1
                   for r in bus.recorded("ssd.gc"))
