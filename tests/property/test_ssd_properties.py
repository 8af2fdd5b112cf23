"""Property test: the FTL's extent service path equals a per-page FTL.

``SsdDevice`` keeps its mapping in extents (a sorted L2P extent list and
a P2L array), places a flush a block run at a time, absorbs write spans
into the cache in chunks, books each read once per channel and resumes
the writers a flush unblocks with one event.  ``PerPageSsd`` below is an
independent per-page FTL: a page dict, per-block slot lists, a flush
that wakes every blocked writer with its own event, and one page, one
lookup and one NAND booking at a time.  Random scripts on tiny
geometries (overwrites inside extents, GC at every threshold, reads of
long never-written stretches, several writers blocked on a 1-4 page
cache, ``service_scale`` changes mid-run) must give both the same
completion times, counters, channel clocks and trace records, float for
float.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import BlockRequest, IoOp, SsdDevice, SsdParameters
from repro.disk.request import reset_rids
from repro.iosched import NoopScheduler
from repro.sim import Environment, TraceBus
from repro.sim.events import Event, Timeout


class PerPageSsd(SsdDevice):
    """Reference FTL: one page, one lookup and one booking at a time.

    It shares only the request plumbing, the write cache's dirty dict,
    the flusher loop, the channel clocks and the counters with
    ``SsdDevice``; all FTL state and every FTL method are its own.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ref_l2p = {}       # logical page -> physical page
        self.ref_blocks = {}    # block -> lpn per programmed slot, None once invalid
        self.ref_invalid = {}   # block -> invalidated slots (insertion-ordered)
        self.ref_candidates = 0
        self.ref_free = deque()
        self.ref_next_block = 0
        self.ref_open = None
        self.ref_waiters = []

    # -- NAND channels: every op booked alone ------------------------------------
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

    # -- host side ----------------------------------------------------------------
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
                self.ref_waiters.append(waiter)
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
            ppn = self.ref_l2p.get(lpn)
            block = lpn if ppn is None else ppn // params.pages_per_block
            end = self._charge(block % params.channels, params.read_latency)
            self.nand_reads += 1
            if done is None or end > done:
                done = end
        if hit_cache:
            yield Timeout(env, params.cache_read_latency * self.service_scale)
        if done is not None:
            yield env.timeout_at(done if done > env._now else env._now)

    def _flush_dirty(self):
        drained = list(self._dirty)
        self._dirty.clear()
        self._program(drained)
        self.flushed_pages += len(drained)
        if drained and self.trace is not None:
            self.trace.publish(self.env._now, "ssd.writeback",
                               device=self.name, pages=len(drained))
        waiters, self.ref_waiters = self.ref_waiters, []
        for waiter in waiters:
            waiter.succeed()

    # -- FTL: one page at a time ----------------------------------------------------
    def _program(self, lpns, during_gc=False):
        l2p, blocks, invalid = self.ref_l2p, self.ref_blocks, self.ref_invalid
        params = self.params
        per_block = params.pages_per_block
        for lpn in lpns:
            old = l2p.get(lpn)
            if old is not None:
                old_block, old_slot = divmod(old, per_block)
                blocks[old_block][old_slot] = None
                invalid[old_block] += 1
                if invalid[old_block] == params.gc_min_invalid:
                    self.ref_candidates += 1
            if self.ref_open is None or len(blocks[self.ref_open]) == per_block:
                self._ref_open_block(during_gc)
            block = self.ref_open
            l2p[lpn] = block * per_block + len(blocks[block])
            blocks[block].append(lpn)
            self.nand_programs += 1
            if not during_gc:
                self.host_pages += 1
            self._charge(block % params.channels, params.program_latency)

    def _ref_open_block(self, during_gc):
        if not self.ref_free and not during_gc:
            self._ref_gc()
        block = self.ref_open
        if (block is not None
                and len(self.ref_blocks[block]) < self.params.pages_per_block):
            return
        if self.ref_free:
            block = self.ref_free.popleft()
        else:
            block = self.ref_next_block
            self.ref_next_block += 1
        self.ref_open = block
        self.ref_blocks[block] = []
        self.ref_invalid[block] = 0

    def _ref_gc(self):
        params = self.params
        if not self.ref_candidates:
            return
        victim = None
        best = params.gc_min_invalid - 1
        for block, invalid in self.ref_invalid.items():
            if block != self.ref_open and invalid > best:
                best = invalid
                victim = block
        if victim is None:
            return
        moved = [lpn for lpn in self.ref_blocks[victim] if lpn is not None]
        self.gc_cycles += 1
        channel = victim % params.channels
        for lpn in moved:
            self._charge(channel, params.read_latency)
            self.nand_reads += 1
            self._program((lpn,), during_gc=True)
            self.gc_moved += 1
        self._charge(channel, params.erase_latency)
        self.nand_erases += 1
        del self.ref_blocks[victim]
        del self.ref_invalid[victim]
        self.ref_candidates -= 1
        self.ref_free.append(victim)
        if self.trace is not None:
            self.trace.publish(
                self.env._now, "ssd.gc", device=self.name, victim=victim,
                moved=len(moved), freed=params.pages_per_block - len(moved),
                write_amp=self.write_amp)

    def check_conservation(self):
        per_block = self.params.pages_per_block
        placed = 0
        for block, slots in self.ref_blocks.items():
            assert slots.count(None) == self.ref_invalid[block]
            for slot, lpn in enumerate(slots):
                if lpn is not None:
                    assert self.ref_l2p[lpn] == block * per_block + slot
                    placed += 1
        assert placed == len(self.ref_l2p)


@st.composite
def geometries(draw):
    per_block = draw(st.integers(min_value=2, max_value=8))
    return SsdParameters(
        pages_per_block=per_block,
        channels=draw(st.integers(min_value=1, max_value=3)),
        # Half the draws block several writers at once on a tiny cache.
        write_cache_pages=draw(st.one_of(st.integers(min_value=1, max_value=4),
                                         st.integers(min_value=1, max_value=16))),
        writeback_delay=draw(st.sampled_from([0.0, 1e-4, 1e-3])),
        gc_min_invalid=draw(st.integers(min_value=1, max_value=per_block)),
    )


#: Writes land on 16 logical pages (8 sectors each), so they overwrite
#: the middles of earlier extents and GC finds blocks holding pieces of
#: several.  Reads reach 16 pages past them, so a long read crosses
#: mapped, still-cached and never-written stretches of >= ``channels``
#: pages.
SECTORS = 16 * 8

WRITES = st.tuples(st.just(IoOp.WRITE),
                   st.integers(min_value=0, max_value=SECTORS - 1),
                   st.integers(min_value=1, max_value=48))
READS = st.tuples(st.just(IoOp.READ),
                  st.integers(min_value=0, max_value=2 * SECTORS - 1),
                  st.integers(min_value=1, max_value=SECTORS))

REQUESTS = st.lists(st.one_of(WRITES, WRITES, READS), min_size=1, max_size=5)

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
