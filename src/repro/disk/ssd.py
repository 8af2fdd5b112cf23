"""FTL-based SSD device behind the :class:`ElevatorQueue` contract.

The paper's elevator effects are born from a single spindle whose
service time is dominated by seeks.  A flash device has no moving
parts; what it has instead is a *flash translation layer*: host writes
land in an on-device write cache, are coalesced, and are flushed
out-of-place onto NAND pages spread across parallel channels.  Erase
granularity (blocks) being much larger than write granularity (pages)
forces garbage collection — relocating still-valid pages out of a
victim block before erasing it — which multiplies every host write by
the measured *write amplification*.

The device keeps the queueing contract of :class:`DiskDevice` (same
``submit``/``switch_scheduler``/``pause`` surface, same ``disk.*``
trace topics, same fault knobs ``service_scale``/``extra_latency``)
so every layer above — guests, Dom0 elevators, the switch protocol,
fault injection — works unchanged.  What changes is the service path:

* requests dispatch NCQ-style (up to ``ncq_depth`` outstanding),
* page reads/programs queue FIFO on the owning NAND channel
  (channel = physical block id mod ``channels``), kept as a busy-until
  time: booking is arithmetic; only a waited-on read schedules a wake-up,
* the mapping is kept in extents: the L2P is a sorted list of
  ``(lpn, ppn, length)`` runs and the P2L one array over physical
  pages, so memory grows with extents and blocks, not with pages,
* pages are placed and booked in runs: a flush fills the open block's
  free slots a run at a time, and a read books each channel once,
* writes complete at cache latency and are flushed after a coalescing
  delay by a background writeback process; one event per flush resumes
  the writers the full cache blocked,
* allocation failure triggers greedy GC: the sealed block with the
  most invalid pages is relocated and erased.

Everything is deterministic — no RNG is consumed; the ``rng`` the
storage-backend factory offers is accepted and unused, so hybrid
clusters keep per-host stream assignment identical to all-HDD ones.

Additional ``ssd.*`` trace topics (GC cycles, writeback flushes,
channel occupancy) are registered in :mod:`repro.obs.topics`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import (TYPE_CHECKING, Deque, Dict, Iterator, List, Optional,
                    Tuple)

from ..iosched.base import IOScheduler
from ..sim.events import Event, Timeout
from .device import ElevatorQueue
from .request import SECTOR_SIZE, BlockRequest, IoOp
from .stats import DeviceStats

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = ["SsdParameters", "SsdDevice"]

#: An L2P extent: logical pages ``lpn .. lpn + length - 1`` live on
#: physical pages ``ppn .. ppn + length - 1``.
Extent = Tuple[int, int, int]
_LPN = itemgetter(0)


def _stretches(pages: List[int]) -> List[Tuple[int, int]]:
    """``(first, count)`` of each run of consecutive pages, in order."""
    if not pages:
        return []
    first = pages[0]
    # The sequential case is the common one; the comparison runs in C.
    if pages == list(range(first, first + len(pages))):
        return [(first, len(pages))]
    out = []
    count = 1
    for page in pages[1:]:
        if page == first + count:
            count += 1
        else:
            out.append((first, count))
            first, count = page, 1
    out.append((first, count))
    return out


@dataclass(frozen=True)
class SsdParameters:
    """Timing and geometry of the modelled flash device.

    Defaults sketch a mid-range SATA SSD: 8 channels of NAND with
    ~60 µs page reads and ~200 µs page programs (≈0.5 GB/s read,
    ≈160 MB/s sustained program bandwidth), a 2 ms block erase, and a
    1 MiB on-device write cache flushed after a 10 ms coalescing
    window.  All fields are canonical-friendly scalars so the
    parameters can ride inside :class:`~repro.virt.cluster.ClusterConfig`
    and therefore inside sweep cache keys.
    """

    page_bytes: int = 4096
    pages_per_block: int = 64
    channels: int = 8
    #: NAND latencies (seconds): page read / page program / block erase.
    read_latency: float = 60e-6
    program_latency: float = 200e-6
    erase_latency: float = 2e-3
    #: Write-cache service latencies (seconds) for hits/absorbed writes.
    cache_read_latency: float = 15e-6
    cache_write_latency: float = 25e-6
    #: Write-cache capacity in pages; full = host writes backpressure.
    write_cache_pages: int = 256
    #: Coalescing window before dirty cache pages flush to NAND.
    writeback_delay: float = 0.010
    #: Greedy GC only fires on victims with at least this many invalid
    #: pages (reclaiming nearly-full blocks would thrash).
    gc_min_invalid: int = 16
    #: Native command queueing depth (outstanding requests).
    ncq_depth: int = 32

    def __post_init__(self) -> None:
        # Slot and cache arithmetic slices and indexes by these.
        for name in ("page_bytes", "pages_per_block", "channels",
                     "write_cache_pages", "gc_min_invalid", "ncq_depth"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        # NaN fails ``0 <= x``; a negative or NaN latency would also
        # make booking a run differ from booking its pages one by one.
        for name in ("read_latency", "program_latency", "erase_latency",
                     "cache_read_latency", "cache_write_latency",
                     "writeback_delay"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be a finite number >= 0, got {value}")
        if self.page_bytes % SECTOR_SIZE != 0:
            raise ValueError("page_bytes must be a multiple of 512")
        if self.pages_per_block < 2:
            raise ValueError("pages_per_block must be >= 2")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.write_cache_pages < 1:
            raise ValueError("write_cache_pages must be >= 1")
        if not 1 <= self.gc_min_invalid <= self.pages_per_block:
            raise ValueError("gc_min_invalid must be in [1, pages_per_block]")
        if self.ncq_depth < 1:
            raise ValueError("ncq_depth must be >= 1")


class SsdDevice(ElevatorQueue):
    """A multi-channel FTL SSD with write cache and greedy GC."""

    kind = "ssd"

    def __init__(
        self,
        env: "Environment",
        scheduler: IOScheduler,
        params: Optional[SsdParameters] = None,
        name: str = "nvme0",
        trace: Optional["TraceBus"] = None,
        stats: Optional[DeviceStats] = None,
    ):
        self.params = params or SsdParameters()
        self.stats = stats or DeviceStats()
        #: Fault-injection knobs, same semantics as :class:`DiskDevice`.
        self.service_scale = 1.0
        self.extra_latency = 0.0
        self._in_flight = 0

        # -- FTL state (all plain lists/dicts: deterministic iteration) --
        #: L2P: non-overlapping extents sorted by logical page; a
        #: physical page number is block id * pages_per_block + slot
        self._l2p: List[Extent] = []
        #: P2L: physical page -> its logical page, -1 once invalidated
        #: (and before it is programmed); grows a block at a time
        self._p2l = array("q")
        #: block id -> slots programmed; len(_fill) block ids are in use
        self._fill: List[int] = []
        #: block in service -> count of invalidated (overwritten/moved)
        #: slots; insertion-ordered, which breaks GC's victim ties
        self._invalid: Dict[int, int] = {}
        #: blocks with >= gc_min_invalid invalid slots (0: GC skips its scan)
        self._gc_candidates = 0
        self._free: Deque[int] = deque()
        #: the block being programmed; its next slot is _fill[_open]
        self._open: Optional[int] = None

        # -- write cache: insertion-ordered dirty page set ---------------
        self._dirty: Dict[int, None] = {}
        #: writers the full cache blocked: (page each waits to place, its
        #: wake-up), in blocking order
        self._cache_waiters: List[Tuple[int, Event]] = []

        # -- counters ----------------------------------------------------
        self.host_pages = 0       # pages flushed from cache to NAND
        self.nand_programs = 0    # host flushes + GC relocations
        self.nand_reads = 0
        self.nand_erases = 0
        self.gc_cycles = 0
        self.gc_moved = 0
        self.flushed_pages = 0
        self.cache_coalesced = 0  # re-dirtied pages absorbed in cache
        self.cache_read_hits = 0

        super().__init__(env, scheduler, name, trace)

        #: per NAND channel: time its last booked operation finishes
        self._chan_busy: List[float] = [0.0] * self.params.channels
        self._flush_wake: Event = env.event()
        env.process(self._flusher())

    # -- ElevatorQueue hooks -----------------------------------------------------
    def _outstanding(self) -> int:
        return self._in_flight

    @property
    def _can_dispatch(self) -> bool:
        return self._in_flight < self.params.ncq_depth

    def _serve(self, request: BlockRequest):
        """Admit NCQ-style; the per-request process does the real work."""
        self._in_flight += 1
        request.dispatch_time = self.env._now
        self.env.process(self._request_proc(request))
        return ()  # nothing to yield: dispatch continues immediately

    # -- request service ---------------------------------------------------------
    def _page_span(self, request: BlockRequest) -> range:
        first = (request.lba * SECTOR_SIZE) // self.params.page_bytes
        last = (request.end_lba * SECTOR_SIZE - 1) // self.params.page_bytes
        return range(first, last + 1)

    def _request_proc(self, request: BlockRequest):
        env = self.env
        t0 = env._now
        if request.op is IoOp.WRITE:
            yield from self._serve_write(request)
        else:
            yield from self._serve_read(request)
        if self.extra_latency > 0.0:
            yield Timeout(env, self.extra_latency)
        self._in_flight -= 1
        service_time = env._now - t0
        request.complete_time = env._now  # stats need it before _completed
        if self.trace is not None:
            # No mechanical split on flash: the whole service time is
            # "transfer" (cache + channel queueing + NAND latency).
            self.trace.publish(
                env.now,
                "disk.service",
                device=self.name,
                rid=request.rid,
                op=request.op.value,
                service=service_time,
                seek=0.0,
                rotation=0.0,
                transfer=service_time,
            )
        self.stats.on_complete(request, service_time)
        self._completed(request)

    def _serve_write(self, request: BlockRequest):
        """Absorb into the write cache (backpressure when full)."""
        env = self.env
        dirty, capacity = self._dirty, self.params.write_cache_pages
        span = self._page_span(request)
        kick = False  # kick the flusher once per run, before yielding
        pos = 0
        while pos < len(span):
            room = capacity - len(dirty)
            if room > 0:
                # The next ``room`` pages hold at most ``room`` new ones,
                # so none of them can find the cache full.
                head = span[pos:pos + room]
                cached = len(dirty)
                dirty.update(dict.fromkeys(head))
                added = len(dirty) - cached
                # Re-written before flush: coalesced, no extra NAND work.
                self.cache_coalesced += len(head) - added
                kick = kick or added > 0
                pos += len(head)
            elif span[pos] in dirty:
                self.cache_coalesced += 1
                pos += 1
            else:
                if kick:
                    self._kick_flusher()
                    kick = False
                waiter = Event(env)
                self._cache_waiters.append((span[pos], waiter))
                yield waiter
        if kick:
            self._kick_flusher()
        yield Timeout(env, self.params.cache_write_latency * self.service_scale)

    def _serve_read(self, request: BlockRequest):
        """Read the uncached pages from NAND, booking each channel once.

        A channel's clock only adds, one step per page, and channels are
        independent, so each channel ends, and the read's last page ends,
        where booking the pages one at a time would.  With a trace bus
        the pages are booked in page order, as that publishes them.
        """
        env = self.env
        params = self.params
        per_block, channels = params.pages_per_block, params.channels
        latency = params.read_latency
        span = self._page_span(request)
        dirty = self._dirty
        if dirty and not dirty.keys().isdisjoint(span):
            stretches = _stretches([lpn for lpn in span if lpn not in dirty])
        else:
            stretches = [(span.start, len(span))]
        ends: List[float] = []  # when each booking's last page read ends
        if self.trace is None:
            counts = [0] * channels
            for first, count in stretches:
                for lpn, n, ppn in self._segments(first, first + count):
                    if ppn is not None:
                        counts[ppn // per_block % channels] += n
                        continue
                    # Never written: page lpn reads on lpn % channels.
                    whole, part = divmod(n, channels)
                    if whole:
                        counts = [c + whole for c in counts]
                    for page in range(lpn, lpn + part):
                        counts[page % channels] += 1
            ends = [self._book(channel, latency, n)
                    for channel, n in enumerate(counts) if n]
        else:
            for first, count in stretches:
                for lpn, n, ppn in self._segments(first, first + count):
                    if ppn is not None:
                        ends.append(self._book(ppn // per_block % channels,
                                               latency, n))
                    else:
                        ends += [self._book(page % channels, latency, 1)
                                 for page in range(lpn, lpn + n)]
        reads = sum(count for _, count in stretches)
        self.nand_reads += reads
        if reads < len(span):
            self.cache_read_hits += len(span) - reads
            yield Timeout(env, params.cache_read_latency * self.service_scale)
        if ends:
            done = max(ends)
            yield env.timeout_at(done if done > env._now else env._now)

    def _segments(self, lo: int,
                  hi: int) -> Iterator[Tuple[int, int, Optional[int]]]:
        """Cut logical pages ``lo .. hi - 1`` into ``(lpn, count, ppn)``
        segments, in page order: each mapped one lies in one block, and
        ``ppn`` is None for a stretch never written."""
        l2p = self._l2p
        per_block = self.params.pages_per_block
        k = bisect_right(l2p, lo, key=_LPN) - 1
        if k < 0 or l2p[k][0] + l2p[k][2] <= lo:
            k += 1  # lo is unmapped: start at the next extent
        while lo < hi:
            if k < len(l2p) and l2p[k][0] <= lo:
                first, ppn, length = l2p[k]
                end = min(hi, first + length)
                ppn += lo - first
                while lo < end:
                    n = min(end - lo, per_block - ppn % per_block)
                    yield lo, n, ppn
                    lo += n
                    ppn += n
                k += 1
            else:
                end = min(hi, l2p[k][0]) if k < len(l2p) else hi
                yield lo, end - lo, None
                lo = end

    # -- NAND channels -----------------------------------------------------------
    def _book(self, channel: int, latency: float, count: int) -> float:
        """Book ``count`` back-to-back NAND ops on ``channel`` (FIFO, at
        the ``service_scale`` in force now); return when the last ends.

        The ends are summed one op at a time, as booking each op alone
        would (``count * step`` can round differently).
        """
        now = self.env._now
        busy = self._chan_busy[channel]
        end = busy if busy > now else now
        step = latency * self.service_scale
        trace = self.trace
        if trace is None:
            for _ in range(count):
                end += step
        else:
            for _ in range(count):
                end += step
                trace.publish(now, "ssd.channel", device=self.name,
                              channel=channel, backlog=end - now)
        self._chan_busy[channel] = end
        return end

    # -- write cache flushing ----------------------------------------------------
    def _kick_flusher(self) -> None:
        wake = self._flush_wake
        if not wake.triggered:
            wake.succeed()

    def _flusher(self):
        env = self.env
        while True:
            if not self._dirty:
                self._flush_wake = Event(env)
                yield self._flush_wake
                continue
            # Coalescing window: everything dirtied meanwhile flushes in
            # one pass, in first-dirtied order.
            yield Timeout(env, self.params.writeback_delay)
            self._flush_dirty()

    def _flush_dirty(self) -> None:
        drained = list(self._dirty)
        self._dirty.clear()
        self._program(drained)
        self.flushed_pages += len(drained)
        if drained and self.trace is not None:
            self.trace.publish(
                self.env._now,
                "ssd.writeback",
                device=self.name,
                pages=len(drained),
            )
        # The writers blocked now, not when the wake runs: a write
        # dispatched in between starts on an URGENT event, so it blocks
        # behind them, as it would behind one wake-up each.
        waiters, self._cache_waiters = self._cache_waiters, []
        if waiters:
            wake = Event(self.env)
            wake.callbacks.append(self._wake_writers)
            wake.succeed(waiters)

    def _wake_writers(self, wake: Event) -> None:
        """Resume, in blocking order, each writer the flush made room for.

        One event stands in for a wake-up per writer: those would be
        consecutive ``NORMAL`` events, and a resumed writer schedules
        only ``NORMAL`` events, so nothing could run between them.  A
        writer still blocked (cache full, its page not cached) stays
        queued, in order, without being resumed.
        """
        dirty, capacity = self._dirty, self.params.write_cache_pages
        for lpn, waiter in wake.value:
            if len(dirty) < capacity or lpn in dirty:
                # Process the waiter here, as popping it would have.
                waiter._value = None
                callbacks, waiter.callbacks = waiter.callbacks, None
                for callback in callbacks:
                    callback(waiter)
            else:
                self._cache_waiters.append((lpn, waiter))

    # -- FTL: mapping, allocation, GC --------------------------------------------
    def _program(self, lpns: List[int], during_gc: bool = False) -> None:
        """Write ``lpns`` out-of-place, in order; invalidate old copies.

        Pages go in runs that fill the open block's free slots, each run
        placed, mapped and booked on its channel at once.  Nothing waits
        on a program, so it only books channel time.  GC (via
        ``_open_block``) re-enters here, so ``_open`` is re-read.
        """
        fill, p2l = self._fill, self._p2l
        params = self.params
        per_block = params.pages_per_block
        start, total = 0, len(lpns)
        while start < total:
            block = self._open
            if block is None or fill[block] == per_block:
                # The page that opens a block drops its old copy first:
                # the GC that allocation may run reads the counts.  GC
                # moves only valid pages, so it leaves that page unmapped.
                self._unmap([(lpns[start], 1)])
                block = self._open_block(during_gc)
            slot = fill[block]
            stop = min(total, start + per_block - slot)
            run = lpns[start:stop]
            stretches = _stretches(run)
            self._unmap(stretches)
            ppn = block * per_block + slot
            p2l[ppn:ppn + len(run)] = array("q", run)
            fill[block] = slot + len(run)
            self._map(stretches, ppn)
            # Both counters move together, so write_amp never reads < 1.
            self.nand_programs += len(run)
            if not during_gc:
                self.host_pages += len(run)
            self._book(block % params.channels, params.program_latency,
                       len(run))
            start = stop

    def _map(self, stretches: List[Tuple[int, int]], ppn: int) -> None:
        """Map the unmapped ``(first, count)`` page stretches to consecutive
        physical pages from ``ppn``; an extent that continues the one
        before it in both extends it."""
        l2p = self._l2p
        for first, count in stretches:
            k = bisect_left(l2p, first, key=_LPN)
            if k:
                lpn, start, length = l2p[k - 1]
                if lpn + length == first and start + length == ppn:
                    l2p[k - 1] = (lpn, start, length + count)
                    ppn += count
                    continue
            l2p.insert(k, (first, ppn, count))
            ppn += count

    def _unmap(self, stretches: List[Tuple[int, int]]) -> None:
        """Drop the mappings of the ``(first, count)`` page stretches and
        invalidate their NAND copies, trimming or splitting the extents
        they hit."""
        l2p = self._l2p
        for lo, count in stretches:
            hi = lo + count
            j = bisect_left(l2p, hi, key=_LPN)  # extents from j start >= hi
            if not j or l2p[j - 1][0] + l2p[j - 1][2] <= lo:
                continue  # nothing mapped: the common, append-only case
            i = bisect_right(l2p, lo, key=_LPN) - 1
            if i < 0 or l2p[i][0] + l2p[i][2] <= lo:
                i += 1
            kept: List[Extent] = []
            for lpn, ppn, length in l2p[i:j]:
                a, b = max(lpn, lo), min(lpn + length, hi)
                self._invalidate(ppn + a - lpn, b - a)
                if lpn < lo:
                    kept.append((lpn, ppn, lo - lpn))
                if lpn + length > hi:
                    kept.append((hi, ppn + hi - lpn, lpn + length - hi))
            l2p[i:j] = kept

    def _invalidate(self, ppn: int, count: int) -> None:
        """Mark ``count`` NAND pages from ``ppn`` on invalid."""
        per_block = self.params.pages_per_block
        threshold = self.params.gc_min_invalid
        invalid = self._invalid
        self._p2l[ppn:ppn + count] = array("q", [-1]) * count
        end = ppn + count
        while ppn < end:
            block = ppn // per_block
            n = min(end, (block + 1) * per_block) - ppn
            before = invalid[block]
            invalid[block] = before + n
            if before < threshold <= before + n:
                self._gc_candidates += 1
            ppn += n

    def _open_block(self, during_gc: bool) -> int:
        """Make a block with a free slot the open one; return it.

        Called when the open block is full or none is open yet.  With no
        free block left, a host write runs GC first.  GC's moves open a
        block of their own, and programming goes on there while it has
        free slots; the erased victim waits in the free list.
        """
        if not self._free and not during_gc:
            self._gc_if_worthwhile()
        per_block = self.params.pages_per_block
        block = self._open
        if block is not None and self._fill[block] < per_block:
            return block
        if self._free:
            block = self._free.popleft()
        else:
            block = len(self._fill)
            self._fill.append(0)
            self._p2l.extend(array("q", [-1]) * per_block)
        self._open = block
        self._invalid[block] = 0
        return block

    def _gc_if_worthwhile(self) -> None:
        """Greedy GC: erase the sealed block with the most invalid pages."""
        if not self._gc_candidates:
            return  # no block is worth collecting: skip the scan
        victim = None
        best = self.params.gc_min_invalid - 1
        for block, invalid in self._invalid.items():
            if block == self._open:
                continue
            if invalid > best:
                best = invalid
                victim = block
        if victim is None:
            return
        first = victim * self.params.pages_per_block
        moved = [lpn for lpn in self._p2l[first:first + self._fill[victim]]
                 if lpn >= 0]
        self.gc_cycles += 1
        victim_channel = victim % self.params.channels
        # Per page read then program: both may land on one channel, and
        # float sums there depend on booking order.
        for lpn in moved:
            self._book(victim_channel, self.params.read_latency, 1)
            self.nand_reads += 1
            self._program([lpn], during_gc=True)
            self.gc_moved += 1
        self._book(victim_channel, self.params.erase_latency, 1)
        self.nand_erases += 1
        # The moves invalidated every slot, so the erased block is blank.
        self._fill[victim] = 0
        del self._invalid[victim]
        self._gc_candidates -= 1
        self._free.append(victim)
        if self.trace is not None:
            self.trace.publish(
                self.env._now,
                "ssd.gc",
                device=self.name,
                victim=victim,
                moved=len(moved),
                freed=self.params.pages_per_block - len(moved),
                write_amp=self.write_amp,
            )

    # -- accounting --------------------------------------------------------------
    @property
    def write_amp(self) -> float:
        """NAND programs per host page flushed (>= 1 once anything flushed)."""
        if self.host_pages == 0:
            return 1.0
        return self.nand_programs / self.host_pages

    def check_conservation(self) -> None:
        """The extents are sorted, non-empty and non-overlapping; every
        mapped logical page lives in its P2L slot, and no other slot is
        valid; every block's invalid count (what GC ranks by) is right."""
        per_block = self.params.pages_per_block
        p2l = self._p2l
        mapped, end = 0, None
        for lpn, ppn, length in self._l2p:
            if length < 1 or (end is not None and lpn < end):
                raise AssertionError(
                    f"extent {(lpn, ppn, length)} is empty or overlaps "
                    f"the extent before it (which ends at lpn {end})")
            slots = p2l[ppn:ppn + length].tolist()
            if slots != list(range(lpn, lpn + length)):
                raise AssertionError(
                    f"extent {(lpn, ppn, length)} maps to slots holding "
                    f"{slots}")
            mapped += length
            end = lpn + length
        valid = 0
        for block, invalid in self._invalid.items():
            first = block * per_block
            holes = p2l[first:first + self._fill[block]].count(-1)
            if holes != invalid:
                raise AssertionError(
                    f"block {block} has {holes} invalid slots but counts "
                    f"{invalid}")
            valid += self._fill[block] - holes
        if valid != mapped:
            raise AssertionError(
                f"{mapped} mapped pages but {valid} valid slots")

    def storage_stats(self) -> Dict[str, object]:
        """JSON-able FTL counters for run payloads and reports."""
        return {
            "kind": self.kind,
            "host_pages": self.host_pages,
            "nand_programs": self.nand_programs,
            "nand_reads": self.nand_reads,
            "nand_erases": self.nand_erases,
            "gc_cycles": self.gc_cycles,
            "gc_moved_pages": self.gc_moved,
            "flushed_pages": self.flushed_pages,
            "cache_coalesced": self.cache_coalesced,
            "cache_read_hits": self.cache_read_hits,
            "write_amp": self.write_amp,
        }
