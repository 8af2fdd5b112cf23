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
* pages are placed and booked in runs: a flush fills the open block's
  free slots a run at a time, and a read books each run of consecutive
  pages on one channel at once,
* writes complete at cache latency and are flushed after a coalescing
  delay by a background writeback process,
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
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

from ..iosched.base import IOScheduler
from ..sim.events import Event, Timeout
from .device import ElevatorQueue
from .request import SECTOR_SIZE, BlockRequest, IoOp
from .stats import DeviceStats

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = ["SsdParameters", "SsdDevice"]


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

        # -- FTL state (all plain dicts/deques: deterministic iteration) --
        #: logical page -> physical page (block id * pages_per_block + slot)
        self._l2p: Dict[int, int] = {}
        #: block id -> logical page per programmed slot, None once invalid
        self._blocks: Dict[int, List[Optional[int]]] = {}
        #: block id -> count of invalidated (overwritten/moved) slots
        self._invalid: Dict[int, int] = {}
        #: blocks with >= gc_min_invalid invalid slots (0: GC skips its scan)
        self._gc_candidates = 0
        self._free: Deque[int] = deque()
        self._next_block = 0
        #: the block being programmed; its next slot is len(_blocks[_open])
        self._open: Optional[int] = None

        # -- write cache: insertion-ordered dirty page set ---------------
        self._dirty: Dict[int, None] = {}
        self._cache_waiters: List[Event] = []

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
                self._cache_waiters.append(waiter)
                yield waiter
        if kick:
            self._kick_flusher()
        yield Timeout(env, self.params.cache_write_latency * self.service_scale)

    def _serve_read(self, request: BlockRequest):
        env = self.env
        params = self.params
        dirty, l2p, book = self._dirty, self._l2p, self._book
        per_block, channels = params.pages_per_block, params.channels
        latency = params.read_latency
        done: Optional[float] = None  # when the last NAND page read ends
        reads = 0
        run_channel, run = 0, 0  # consecutive NAND pages on one channel
        span = self._page_span(request)
        for lpn in span:
            if lpn in dirty:
                continue
            ppn = l2p.get(lpn)
            channel = (lpn if ppn is None else ppn // per_block) % channels
            if channel == run_channel:
                run += 1
                continue
            if run:
                end = book(run_channel, latency, run)
                if done is None or end > done:
                    done = end
                reads += run
            run_channel, run = channel, 1
        if run:
            end = book(run_channel, latency, run)
            if done is None or end > done:
                done = end
            reads += run
        self.nand_reads += reads
        if reads < len(span):
            self.cache_read_hits += len(span) - reads
            yield Timeout(env, params.cache_read_latency * self.service_scale)
        if done is not None:
            yield env.timeout_at(done if done > env._now else env._now)

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
        waiters, self._cache_waiters = self._cache_waiters, []
        for waiter in waiters:
            waiter.succeed()

    # -- FTL: mapping, allocation, GC --------------------------------------------
    def _program(self, lpns: Sequence[int], during_gc: bool = False) -> None:
        """Write ``lpns`` out-of-place, in order; invalidate old copies.

        Pages go in runs that fill the open block's free slots, each run
        placed and booked on its channel at once.  Nothing waits on a
        program, so it only books channel time.  GC (via
        ``_open_block``) re-enters here, so ``_open`` is re-read.
        """
        l2p, blocks = self._l2p, self._blocks
        params = self.params
        per_block = params.pages_per_block
        start, total = 0, len(lpns)
        while start < total:
            block = self._open
            stale = start  # first page whose old copy is still valid
            if block is None or len(blocks[block]) == per_block:
                # The page that opens a block drops its old copy first:
                # the GC that allocation may run reads the counts.
                self._invalidate(lpns[start:start + 1])
                stale += 1
                block = self._open_block(during_gc)
            slots = blocks[block]
            stop = min(total, start + per_block - len(slots))
            self._invalidate(lpns[stale:stop])
            run = lpns[start:stop]
            ppn = block * per_block + len(slots)
            slots.extend(run)
            l2p.update(zip(run, range(ppn, ppn + len(run))))
            # Both counters move together, so write_amp never reads < 1.
            self.nand_programs += len(run)
            if not during_gc:
                self.host_pages += len(run)
            self._book(block % params.channels, params.program_latency,
                       len(run))
            start = stop

    def _invalidate(self, lpns: Sequence[int]) -> None:
        """Mark the NAND copies ``lpns`` map to as invalid."""
        l2p = self._l2p
        if l2p.keys().isdisjoint(lpns):
            return  # all fresh pages: the common, append-only case
        blocks, invalid = self._blocks, self._invalid
        per_block = self.params.pages_per_block
        for lpn in lpns:
            ppn = l2p.get(lpn)
            if ppn is None:
                continue
            block, slot = divmod(ppn, per_block)
            blocks[block][slot] = None
            invalid[block] += 1
            if invalid[block] == self.params.gc_min_invalid:
                self._gc_candidates += 1

    def _open_block(self, during_gc: bool) -> int:
        """Make a block with a free slot the open one; return it.

        Called when the open block is full or none is open yet.  With no
        free block left, a host write runs GC first.  GC's moves open a
        block of their own, and programming goes on there while it has
        free slots; the erased victim waits in the free list.
        """
        if not self._free and not during_gc:
            self._gc_if_worthwhile()
        block = self._open
        if (block is not None
                and len(self._blocks[block]) < self.params.pages_per_block):
            return block
        if self._free:
            block = self._free.popleft()
        else:
            block = self._next_block
            self._next_block += 1
        self._open = block
        self._blocks[block] = []
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
        moved = [lpn for lpn in self._blocks[victim] if lpn is not None]
        self.gc_cycles += 1
        victim_channel = victim % self.params.channels
        # Per page read then program: both may land on one channel, and
        # float sums there depend on booking order.
        for lpn in moved:
            self._book(victim_channel, self.params.read_latency, 1)
            self.nand_reads += 1
            self._program((lpn,), during_gc=True)
            self.gc_moved += 1
        self._book(victim_channel, self.params.erase_latency, 1)
        self.nand_erases += 1
        del self._blocks[victim]
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
        """Every mapped logical page lives in exactly one valid slot, and
        every block's invalid count (what GC ranks by) matches its slots."""
        per_block = self.params.pages_per_block
        placed = 0
        for block, slots in self._blocks.items():
            if slots.count(None) != self._invalid[block]:
                raise AssertionError(
                    f"block {block} has {slots.count(None)} invalid slots "
                    f"but counts {self._invalid[block]}"
                )
            for slot, lpn in enumerate(slots):
                if lpn is None:
                    continue
                if self._l2p.get(lpn) != block * per_block + slot:
                    raise AssertionError(
                        f"lpn {lpn} valid in block {block} slot {slot} but "
                        f"mapped to {self._l2p.get(lpn)}"
                    )
                placed += 1
        if placed != len(self._l2p):
            raise AssertionError(
                f"{len(self._l2p)} mapped pages but {placed} valid slots"
            )

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
