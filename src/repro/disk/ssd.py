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

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

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
        switch_control_latency: float = 0.050,
    ):
        self.params = params or SsdParameters()
        self.stats = stats or DeviceStats()
        #: Fault-injection knobs, same semantics as :class:`DiskDevice`.
        self.service_scale = 1.0
        self.extra_latency = 0.0
        self._in_flight = 0

        # -- FTL state (all plain dicts/deques: deterministic iteration) --
        #: logical page -> (block id, slot in block)
        self._l2p: Dict[int, Tuple[int, int]] = {}
        #: block id -> {slot: logical page} (valid pages only)
        self._blocks: Dict[int, Dict[int, int]] = {}
        #: block id -> count of invalidated (overwritten/moved) slots
        self._invalid: Dict[int, int] = {}
        #: blocks with >= gc_min_invalid invalid slots (0: GC skips its scan)
        self._gc_candidates = 0
        self._free: Deque[int] = deque()
        self._next_block = 0
        self._open: Optional[int] = None
        self._open_next = 0

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

        super().__init__(env, scheduler, name, trace, switch_control_latency)

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
        kick = False  # kick the flusher once per run, before yielding
        for lpn in self._page_span(request):
            while lpn not in dirty and len(dirty) >= capacity:
                if kick:
                    self._kick_flusher()
                    kick = False
                waiter = Event(env)
                self._cache_waiters.append(waiter)
                yield waiter
            if lpn in dirty:
                # Re-written before flush: coalesced, no extra NAND work.
                self.cache_coalesced += 1
            else:
                dirty[lpn] = None
                kick = True
        if kick:
            self._kick_flusher()
        yield Timeout(env, self.params.cache_write_latency * self.service_scale)

    def _serve_read(self, request: BlockRequest):
        env = self.env
        params = self.params
        done: Optional[float] = None  # when the last NAND page read ends
        hit_cache = False
        for lpn in self._page_span(request):
            if lpn in self._dirty:
                hit_cache = True
                self.cache_read_hits += 1
                continue
            mapped = self._l2p.get(lpn)
            channel = (mapped[0] if mapped is not None else lpn) \
                % params.channels
            end = self._charge(channel, params.read_latency)
            self.nand_reads += 1
            if done is None or end > done:
                done = end
        if hit_cache:
            yield Timeout(env, params.cache_read_latency * self.service_scale)
        if done is not None:
            yield env.timeout_at(done if done > env._now else env._now)

    # -- NAND channels -----------------------------------------------------------
    def _charge(self, channel: int, latency: float) -> float:
        """Book one NAND op on ``channel`` (FIFO, at the ``service_scale``
        in force now); return when it ends."""
        now = self.env._now
        busy = self._chan_busy[channel]
        end = (busy if busy > now else now) + latency * self.service_scale
        self._chan_busy[channel] = end
        if self.trace is not None:
            self.trace.publish(now, "ssd.channel", device=self.name,
                               channel=channel, backlog=end - now)
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

        Nothing waits on a program, so it only books channel time.  GC
        (via ``_alloc_block``) re-enters here, so ``_open`` is re-read.
        """
        l2p, blocks, invalid = self._l2p, self._blocks, self._invalid
        params, charge = self.params, self._charge
        for lpn in lpns:
            if not during_gc:
                self.host_pages += 1
            old = l2p.get(lpn)
            if old is not None:
                old_block, old_slot = old
                valid = blocks.get(old_block)
                if valid is not None and valid.get(old_slot) == lpn:
                    del valid[old_slot]
                    invalid[old_block] += 1
                    if invalid[old_block] == params.gc_min_invalid:
                        self._gc_candidates += 1
            if self._open is None or self._open_next >= params.pages_per_block:
                self._open = self._alloc_block(during_gc)
                self._open_next = 0
                blocks[self._open] = {}
                invalid[self._open] = 0
            block, slot = self._open, self._open_next
            self._open_next += 1
            blocks[block][slot] = lpn
            l2p[lpn] = (block, slot)
            self.nand_programs += 1
            charge(block % params.channels, params.program_latency)

    def _alloc_block(self, during_gc: bool) -> int:
        if not self._free and not during_gc:
            self._gc_if_worthwhile()
        if self._free:
            return self._free.popleft()
        block = self._next_block
        self._next_block += 1
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
        moved = list(self._blocks[victim].items())
        self.gc_cycles += 1
        victim_channel = victim % self.params.channels
        # Per page read then program: both may land on one channel, and
        # float sums there depend on booking order.
        for _slot, lpn in moved:
            self._charge(victim_channel, self.params.read_latency)
            self.nand_reads += 1
            self._program((lpn,), during_gc=True)
            self.gc_moved += 1
        self._charge(victim_channel, self.params.erase_latency)
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
        """Every mapped logical page lives in exactly one valid slot."""
        placed = 0
        for block, valid in self._blocks.items():
            for slot, lpn in valid.items():
                if self._l2p.get(lpn) != (block, slot):
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
