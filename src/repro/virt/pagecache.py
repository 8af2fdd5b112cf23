"""Guest page cache and writeback daemon.

The page cache is what turns application file I/O into the block-level
patterns the elevators arbitrate:

* **Reads** miss the cache and become *synchronous* requests issued one
  readahead window at a time — the reader blocks per request, which is
  what creates the deceptive-idleness dynamic anticipatory scheduling
  exploits.
* **Buffered writes** dirty cache chunks instantly; a writeback daemon
  later flushes them as *asynchronous* requests in large batches (the
  mixed sync/async workload the paper observes mid-job).
* **fsync / sync writes** flush immediately as synchronous writes.

Residency is tracked at chunk granularity with LRU eviction; evicting a
dirty chunk forces it out as an async write first.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple

from ..disk.request import SECTOR_SIZE, BlockRequest, IoOp
from ..sim.events import AllOf, AnyOf, Event
from .fs import GuestFile
from .vdisk import VirtualBlockDevice

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = ["PageCache", "PageCacheParams"]

#: Cache/dirty tracking granularity.
CHUNK_BYTES = 1024 * 1024
#: Largest read issued by readahead and largest write issued by the
#: flusher.
REQUEST_BYTES = 512 * 1024
_REQUEST_SECTORS = REQUEST_BYTES // SECTOR_SIZE
#: Periodic flusher wakeup (pdflush's 5 s default).
WRITEBACK_INTERVAL = 5.0
#: Max flusher requests in flight before it throttles itself.  Small
#: values pace the flusher against device completions, interleaving
#: the VMs' writeback streams at the hypervisor like real pdflush
#: (each unplug dispatches a few requests, then waits).
WRITEBACK_INFLIGHT = 4


@dataclass(frozen=True)
class PageCacheParams:
    """Sizing knobs (defaults ≈ a 1 GB RHEL5 guest)."""

    #: Total cache capacity in bytes (~60% of a 1 GB guest).
    capacity_bytes: int = 600 * 1024 * 1024
    #: Start background writeback beyond this many dirty bytes.
    dirty_background_bytes: int = 32 * 1024 * 1024
    #: Throttle writers beyond this many dirty bytes.
    dirty_limit_bytes: int = 128 * 1024 * 1024

    def __post_init__(self) -> None:
        if min(
            self.capacity_bytes,
            self.dirty_background_bytes,
            self.dirty_limit_bytes,
        ) <= 0:
            raise ValueError("all sizes must be positive")
        if self.dirty_limit_bytes < self.dirty_background_bytes:
            raise ValueError("dirty_limit must be >= dirty_background")


class PageCache:
    """Per-VM page cache over one virtual block device."""

    def __init__(
        self,
        env: "Environment",
        vdisk: VirtualBlockDevice,
        params: Optional[PageCacheParams] = None,
        name: str = "pagecache",
    ):
        self.env = env
        self.vdisk = vdisk
        self.params = params or PageCacheParams()
        self.name = name
        self._max_chunks = max(1, self.params.capacity_bytes // CHUNK_BYTES)
        #: (file_name, chunk_idx) -> dirty flag; OrderedDict as LRU.
        self._resident: "OrderedDict[Tuple[str, int], bool]" = OrderedDict()
        #: Dirty chunks in dirtying order; maps key -> GuestFile.
        self._dirty: "OrderedDict[Tuple[str, int], GuestFile]" = OrderedDict()
        self._throttle_waiters: List[Event] = []
        self._wb_kick: Event = env.event()
        self._wb_inflight: Deque[Event] = deque()
        self._writeback_proc = env.process(self._writeback_daemon())
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.bytes_read_disk = 0
        self.bytes_written_disk = 0
        self.throttle_events = 0

    # -- sizing ------------------------------------------------------------------
    @property
    def dirty_bytes(self) -> int:
        return len(self._dirty) * CHUNK_BYTES

    @property
    def resident_bytes(self) -> int:
        return len(self._resident) * CHUNK_BYTES

    # -- public API: all methods are process generators ----------------------------
    def read(self, file: GuestFile, offset: int, length: int, pid: Any):
        """Read ``length`` bytes; blocks per missing readahead window."""
        self._check_range(file, offset, length)
        if length == 0:
            return
        first = offset // CHUNK_BYTES
        last = (offset + length - 1) // CHUNK_BYTES
        run_start: Optional[int] = None
        for idx in range(first, last + 1):
            key = (file.name, idx)
            if key in self._resident:
                self.hits += 1
                self._resident.move_to_end(key)
                if run_start is not None:
                    yield from self._read_chunks(file, run_start, idx - 1, pid)
                    run_start = None
            else:
                self.misses += 1
                if run_start is None:
                    run_start = idx
        if run_start is not None:
            yield from self._read_chunks(file, run_start, last, pid)

    def write(self, file: GuestFile, offset: int, length: int, pid: Any,
              sync: bool = False):
        """Write ``length`` bytes (buffered unless ``sync``)."""
        self._check_range(file, offset, length)
        if length == 0:
            return
        first = offset // CHUNK_BYTES
        last = (offset + length - 1) // CHUNK_BYTES

        if sync:
            events = []
            for idx in range(first, last + 1):
                self._insert(file, idx, dirty=False)
                events.extend(
                    self._submit_chunk_io(file, idx, IoOp.WRITE, pid, sync=True)
                )
            if events:
                yield AllOf(self.env, events)
            return

        for idx in range(first, last + 1):
            self._insert(file, idx, dirty=True)
        if self.dirty_bytes > self.params.dirty_background_bytes:
            self._kick_writeback()
        # Dirty throttling: the writer sleeps until the flusher catches up.
        while self.dirty_bytes > self.params.dirty_limit_bytes:
            self.throttle_events += 1
            self._kick_writeback()
            waiter = self.env.event()
            self._throttle_waiters.append(waiter)
            yield waiter

    def fsync(self, file: GuestFile, pid: Any):
        """Flush all of ``file``'s dirty chunks synchronously."""
        keys = [k for k in self._dirty if k[0] == file.name]
        events = []
        for key in keys:
            del self._dirty[key]
            if key in self._resident:
                self._resident[key] = False
            events.extend(
                self._submit_chunk_io(file, key[1], IoOp.WRITE, pid, sync=True)
            )
        self._wake_throttled()
        if events:
            yield AllOf(self.env, events)

    def drop(self, file: Optional[GuestFile] = None) -> None:
        """Drop clean cached chunks (of one file, or all); keeps dirty ones."""
        keys = [
            k
            for k, dirty in self._resident.items()
            if not dirty and (file is None or k[0] == file.name)
        ]
        for key in keys:
            del self._resident[key]

    # -- internals -----------------------------------------------------------------
    @staticmethod
    def _check_range(file: GuestFile, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        if offset + length > file.size_bytes:
            raise ValueError(
                f"I/O past EOF of {file.name!r}: "
                f"{offset + length} > {file.size_bytes}"
            )

    def _chunk_span(self, file: GuestFile, idx: int) -> Tuple[int, int]:
        off = idx * CHUNK_BYTES
        return off, min(CHUNK_BYTES, file.size_bytes - off)

    def _read_chunks(self, file: GuestFile, first: int, last: int, pid: Any):
        """Issue sync reads for chunks [first, last]; block per window."""
        off, _ = self._chunk_span(file, first)
        end_off = self._chunk_span(file, last)[0] + self._chunk_span(file, last)[1]
        length = end_off - off
        for lba, nsectors in file.ranges(off, length):
            pos = 0
            while pos < nsectors:
                take = min(nsectors - pos, _REQUEST_SECTORS)
                req = BlockRequest(lba + pos, take, IoOp.READ, pid, sync=True)
                done = self.vdisk.submit(req)
                self.bytes_read_disk += take * SECTOR_SIZE
                yield done
                pos += take
        for idx in range(first, last + 1):
            self._insert(file, idx, dirty=False)

    def _submit_chunk_io(self, file: GuestFile, idx: int, op: IoOp, pid: Any,
                         sync: bool) -> List[Event]:
        """Submit requests covering one chunk; returns completion events."""
        off, length = self._chunk_span(file, idx)
        if length <= 0:
            return []
        events = []
        for lba, nsectors in file.ranges(off, length):
            pos = 0
            while pos < nsectors:
                take = min(nsectors - pos, _REQUEST_SECTORS)
                req = BlockRequest(lba + pos, take, op, pid, sync=sync)
                events.append(self.vdisk.submit(req))
                if op is IoOp.WRITE:
                    self.bytes_written_disk += take * SECTOR_SIZE
                else:
                    self.bytes_read_disk += take * SECTOR_SIZE
                pos += take
        return events

    def _insert(self, file: GuestFile, idx: int, dirty: bool) -> None:
        key = (file.name, idx)
        was_dirty = self._resident.get(key, False)
        self._resident[key] = was_dirty or dirty
        self._resident.move_to_end(key)
        if dirty and key not in self._dirty:
            self._dirty[key] = file
        self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        while len(self._resident) > self._max_chunks:
            key, dirty = next(iter(self._resident.items()))
            del self._resident[key]
            if dirty and key in self._dirty:
                # Force the dirty chunk out as background writeback.
                file = self._dirty.pop(key)
                self._flush_chunk_async(file, key[1])

    def _flush_chunk_async(self, file: GuestFile, idx: int) -> None:
        for done in self._submit_chunk_io(file, idx, IoOp.WRITE, self.name, sync=False):
            self._wb_inflight.append(done)

    def _kick_writeback(self) -> None:
        if not self._wb_kick.triggered:
            self._wb_kick.succeed()

    def _wake_throttled(self) -> None:
        if self.dirty_bytes <= self.params.dirty_limit_bytes:
            waiters, self._throttle_waiters = self._throttle_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def _writeback_daemon(self):
        env = self.env
        while True:
            self._wb_kick = env.event()
            if self._dirty:
                # Periodic flush while dirty data exists; pure event-wait
                # otherwise so an idle simulation can run to completion.
                timer = env.timeout(WRITEBACK_INTERVAL)
                yield AnyOf(env, [self._wb_kick, timer])
                periodic = timer.processed and not self._wb_kick.triggered
            else:
                yield self._wb_kick
                periodic = False
            # A kick (threshold crossing) flushes down to the hysteresis
            # target; the periodic wakeup writes out everything that has
            # aged (kupdate semantics — our chunks are all ≥interval old).
            target = 0 if periodic else self.params.dirty_background_bytes // 2
            while self.dirty_bytes > target and self._dirty:
                key, file = next(iter(self._dirty.items()))
                del self._dirty[key]
                if key in self._resident:
                    self._resident[key] = False
                self._flush_chunk_async(file, key[1])
                self._wake_throttled()
                # Self-throttle: bound flusher requests in flight.
                while len(self._wb_inflight) > WRITEBACK_INFLIGHT:
                    done = self._wb_inflight.popleft()
                    if not done.processed:
                        yield done
            # Reap finished completions without blocking.
            while self._wb_inflight and self._wb_inflight[0].processed:
                self._wb_inflight.popleft()
            self._wake_throttled()

    def flush_all(self, pid: Any = "flush"):
        """Flush every dirty chunk (async) and wait for completion."""
        events: List[Event] = []
        while self._dirty:
            key, file = next(iter(self._dirty.items()))
            del self._dirty[key]
            if key in self._resident:
                self._resident[key] = False
            events.extend(
                self._submit_chunk_io(file, key[1], IoOp.WRITE, pid, sync=False)
            )
        self._wake_throttled()
        if events:
            yield AllOf(self.env, events)
        # Also wait for any writeback already in flight.
        pending = [e for e in self._wb_inflight if not e.processed]
        if pending:
            yield AllOf(self.env, pending)
