"""The anticipatory elevator.

A one-way elevator with *time-based* read/write batches (the kernel's
``read_batch_expire``/``write_batch_expire``) plus *anticipation*:
after a synchronous read from process *p* completes, the disk is held
idle for a short window in the expectation that *p* will immediately
issue another nearby request — curing the deceptive-idleness problem
that makes a pure elevator seek away between the sequential reads of a
streaming process.

Reads get long batches (500 ms) and writes short ones (125 ms), which
is why AS shines on read-dominated phases and yields ground on
write-heavy ones — exactly the per-phase asymmetry the paper's
meta-scheduler exploits.

Per-process think-time statistics gate the anticipation (a process
whose historical think time exceeds the window is not worth waiting
for), mirroring the kernel's ``as_io_context`` heuristics.  These
statistics are exactly the state lost on an elevator switch, one
source of the paper's non-commutative switching costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from ..disk.request import BlockRequest, IoOp
from .base import DispatchDecision, IOScheduler, SortedRequestList

__all__ = ["AnticipatoryScheduler", "AnticipatoryParams", "ProcessIoStats"]


@dataclass(frozen=True)
class AnticipatoryParams:
    """Tunables mirroring the kernel AS defaults (in seconds)."""

    #: Maximum time to hold the disk for the anticipated process.
    antic_expire: float = 0.006
    #: FIFO expiry for reads / writes.
    read_expire: float = 0.125
    write_expire: float = 0.250
    #: Time-based batch lengths.
    read_batch_expire: float = 0.500
    write_batch_expire: float = 0.125
    #: Anticipate only processes whose mean think time stays below this.
    max_think_time: float = 0.006
    #: EMA weight for think-time updates.
    think_alpha: float = 0.25
    #: A queued request this close (sectors) to the head is "close
    #: enough" that waiting for the anticipated process isn't worth it.
    close_sectors: int = 2048


@dataclass
class ProcessIoStats:
    """Per-process history driving the anticipation decision."""

    mean_think_time: float = 0.0
    samples: int = 0
    last_completion: Optional[float] = None

    def record_think_time(self, value: float, alpha: float) -> None:
        if self.samples == 0:
            self.mean_think_time = value
        else:
            self.mean_think_time = (1 - alpha) * self.mean_think_time + alpha * value
        self.samples += 1


class AnticipatoryScheduler(IOScheduler):
    """Time-batched elevator with sync-read anticipation."""

    name = "anticipatory"

    def __init__(self, params: Optional[AnticipatoryParams] = None, **kwargs):
        super().__init__(**kwargs)
        self.params = params or AnticipatoryParams()
        self._sorted: Dict[IoOp, SortedRequestList] = {
            IoOp.READ: SortedRequestList(),
            IoOp.WRITE: SortedRequestList(),
        }
        self._fifo: Dict[IoOp, Deque[BlockRequest]] = {
            IoOp.READ: deque(),
            IoOp.WRITE: deque(),
        }
        self._last_end = 0
        self._batch_dir: Optional[IoOp] = None
        self._batch_until: float = 0.0
        self._proc_stats: Dict[Any, ProcessIoStats] = {}
        self._antic_proc: Optional[Any] = None
        self._antic_until: float = -1.0
        #: Diagnostics: how often anticipation paid off / timed out.
        self.antic_hits = 0
        self.antic_timeouts = 0

    # -- stats ------------------------------------------------------------------
    def _stats_for(self, pid: Any) -> ProcessIoStats:
        stats = self._proc_stats.get(pid)
        if stats is None:
            stats = ProcessIoStats()
            self._proc_stats[pid] = stats
        return stats

    def _worth_anticipating(self, pid: Any) -> bool:
        stats = self._proc_stats.get(pid)
        if stats is None or stats.samples == 0:
            return True  # no history: give the process the benefit
        return stats.mean_think_time <= self.params.max_think_time

    # -- hooks ------------------------------------------------------------------
    def _enqueue(self, request: BlockRequest, now: float) -> None:
        expire = (
            self.params.read_expire
            if request.op is IoOp.READ
            else self.params.write_expire
        )
        request.deadline = now + expire
        self._sorted[request.op].add(request)
        self._fifo[request.op].append(request)
        self._note_arrival(request, now)

    def _repositioned(self, request: BlockRequest, old_lba: int) -> None:
        self._sorted[request.op].reposition(request, old_lba)

    def _on_merged(self, request: BlockRequest, now: float) -> None:
        self._note_arrival(request, now)

    def _note_arrival(self, request: BlockRequest, now: float) -> None:
        if not request.sync:
            return
        stats = self._stats_for(request.process_id)
        if stats.last_completion is not None:
            stats.record_think_time(
                max(0.0, now - stats.last_completion), self.params.think_alpha
            )
        if self._antic_proc == request.process_id and now < self._antic_until:
            self.antic_hits += 1
            # Anticipation succeeded; _select will now find this request.
            self._end_anticipation()

    def on_complete(self, request: BlockRequest, now: float) -> None:
        if request.op is IoOp.READ and request.sync:
            pid = request.process_id
            self._stats_for(pid).last_completion = now
            if self._worth_anticipating(pid):
                self._antic_proc = pid
                self._antic_until = now + self.params.antic_expire

    def _drain_all(self) -> List[BlockRequest]:
        self._end_anticipation()
        drained: List[BlockRequest] = []
        for op in (IoOp.READ, IoOp.WRITE):
            drained.extend(self._fifo[op])
            self._fifo[op].clear()
            self._sorted[op] = SortedRequestList()
        self._batch_dir = None
        # NOTE: _proc_stats survives a drain of *requests*, but a full
        # elevator switch constructs a new scheduler object, losing the
        # statistics — the cold-start component of the switch cost.
        return drained

    # -- selection ------------------------------------------------------------------
    def _select(self, now: float) -> DispatchDecision:
        reads = self._sorted[IoOp.READ]
        writes = self._sorted[IoOp.WRITE]
        if not reads and not writes:
            self._end_anticipation()
            return DispatchDecision()

        batch_live = self._batch_dir is not None and now < self._batch_until

        # Pressure valve: an expired write FIFO ends the read batch (the
        # kernel switches to a write batch once the oldest async request
        # has waited write_expire), bounding writeback starvation.
        write_pressure = self._fifo_expired(IoOp.WRITE, now)
        if write_pressure and self._batch_dir is IoOp.READ:
            batch_live = False

        # Anticipation: hold the disk for the process we just served.
        # It only applies inside (or at the start of) a read batch; an
        # unexpired write batch proceeds regardless, and once the read
        # batch has expired the anticipated process has had its run —
        # competitors (an expired FIFO or pending writes) take over.
        if self._antic_proc is not None:
            in_read_context = self._batch_dir is not IoOp.WRITE or not batch_live
            if now >= self._antic_until:
                if self._antic_until >= 0:
                    self.antic_timeouts += 1
                self._end_anticipation()
            elif not in_read_context:
                pass  # write batch unexpired: ignore the hold for now
            else:
                read_batch_over = not (
                    self._batch_dir is IoOp.READ and batch_live
                )
                competitors = writes or self._fifo_expired(IoOp.READ, now)
                if write_pressure or (read_batch_over and competitors):
                    self._end_anticipation()
                else:
                    mine = self._first_from(self._antic_proc)
                    if mine is not None:
                        self._end_anticipation()
                        return self._dispatch(mine)
                    if self._close_request_available():
                        # Something right next to the head is cheaper
                        # than waiting.
                        self._end_anticipation()
                    else:
                        return DispatchDecision(wait_until=self._antic_until)

        # Continue the current time batch in elevator order.
        if batch_live:
            queue = self._sorted[self._batch_dir]
            if len(queue):
                nxt = queue.first_at_or_after(self._last_end, wrap=False)
                if nxt is None:
                    nxt = queue.first()  # wrap the elevator
                return self._dispatch(nxt)
            if self._batch_dir is IoOp.WRITE and reads:
                pass  # write queue drained: fall through to reads
            elif self._batch_dir is IoOp.READ and writes and not reads:
                pass  # read queue drained: fall through to writes
            else:
                # Batch direction empty and nothing else: unreachable
                # because the queues are not both empty here.
                pass

        # Start a new batch, alternating directions when both classes
        # are waiting so writes get their share (500 ms reads / 125 ms
        # writes is the kernel's asymmetry).
        if reads and writes:
            direction = (
                IoOp.WRITE if self._batch_dir is IoOp.READ else IoOp.READ
            )
        elif reads:
            direction = IoOp.READ
        else:
            direction = IoOp.WRITE
        self._start_batch(direction, now)
        queue = self._sorted[direction]
        if self._fifo_expired(direction, now):
            target = self._fifo[direction][0]
        else:
            target = queue.first_at_or_after(self._last_end, wrap=True)
        assert target is not None
        return self._dispatch(target)

    # -- internals ----------------------------------------------------------------
    def _start_batch(self, direction: IoOp, now: float) -> None:
        self._batch_dir = direction
        length = (
            self.params.read_batch_expire
            if direction is IoOp.READ
            else self.params.write_batch_expire
        )
        self._batch_until = now + length

    def _dispatch(self, request: BlockRequest) -> DispatchDecision:
        self._sorted[request.op].remove(request)
        self._fifo[request.op].remove(request)
        self._last_end = request.end_lba
        return DispatchDecision(request=request)

    def _end_anticipation(self) -> None:
        self._antic_proc = None
        self._antic_until = -1.0

    def _first_from(self, pid: Any) -> Optional[BlockRequest]:
        """Best queued sync read from ``pid`` (nearest the elevator head)."""
        best = None
        best_dist = None
        for request in self._sorted[IoOp.READ]:
            if request.process_id != pid:
                continue
            dist = abs(request.lba - self._last_end)
            if best is None or dist < best_dist:
                best, best_dist = request, dist
        return best

    def _close_request_available(self) -> bool:
        """Is there a queued read right next to the head position?

        The kernel does not anticipate when the best candidate is close —
        serving it costs (almost) no seek, so waiting cannot win.
        """
        nearest = self._sorted[IoOp.READ].closest_to(self._last_end)
        return (
            nearest is not None
            and abs(nearest.lba - self._last_end) <= self.params.close_sectors
        )

    def _fifo_expired(self, op: IoOp, now: float) -> bool:
        fifo = self._fifo[op]
        return bool(fifo) and fifo[0].deadline is not None and fifo[0].deadline <= now
