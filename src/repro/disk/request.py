"""Block I/O request model.

Requests use the kernel's units: LBAs and lengths are in 512-byte
sectors.  A request carries the identity of the *issuing process* —
inside a guest that is the task (e.g. a map task's reader thread or the
writeback daemon); at the hypervisor level it is the VM id, because the
Dom0 elevator sees each guest as a single process (the paper's "VMM
treats all the VMs as process").
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.events import Event

__all__ = ["IoOp", "BlockRequest", "SECTOR_SIZE"]

#: Bytes per sector, fixed by the ATA heritage.
SECTOR_SIZE = 512

_rid_counter = itertools.count(1)


def reset_rids() -> None:
    """Restart request numbering at 1 (labels only — never scheduling
    input), so every run's trace carries the same rids as any other
    same-seed run, whatever ran earlier in this process."""
    global _rid_counter
    _rid_counter = itertools.count(1)


class IoOp(enum.Enum):
    """Direction of a block request."""

    READ = "read"
    WRITE = "write"


class BlockRequest:
    """One I/O request travelling down a block-device queue.

    ``sync`` distinguishes requests a task is actively waiting on (reads,
    fsync-driven writes) from background writeback; the anticipatory and
    CFQ schedulers treat the two classes very differently, which is the
    mechanism behind the paper's per-phase scheduler preferences.
    """

    __slots__ = (
        "rid",
        "lba",
        "nsectors",
        "op",
        "sync",
        "process_id",
        "submit_time",
        "queue_time",
        "dispatch_time",
        "complete_time",
        "completion",
        "merged_children",
        "deadline",
        "origin",
    )

    def __init__(
        self,
        lba: int,
        nsectors: int,
        op: IoOp,
        process_id: Any,
        sync: Optional[bool] = None,
        origin: Any = None,
    ):
        if nsectors <= 0:
            raise ValueError(f"request length must be positive, got {nsectors}")
        if lba < 0:
            raise ValueError(f"negative LBA {lba}")
        self.rid = next(_rid_counter)
        self.lba = int(lba)
        self.nsectors = int(nsectors)
        self.op = op
        #: Reads default to synchronous, writes to asynchronous (writeback).
        self.sync = (op is IoOp.READ) if sync is None else bool(sync)
        self.process_id = process_id
        self.submit_time: Optional[float] = None
        self.queue_time: Optional[float] = None
        self.dispatch_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        #: Completion event, bound lazily by the device that accepts the
        #: request (a request object is device-agnostic until submitted)
        #: and unbound when it fires: the event's value is a request, so
        #: keeping it would make a reference cycle.
        self.completion: Optional["Event"] = None
        #: Requests merged into this one; their completions are triggered
        #: together with ours.
        self.merged_children: List["BlockRequest"] = []
        #: Expiry time used by the deadline/anticipatory FIFOs.
        self.deadline: Optional[float] = None
        #: Free-form provenance (e.g. the guest request a Dom0 request
        #: was created from).
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "S" if self.sync else "A"
        return (
            f"<BlockRequest #{self.rid} {self.op.value}{kind} "
            f"lba={self.lba}+{self.nsectors} proc={self.process_id!r}>"
        )

    @property
    def end_lba(self) -> int:
        """First sector *after* this request."""
        return self.lba + self.nsectors

    @property
    def nbytes(self) -> int:
        return self.nsectors * SECTOR_SIZE

    @property
    def latency(self) -> Optional[float]:
        """Queue-to-completion latency, if completed."""
        if self.complete_time is None or self.queue_time is None:
            return None
        return self.complete_time - self.queue_time

    # -- merging -----------------------------------------------------------
    def can_back_merge(self, other: "BlockRequest", max_sectors: int) -> bool:
        """Can ``other`` be appended to this request's tail?"""
        return (
            other.op is self.op
            and other.sync == self.sync
            and other.lba == self.end_lba
            and self.nsectors + other.nsectors <= max_sectors
        )

    def can_front_merge(self, other: "BlockRequest", max_sectors: int) -> bool:
        """Can ``other`` be prepended at this request's head?"""
        return (
            other.op is self.op
            and other.sync == self.sync
            and other.end_lba == self.lba
            and self.nsectors + other.nsectors <= max_sectors
        )

    def back_merge(self, other: "BlockRequest") -> None:
        """Absorb ``other`` at the tail."""
        self.nsectors += other.nsectors
        self.merged_children.append(other)

    def front_merge(self, other: "BlockRequest") -> None:
        """Absorb ``other`` at the head (the merged request starts earlier)."""
        self.lba = other.lba
        self.nsectors += other.nsectors
        self.merged_children.append(other)

    def all_rids(self) -> List[int]:
        """This request's rid plus every (transitively) merged rid."""
        rids = [self.rid]
        for child in self.merged_children:
            rids.extend(child.all_rids())
        return rids
