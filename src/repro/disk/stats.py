"""Per-device statistics: throughput samplers, byte counts, busy time."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.tracing import IntervalSampler
from .request import SECTOR_SIZE, BlockRequest, IoOp

__all__ = ["DeviceStats"]


@dataclass(slots=True)
class DeviceStats:
    """Rolling statistics for one block device.

    ``throughput`` accumulates completed bytes per wall-clock interval —
    the analogue of sampling ``iostat`` on the testbed, which is what
    the paper's Fig. 3 CDFs are built from.
    """

    sample_interval: float = 1.0
    throughput: IntervalSampler = field(init=False)
    read_bytes: int = 0
    write_bytes: int = 0
    read_count: int = 0
    write_count: int = 0
    merged_count: int = 0
    busy_time: float = 0.0

    def __post_init__(self) -> None:
        self.throughput = IntervalSampler(interval=self.sample_interval)

    def on_complete(self, request: BlockRequest, service_total: float) -> None:
        """Record a completed request (after merging, so one disk command)."""
        nbytes = request.nsectors * SECTOR_SIZE
        if request.op is IoOp.READ:
            self.read_bytes += nbytes
            self.read_count += 1
        else:
            self.write_bytes += nbytes
            self.write_count += 1
        if request.merged_children:
            self.merged_count += len(request.merged_children)
        self.busy_time += service_total
        self.throughput.add(request.complete_time, nbytes)

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def total_requests(self) -> int:
        return self.read_count + self.write_count

    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the spindle was busy."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.busy_time / duration)
