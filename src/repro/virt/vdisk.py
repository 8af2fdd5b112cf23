"""The guest's virtual block device (blkfront → blkback → Dom0 elevator).

A :class:`VirtualBlockDevice` is the DomU half of Xen's split block
driver.  It runs the *guest* elevator over the VM's own requests, then
forwards dispatched requests through a bounded ring to the host's
:class:`~repro.disk.device.DiskDevice`, translating guest LBAs to the
physical offsets of the VM's disk image.  Forwarded requests carry the
VM id as their process identity, so the Dom0 elevator arbitrates
*between VMs* exactly as the paper describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..disk.device import DiskDevice, ElevatorQueue
from ..disk.request import BlockRequest
from ..disk.stats import DeviceStats
from ..iosched.base import IOScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = ["VirtualBlockDevice"]

#: Xen blkfront's classic one-page ring: 32 outstanding requests.
DEFAULT_RING_SLOTS = 32


class VirtualBlockDevice(ElevatorQueue):
    """Guest elevator plus the bounded ring to the backend device."""

    kind = "vdisk"

    def __init__(
        self,
        env: "Environment",
        scheduler: IOScheduler,
        backend: DiskDevice,
        vm_id: Any,
        lba_offset: int,
        capacity_sectors: int,
        ring_slots: int = DEFAULT_RING_SLOTS,
        name: Optional[str] = None,
        trace: Optional["TraceBus"] = None,
        stats: Optional[DeviceStats] = None,
    ):
        if ring_slots <= 0:
            raise ValueError("ring_slots must be positive")
        if lba_offset < 0 or capacity_sectors <= 0:
            raise ValueError("invalid vdisk geometry")
        self.backend = backend
        self.vm_id = vm_id
        self.lba_offset = lba_offset
        self.capacity_sectors = capacity_sectors
        self.ring_slots = ring_slots
        self.stats = stats or DeviceStats()
        self._in_ring = 0
        super().__init__(env, scheduler, name or f"xvda@{vm_id}", trace)

    # -- ElevatorQueue hooks ------------------------------------------------------
    def _outstanding(self) -> int:
        return self._in_ring

    @property
    def _can_dispatch(self) -> bool:
        return self._in_ring < self.ring_slots

    def _serve(self, request: BlockRequest):
        """Forward through the ring; do not wait (the ring pipelines)."""
        if request.end_lba > self.capacity_sectors:
            raise ValueError(
                f"request {request!r} beyond vdisk capacity "
                f"{self.capacity_sectors}"
            )
        self._in_ring += 1
        request.dispatch_time = self.env._now
        physical = BlockRequest(
            lba=request.lba + self.lba_offset,
            nsectors=request.nsectors,
            op=request.op,
            process_id=self.vm_id,
            sync=request.sync,
            origin=request,
        )
        physical.submit_time = request.submit_time
        done = self.backend.submit(physical)
        # ``done`` has no other waiter, so a callback (no process)
        # completes the request at the moment the backend fires it.
        done.callbacks.append(lambda _ev: self._backend_done(request))
        return ()  # nothing to yield: dispatch continues immediately

    def _backend_done(self, request: BlockRequest) -> None:
        self._in_ring -= 1
        request.complete_time = self.env._now
        self.stats.on_complete(request, 0.0)
        self._completed(request)
