"""A guest virtual machine: vCPU, virtual disk, filesystem, page cache."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from ..disk.device import DiskDevice
from ..iosched.base import IOScheduler
from ..sim.cpu import CPUJob, ProcessorSharingCPU
from ..sim.events import Event
from ..sim.rng import fallback_rng
from .fs import GuestFile, GuestFilesystem
from .pagecache import PageCache, PageCacheParams
from .vdisk import DEFAULT_RING_SLOTS, VirtualBlockDevice

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = ["VM"]

#: Chance the guest filesystem splits a large allocation: aged ext3
#: images are not perfectly contiguous, so long spills cost a few seeks.
FS_FRAGMENTATION = 0.02


class VM:
    """One DomU with a single vCPU and one virtual disk.

    Matches the paper's guest sizing: 1 VCPU pinned to a core, 1 GB of
    memory (reflected in the page-cache capacity), one xvda image on the
    host's SATA disk.
    """

    def __init__(
        self,
        env: "Environment",
        vm_id: str,
        backend_disk: DiskDevice,
        image_offset_sectors: int,
        image_sectors: int,
        guest_scheduler_factory: Callable[[], IOScheduler],
        pagecache_params: Optional[PageCacheParams] = None,
        rng: Optional[np.random.Generator] = None,
        trace: Optional["TraceBus"] = None,
        ring_slots: int = DEFAULT_RING_SLOTS,
    ):
        self.env = env
        self.vm_id = vm_id
        self.host_name: Optional[str] = None  # set by PhysicalHost.add_vm
        self.trace = trace
        #: Fault-injection state: paused VMs make no progress; crashed
        #: VMs stop receiving work (see :meth:`crash`).
        self.paused = False
        self.crashed = False
        self.vdisk = VirtualBlockDevice(
            env,
            guest_scheduler_factory(),
            backend_disk,
            vm_id=vm_id,
            lba_offset=image_offset_sectors,
            capacity_sectors=image_sectors,
            trace=trace,
            ring_slots=ring_slots,
        )
        self.cpu = ProcessorSharingCPU(env, name=f"cpu@{vm_id}")
        self.fs = GuestFilesystem(
            image_sectors,
            fragmentation=FS_FRAGMENTATION,
            rng=rng or fallback_rng(),
        )
        self.cache = PageCache(
            env, self.vdisk, pagecache_params, name=f"pc@{vm_id}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<VM {self.vm_id} sched={self.vdisk.scheduler.name}>"

    # -- file I/O helpers (generators to run inside sim processes) ------------------
    def create_file(self, name: str, size_bytes: int) -> GuestFile:
        return self.fs.create_or_replace(name, size_bytes)

    def read_file(self, file: GuestFile, offset: int, length: int, pid: Any):
        """Generator: read through the page cache."""
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "fs.read", vm=self.vm_id, file=file.name,
                offset=offset, length=length, process=pid,
            )
        yield from self.cache.read(file, offset, length, pid)

    def write_file(self, file: GuestFile, offset: int, length: int, pid: Any,
                   sync: bool = False):
        """Generator: write through the page cache (buffered by default)."""
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "fs.write", vm=self.vm_id, file=file.name,
                offset=offset, length=length, process=pid,
            )
        yield from self.cache.write(file, offset, length, pid, sync=sync)

    def fsync(self, file: GuestFile, pid: Any):
        yield from self.cache.fsync(file, pid)

    # -- compute -----------------------------------------------------------------
    def compute(self, seconds_of_work: float, label: Any = None) -> CPUJob:
        """Submit CPU work; the event fires when the vCPU finishes it."""
        return self.cpu.execute(seconds_of_work, label)

    # -- fault injection -----------------------------------------------------------
    def pause(self) -> None:
        """Freeze the guest: vCPU stops and the vdisk dispatches nothing.

        I/O already forwarded to the backend drains (the host does not
        stop), matching a hypervisor pause.  Idempotent.
        """
        if self.paused:
            return
        self.paused = True
        self.cpu.pause()
        self.vdisk.pause()

    def resume(self) -> None:
        """Unfreeze a paused guest."""
        if not self.paused:
            return
        self.paused = False
        self.cpu.resume()
        self.vdisk.resume()

    def crash(self) -> None:
        """Kill the guest's TaskTracker: no new work lands here.

        Deliberately a *compute* crash, not a storage loss — running
        attempts are killed by the JobTracker and the VM receives no
        further tasks, but its disk image (and already-written map
        outputs) stays readable so reducers can still fetch from it and
        the simulation cannot deadlock on vanished data.
        """
        self.crashed = True

    # -- control plane ------------------------------------------------------------
    def switch_scheduler(self, factory: Callable[[], IOScheduler]) -> Event:
        """Hot-switch the guest elevator (``echo x > /sys/block/xvda/...``)."""
        return self.vdisk.switch_scheduler(factory)

    @property
    def scheduler_name(self) -> str:
        return self.vdisk.scheduler.name
