"""The physical host: Dom0 elevator, shared storage backend, resident VMs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from ..disk.backend import make_device
from ..disk.geometry import DiskGeometry
from ..iosched.base import IOScheduler
from ..iosched.registry import scheduler_factory
from ..sim.events import AllOf, Event
from .pagecache import PageCacheParams
from .pair import SchedulerPair
from .vdisk import DEFAULT_RING_SLOTS
from .vm import VM

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = ["PhysicalHost"]


class PhysicalHost:
    """One Xen host: a Dom0-level block device shared by its DomUs.

    The Dom0 elevator sees each VM as one process; guest disk images are
    spread across the address space so cross-VM arbitration costs real
    seeks (on spindles) or real channel contention (on flash).

    The device itself is built by name through
    :func:`~repro.disk.backend.make_device` (``storage=`` plus the
    host's ``host_index``, which ``hybrid`` alternates on).
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        vmm_scheduler_factory: Callable[[], IOScheduler],
        max_vms: int,
        storage: str = "hdd",
        host_index: int = 0,
        rng: Optional[np.random.Generator] = None,
        trace: Optional["TraceBus"] = None,
    ):
        if max_vms <= 0:
            raise ValueError("max_vms must be positive")
        self.env = env
        self.name = name
        self.max_vms = max_vms
        #: The 1 TB platter the VM images are striped across.
        self.geometry = DiskGeometry()
        self.trace = trace
        self.disk = make_device(
            storage,
            env,
            host_index,
            rng,
            scheduler=vmm_scheduler_factory(),
            name=f"{name}.sda",
            trace=trace,
        )
        self.vms: List[VM] = []
        #: Filled in by the network topology when attached.
        self.nic = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<PhysicalHost {self.name} vms={len(self.vms)}>"

    # -- VM management ---------------------------------------------------------
    def add_vm(
        self,
        vm_id: str,
        guest_scheduler_factory: Callable[[], IOScheduler],
        image_sectors: Optional[int] = None,
        *,
        pagecache_params: Optional[PageCacheParams] = None,
        rng: Optional[np.random.Generator] = None,
        ring_slots: int = DEFAULT_RING_SLOTS,
    ) -> VM:
        """Create a VM; its image is placed in the host's next stripe.

        Stripes divide the platter evenly among ``max_vms`` images, so
        with 4 VMs on a 1 TB disk consecutive images sit ~250 GB apart —
        the cross-VM seek distance that makes the Dom0 elevator choice
        matter.
        """
        index = len(self.vms)
        if index >= self.max_vms:
            raise RuntimeError(f"host {self.name} is full ({self.max_vms} VMs)")
        stripe = self.geometry.total_sectors // self.max_vms
        if image_sectors is None:
            image_sectors = stripe // 2
        if image_sectors > stripe:
            raise ValueError("image does not fit in its stripe")
        vm = VM(
            self.env,
            vm_id,
            backend_disk=self.disk,
            image_offset_sectors=index * stripe,
            image_sectors=image_sectors,
            guest_scheduler_factory=guest_scheduler_factory,
            pagecache_params=pagecache_params,
            rng=rng,
            trace=self.trace,
            ring_slots=ring_slots,
        )
        vm.host_name = self.name
        self.vms.append(vm)
        return vm

    # -- control plane ------------------------------------------------------------
    def set_pair(self, pair: SchedulerPair) -> Event:
        """Switch Dom0 and all guests to ``pair``; fires when all done.

        Switches run concurrently (the meta-scheduler daemon issues the
        sysfs writes to Dom0 and over the guest channels at once); each
        device still pays its own drain.
        """
        events = [self.disk.switch_scheduler(scheduler_factory(pair.vmm))]
        events.extend(
            vm.switch_scheduler(scheduler_factory(pair.vm)) for vm in self.vms
        )
        return AllOf(self.env, events)

    @property
    def current_pair(self) -> SchedulerPair:
        """The (Dom0, guest) pair installed; the guest is the first VM's."""
        vm_sched = self.vms[0].scheduler_name if self.vms else "cfq"
        return SchedulerPair(self.disk.scheduler.name, vm_sched)
