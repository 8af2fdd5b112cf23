"""Cluster builder: N physical hosts × M VMs with a shared configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

from ..iosched.registry import scheduler_factory
from ..sim.events import AllOf, Event
from ..sim.rng import RngStreams
from .hypervisor import PhysicalHost
from .pagecache import PageCacheParams
from .pair import DEFAULT_PAIR, SchedulerPair
from .vdisk import DEFAULT_RING_SLOTS
from .vm import VM

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = ["ClusterConfig", "VirtualCluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stamp out a virtual cluster.

    Defaults mirror the paper's testbed: 4 hosts, 4 VMs per host,
    1 TB SATA disk per host, 1 GB / 1 VCPU guests, (CFQ, CFQ) pairs.
    """

    hosts: int = 4
    vms_per_host: int = 4
    initial_pair: SchedulerPair = DEFAULT_PAIR
    #: Storage-backend name for every host (``repro.disk.backend``:
    #: hdd/ssd/hybrid).  Carried as a plain string — it is
    #: resolved only at build time, never during spec canonicalisation,
    #: so the config stays a pure cache-key ingredient.
    storage: str = "hdd"
    pagecache: PageCacheParams = field(default_factory=PageCacheParams)
    #: blkfront ring depth per VM (the ring ablation starves it).
    ring_slots: int = DEFAULT_RING_SLOTS
    seed: int = 0

    def __post_init__(self) -> None:
        # Each would otherwise fail deep in the build or the run (the
        # shuffle plan, numpy's SeedSequence), naming no field; a float
        # seed would be truncated to another run's seed.
        for name, value, low in (("hosts", self.hosts, 1),
                                 ("vms_per_host", self.vms_per_host, 1),
                                 ("seed", self.seed, 0)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"ClusterConfig.{name} must be an int, got {value!r}")
            if value < low:
                raise ValueError(
                    f"ClusterConfig.{name} must be >= {low}, got {value}")

    def with_(self, **changes) -> "ClusterConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)


class VirtualCluster:
    """The simulated testbed: hosts, VMs, and the pair control plane."""

    def __init__(
        self,
        env: "Environment",
        config: Optional[ClusterConfig] = None,
        trace: Optional["TraceBus"] = None,
    ):
        self.env = env
        self.config = config or ClusterConfig()
        self.trace = trace
        self.rng = RngStreams(self.config.seed)
        self.hosts: List[PhysicalHost] = []
        self._current_pair = self.config.initial_pair
        self._build()

    def _build(self) -> None:
        cfg = self.config
        for h in range(cfg.hosts):
            host = PhysicalHost(
                self.env,
                name=f"h{h}",
                vmm_scheduler_factory=scheduler_factory(cfg.initial_pair.vmm),
                max_vms=cfg.vms_per_host,
                storage=cfg.storage,
                host_index=h,
                rng=self.rng.stream(f"h{h}.disk"),
                trace=self.trace,
            )
            for v in range(cfg.vms_per_host):
                host.add_vm(
                    vm_id=f"h{h}v{v}",
                    guest_scheduler_factory=scheduler_factory(cfg.initial_pair.vm),
                    pagecache_params=cfg.pagecache,
                    rng=self.rng.stream(f"h{h}v{v}.fs"),
                    ring_slots=cfg.ring_slots,
                )
            self.hosts.append(host)
        self._vm_by_id: Dict[str, VM] = {vm.vm_id: vm for vm in self.vms}

    # -- views ------------------------------------------------------------------
    @property
    def vms(self) -> List[VM]:
        """All VMs across all hosts, in (host, slot) order."""
        return [vm for host in self.hosts for vm in host.vms]

    def vm(self, vm_id: str) -> VM:
        return self._vm_by_id[vm_id]

    def host_of(self, vm: VM) -> PhysicalHost:
        for host in self.hosts:
            if vm in host.vms:
                return host
        raise KeyError(vm.vm_id)

    @property
    def current_pair(self) -> SchedulerPair:
        return self._current_pair

    def storage_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-device backend counters, for devices that report any.

        Plain :class:`~repro.disk.device.DiskDevice` spindles report
        nothing, so all-HDD clusters return ``{}`` and run payloads
        stay bit-identical to the pre-registry code; SSDs contribute
        their FTL counters.
        """
        out: Dict[str, Dict[str, object]] = {}
        for host in self.hosts:
            report = getattr(host.disk, "storage_stats", None)
            if callable(report):
                out[host.disk.name] = report()
        return out

    # -- control plane --------------------------------------------------------------
    def set_pair(self, pair: SchedulerPair) -> Event:
        """Switch every host (Dom0 + guests) to ``pair``."""
        self._current_pair = pair
        events = [host.set_pair(pair) for host in self.hosts]
        done = AllOf(self.env, events)
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "cluster.set_pair", pair=str(pair)
            )
        return done
