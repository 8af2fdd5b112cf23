"""Pluggable storage backends: pick a block device by name.

The device choice is a fixed table keyed by short names:

* ``"hdd"`` — the seek-curve spindle (:class:`~repro.disk.device.DiskDevice`);
* ``"ssd"`` — the FTL flash device (:class:`~repro.disk.ssd.SsdDevice`);
* ``"hybrid"`` — heterogeneous clusters: even-indexed hosts get HDDs,
  odd-indexed hosts get SSDs.

A backend factory takes ``(env, params, rng)`` — the simulation
environment, a :class:`StorageParams` bundle, and the host's dedicated
RNG stream — plus the queue-level keywords every
:class:`~repro.disk.device.ElevatorQueue` shares.  Unknown names raise
:class:`UnknownStorageError` listing the known ones (mirroring
:class:`~repro.iosched.registry.UnknownSchedulerError`).

``ClusterConfig`` carries the name as a plain string; it is resolved
only at cluster *build* time, and scenario constructors validate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Protocol, Tuple

import numpy as np

from ..iosched.base import IOScheduler
from ..sim.events import Event
from ..sim.rng import fallback_rng
from .device import DiskDevice
from .geometry import DiskGeometry
from .model import DiskParameters, ServiceTimeModel
from .request import BlockRequest
from .ssd import SsdDevice, SsdParameters

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = [
    "StorageBackend",
    "StorageParams",
    "UnknownStorageError",
    "make_device",
    "resolve_storage",
    "storage_names",
]


class UnknownStorageError(KeyError, ValueError):
    """An unknown storage-backend name.

    Subclasses both ``KeyError`` (it is a failed table lookup) and
    ``ValueError`` (it is an invalid argument), so call sites guarding
    either way catch it — same contract as ``UnknownSchedulerError``.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class StorageBackend(Protocol):
    """What the virtual layer requires of a Dom0 block device.

    Every :class:`~repro.disk.device.ElevatorQueue` subclass satisfies
    this structurally; the protocol documents the contract a from-
    scratch backend must honour for guests, the elevator-switch
    control plane, and fault injection to work unchanged.
    """

    name: str
    scheduler: IOScheduler
    stats: object
    service_scale: float
    extra_latency: float

    def submit(self, request: BlockRequest) -> Event: ...

    def switch_scheduler(
        self, factory: Callable[[], IOScheduler]
    ) -> Event: ...

    def pause(self) -> None: ...

    def resume(self) -> None: ...

    @property
    def queue_depth(self) -> int: ...


@dataclass(frozen=True)
class StorageParams:
    """Everything a backend factory may need to build one host's device.

    One bundle covers every backend: HDD factories read the
    mechanical fields, SSD factories read ``ssd``, and ``host_index``
    lets heterogeneous backends differentiate hosts.  All fields are
    canonical-friendly, matching their lowering from
    :class:`~repro.virt.cluster.ClusterConfig`.
    """

    geometry: DiskGeometry = field(default_factory=DiskGeometry)
    disk_params: DiskParameters = field(default_factory=DiskParameters)
    ssd: SsdParameters = field(default_factory=SsdParameters)
    host_index: int = 0


def storage_names() -> Tuple[str, ...]:
    """Known backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def resolve_storage(name: str) -> str:
    """Validate a backend name; returns it unchanged.

    Raises :class:`UnknownStorageError` naming the known backends when
    ``name`` is not one of them.
    """
    if name not in _BACKENDS:
        raise UnknownStorageError(
            f"unknown storage backend {name!r}; choose from "
            f"{', '.join(storage_names())}"
        )
    return name


def make_device(
    storage: str,
    env: "Environment",
    params: StorageParams,
    rng: Optional[np.random.Generator] = None,
    *,
    scheduler: IOScheduler,
    name: str,
    trace: Optional["TraceBus"] = None,
    switch_control_latency: float = 0.050,
):
    """Build the named backend's device for one host."""
    factory = _BACKENDS[resolve_storage(storage)]
    return factory(
        env, params, rng,
        scheduler=scheduler,
        name=name,
        trace=trace,
        switch_control_latency=switch_control_latency,
    )


def _make_hdd(env, params, rng, *, scheduler, name, trace,
              switch_control_latency):
    # Construction order matches the historical PhysicalHost wiring
    # exactly (model first, rng fallback inside), keeping HDD runs
    # bit-identical to the pre-registry code.
    model = ServiceTimeModel(
        geometry=params.geometry,
        params=params.disk_params,
        rng=rng or fallback_rng(),
    )
    return DiskDevice(
        env,
        scheduler,
        model,
        name=name,
        trace=trace,
        switch_control_latency=switch_control_latency,
    )


def _make_ssd(env, params, rng, *, scheduler, name, trace,
              switch_control_latency):
    # The FTL model is RNG-free; the stream is accepted (factory
    # contract) and deliberately unused, so hybrid clusters keep the
    # same per-host stream assignment as uniform ones.
    return SsdDevice(
        env,
        scheduler,
        params.ssd,
        name=name,
        trace=trace,
        switch_control_latency=switch_control_latency,
    )


def _make_hybrid(env, params, rng, *, scheduler, name, trace,
                 switch_control_latency):
    backend = _make_hdd if params.host_index % 2 == 0 else _make_ssd
    return backend(
        env, params, rng,
        scheduler=scheduler,
        name=name,
        trace=trace,
        switch_control_latency=switch_control_latency,
    )


#: name -> factory(env, params, rng, *, scheduler, name, trace,
#:                 switch_control_latency)
_BACKENDS: Dict[str, Callable] = {
    "hdd": _make_hdd,
    "ssd": _make_ssd,
    "hybrid": _make_hybrid,
}
