"""Storage backends: build one host's block device by name.

The known names are:

* ``"hdd"`` — the seek-curve spindle (:class:`~repro.disk.device.DiskDevice`);
* ``"ssd"`` — the FTL flash device (:class:`~repro.disk.ssd.SsdDevice`);
* ``"hybrid"`` — heterogeneous clusters: even-indexed hosts get HDDs,
  odd-indexed hosts get SSDs.

Unknown names raise :class:`UnknownStorageError` listing the known ones
(mirroring :class:`~repro.iosched.registry.UnknownSchedulerError`).

``ClusterConfig`` carries the name as a plain string; it is resolved
only at cluster *build* time, and scenario constructors validate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..iosched.base import IOScheduler
from .device import DiskDevice, ElevatorQueue
from .model import ServiceTimeModel
from .ssd import SsdDevice

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = [
    "STORAGE_NAMES",
    "UnknownStorageError",
    "make_device",
    "resolve_storage",
]

#: Known backend names, sorted.
STORAGE_NAMES: Tuple[str, ...] = ("hdd", "hybrid", "ssd")


class UnknownStorageError(KeyError, ValueError):
    """An unknown storage-backend name.

    Subclasses both ``KeyError`` (it is a failed table lookup) and
    ``ValueError`` (it is an invalid argument), so call sites guarding
    either way catch it — same contract as ``UnknownSchedulerError``.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


def resolve_storage(name: str) -> str:
    """Validate a backend name; returns it unchanged.

    Raises :class:`UnknownStorageError` naming the known backends when
    ``name`` is not one of them.
    """
    if name not in STORAGE_NAMES:
        raise UnknownStorageError(
            f"unknown storage backend {name!r}; choose from "
            f"{', '.join(STORAGE_NAMES)}"
        )
    return name


def make_device(
    storage: str,
    env: "Environment",
    host_index: int,
    rng: Optional[np.random.Generator] = None,
    *,
    scheduler: IOScheduler,
    name: str,
    trace: Optional["TraceBus"] = None,
) -> ElevatorQueue:
    """Build the named backend's device for host ``host_index``.

    The FTL model is RNG-free, so an SSD leaves ``rng`` unused and
    hybrid clusters keep the same per-host stream assignment as
    uniform ones.
    """
    resolve_storage(storage)
    if storage == "ssd" or (storage == "hybrid" and host_index % 2 == 1):
        return SsdDevice(env, scheduler, name=name, trace=trace)
    return DiskDevice(env, scheduler, ServiceTimeModel(rng=rng),
                      name=name, trace=trace)
