"""Block-storage substrate: requests, geometry, timing, pluggable devices.

Backends (HDD spindle, FTL SSD, hybrid) are picked by name through the
:mod:`repro.disk.backend` registry.
"""

from .backend import (
    StorageBackend,
    StorageParams,
    UnknownStorageError,
    make_device,
    resolve_storage,
    storage_names,
)
from .device import DiskDevice
from .geometry import DiskGeometry
from .model import DiskParameters, ServiceBreakdown, ServiceTimeModel
from .request import SECTOR_SIZE, BlockRequest, IoOp
from .ssd import SsdDevice, SsdParameters
from .stats import DeviceStats

__all__ = [
    "SECTOR_SIZE",
    "BlockRequest",
    "DeviceStats",
    "DiskDevice",
    "DiskGeometry",
    "DiskParameters",
    "IoOp",
    "ServiceBreakdown",
    "ServiceTimeModel",
    "SsdDevice",
    "SsdParameters",
    "StorageBackend",
    "StorageParams",
    "UnknownStorageError",
    "make_device",
    "resolve_storage",
    "storage_names",
]
