"""Block-storage substrate: requests, geometry, timing, pluggable devices.

Backends (HDD spindle, FTL SSD, hybrid) are picked by name through
:func:`repro.disk.backend.make_device`.
"""

from .backend import (
    STORAGE_NAMES,
    UnknownStorageError,
    make_device,
    resolve_storage,
)
from .device import SWITCH_CONTROL_LATENCY, DiskDevice
from .geometry import DiskGeometry
from .model import DiskParameters, ServiceBreakdown, ServiceTimeModel
from .request import SECTOR_SIZE, BlockRequest, IoOp
from .ssd import SsdDevice, SsdParameters
from .stats import DeviceStats

__all__ = [
    "SECTOR_SIZE",
    "STORAGE_NAMES",
    "SWITCH_CONTROL_LATENCY",
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
    "UnknownStorageError",
    "make_device",
    "resolve_storage",
]
