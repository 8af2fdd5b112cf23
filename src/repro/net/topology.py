"""Cluster network topology: full-duplex NICs behind a non-blocking switch.

The paper's testbed is 1 Gb/s Ethernet through one switch; the switch
fabric is not the bottleneck, so a transfer contends only on the source
NIC's egress and the destination NIC's ingress.  Same-host transfers
(VM to VM over the Xen bridge) ride a faster loopback link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict

from ..sim.events import Event
from .flow import FlowNetwork, Link

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = ["HostNic", "Topology", "GBIT"]

#: 1 Gb/s in bytes per second.
GBIT = 125_000_000.0


@dataclass
class HostNic:
    """Per-host link trio: egress, ingress, loopback."""

    host: str
    tx: Link
    rx: Link
    loopback: Link


class Topology:
    """Registry of host NICs plus the shared flow scheduler."""

    def __init__(
        self,
        env: "Environment",
        nic_bandwidth: float = GBIT,
        loopback_bandwidth: float = 4 * GBIT,
    ):
        for name, bandwidth in (("nic_bandwidth", nic_bandwidth),
                                ("loopback_bandwidth", loopback_bandwidth)):
            if not 0 < bandwidth < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {bandwidth}")
        self.env = env
        self.network = FlowNetwork(env)
        self.nic_bandwidth = nic_bandwidth
        self.loopback_bandwidth = loopback_bandwidth
        self._nics: Dict[str, HostNic] = {}

    def add_host(self, host: str) -> HostNic:
        """Register a host; idempotent."""
        nic = self._nics.get(host)
        if nic is None:
            nic = HostNic(
                host=host,
                tx=Link(f"{host}.tx", self.nic_bandwidth),
                rx=Link(f"{host}.rx", self.nic_bandwidth),
                loopback=Link(f"{host}.lo", self.loopback_bandwidth),
            )
            self._nics[host] = nic
        return nic

    def nic(self, host: str) -> HostNic:
        try:
            return self._nics[host]
        except KeyError:
            raise KeyError(f"host {host!r} not registered") from None

    def transfer(self, src: str, dst: str, nbytes: float, label: Any = None) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; fires on completion.

        Same-host transfers use the loopback link only (Xen bridge);
        cross-host transfers occupy src egress + dst ingress.
        """
        if src == dst:
            links = [self.nic(src).loopback]
        else:
            links = [self.nic(src).tx, self.nic(dst).rx]
        return self.network.transfer(links, nbytes, label=label)
