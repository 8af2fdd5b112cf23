"""Online reactive meta-scheduler (paper §VII future work).

"The fine-grained control method is using information from the VMs
within the same physical node and is based on the status of the VMs'
I/O (i.e. the number of request); using this we can switch to the most
suitable pair schedulers."

The controller samples each host's Dom0 read-byte share over fixed
windows, classifies the current regime, and hot-switches that host's
pair alone when a different regime persists long enough (hysteresis),
*without any offline profiling runs*.  The rule table is fixed: it
encodes the per-phase preferences the offline study discovers, (AS,
CFQ) for read-heavy windows, (CFQ, DL) for write-heavy ones, and (AS,
DL) for the mix between.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..virt.pair import SchedulerPair

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..virt.cluster import VirtualCluster
    from ..virt.hypervisor import PhysicalHost

__all__ = ["OnlineController", "classify"]

#: Window between controller decisions, seconds.
SAMPLE_INTERVAL = 2.0
#: Consecutive windows a regime must persist before its host switches.
HYSTERESIS = 2
#: Read byte share at or above which a window is read-heavy.
READ_HEAVY_SHARE = 0.55
#: Read byte share at or below which a window is write-heavy.
WRITE_HEAVY_SHARE = 0.25
#: Regime name -> the pair the controller installs for it.
REGIME_PAIRS: Dict[str, SchedulerPair] = {
    "read-heavy": SchedulerPair("anticipatory", "cfq"),
    "write-heavy": SchedulerPair("cfq", "deadline"),
    "mixed": SchedulerPair("anticipatory", "deadline"),
}


def classify(read_share: float) -> str:
    """The regime of a window whose Dom0 read-byte share is ``read_share``."""
    if read_share >= READ_HEAVY_SHARE:
        return "read-heavy"
    if read_share <= WRITE_HEAVY_SHARE:
        return "write-heavy"
    return "mixed"


class OnlineController:
    """One reactive controller per cluster; runs as a sim process."""

    def __init__(self, env: "Environment", cluster: "VirtualCluster"):
        self.env = env
        self.cluster = cluster
        #: (time, host, regime-name) decision log.
        self.decisions: List[Tuple[float, str, str]] = []
        self.switches = 0
        self._streak: Dict[str, Tuple[str, int]] = {}
        self._last_counters: Dict[str, Tuple[int, int]] = {}
        self._proc = env.process(self._run())

    # -- internals ---------------------------------------------------------------
    def _window_read_share(self, host: "PhysicalHost") -> Optional[float]:
        stats = host.disk.stats
        prev_r, prev_w = self._last_counters.get(host.name, (0, 0))
        dr = stats.read_bytes - prev_r
        dw = stats.write_bytes - prev_w
        self._last_counters[host.name] = (stats.read_bytes, stats.write_bytes)
        total = dr + dw
        if total <= 0:
            return None  # idle window: no evidence
        return dr / total

    def _run(self):
        while True:
            yield self.env.timeout(SAMPLE_INTERVAL)
            for host in self.cluster.hosts:
                share = self._window_read_share(host)
                if share is None:
                    continue
                regime = classify(share)
                name, streak = self._streak.get(host.name, ("", 0))
                streak = streak + 1 if name == regime else 1
                self._streak[host.name] = (regime, streak)
                pair = REGIME_PAIRS[regime]
                if streak == HYSTERESIS and host.current_pair != pair:
                    self.decisions.append((self.env.now, host.name, regime))
                    self.switches += 1
                    # Fire-and-forget: the switch drains in the background.
                    host.set_pair(pair)
