"""Online reactive meta-scheduler (paper §VII future work).

"The fine-grained control method is using information from the VMs
within the same physical node and is based on the status of the VMs'
I/O (i.e. the number of request); using this we can switch to the most
suitable pair schedulers."

The controller samples each host's Dom0 read-byte share over fixed
windows, classifies the current regime, and hot-switches that host's
pair alone when a different regime persists long enough (hysteresis),
*without any offline profiling runs*.  The rule table encodes the
per-phase preferences the offline study discovers: (AS, CFQ) for
read-heavy windows, (CFQ, DL) for write-heavy ones, and (AS, DL) for
the mix between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..virt.pair import SchedulerPair

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..virt.cluster import VirtualCluster
    from ..virt.hypervisor import PhysicalHost

__all__ = ["OnlineController", "OnlinePolicy", "Regime"]


@dataclass(frozen=True)
class Regime:
    """A named I/O regime with its preferred pair."""

    name: str
    pair: SchedulerPair


@dataclass(frozen=True)
class OnlinePolicy:
    """Sampling/decision knobs plus the regime rule table."""

    #: Window between controller decisions, seconds.
    sample_interval: float = 2.0
    #: Consecutive windows a regime must persist before switching.
    hysteresis: int = 2
    #: Read byte share above which the regime is read-heavy.
    read_heavy_share: float = 0.55
    #: Read byte share below which the regime is write-heavy.
    write_heavy_share: float = 0.25
    read_heavy: Regime = Regime("read-heavy", SchedulerPair("anticipatory", "cfq"))
    write_heavy: Regime = Regime("write-heavy", SchedulerPair("cfq", "deadline"))
    mixed: Regime = Regime("mixed", SchedulerPair("anticipatory", "deadline"))

    def classify(self, read_share: float) -> Regime:
        if read_share >= self.read_heavy_share:
            return self.read_heavy
        if read_share <= self.write_heavy_share:
            return self.write_heavy
        return self.mixed


class OnlineController:
    """One reactive controller per cluster; runs as a sim process."""

    def __init__(
        self,
        env: "Environment",
        cluster: "VirtualCluster",
        policy: Optional[OnlinePolicy] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.policy = policy or OnlinePolicy()
        #: (time, host, regime-name) decision log.
        self.decisions: List[Tuple[float, str, str]] = []
        self.switches = 0
        self._streak: Dict[str, Tuple[str, int]] = {}
        self._last_counters: Dict[str, Tuple[int, int]] = {}
        self._proc = env.process(self._run())
        self._stopped = False

    def stop(self) -> None:
        """Stop controlling (the job finished)."""
        self._stopped = True

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
        policy = self.policy
        while not self._stopped:
            yield self.env.timeout(policy.sample_interval)
            if self._stopped:
                return
            for host in self.cluster.hosts:
                share = self._window_read_share(host)
                if share is None:
                    continue
                regime = policy.classify(share)
                name, streak = self._streak.get(host.name, ("", 0))
                streak = streak + 1 if name == regime.name else 1
                self._streak[host.name] = (regime.name, streak)
                if streak == policy.hysteresis and host.current_pair != regime.pair:
                    self.decisions.append(
                        (self.env.now, host.name, regime.name)
                    )
                    self.switches += 1
                    # Fire-and-forget: the switch drains in the background.
                    host.set_pair(regime.pair)
