"""Phase accounting: the paper's Ph1/Ph2/Ph3 decomposition.

* **Ph1** — job start → all maps done (CPU + disk + network).
* **Ph2** — maps done → shuffle done (the *non-concurrent* shuffle:
  disk + network only).
* **Ph3** — shuffle done → job done (sort + reduce: CPU + disk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["PhaseTimes", "JobResult", "PHASE_NAMES"]

PHASE_NAMES = ("ph1_map", "ph2_shuffle", "ph3_reduce")


@dataclass
class PhaseTimes:
    """Absolute timestamps of the phase boundaries."""

    start: float = 0.0
    maps_done: Optional[float] = None
    shuffle_done: Optional[float] = None
    end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError("job has not finished")
        return self.end - self.start

    @property
    def ph1(self) -> float:
        if self.maps_done is None:
            raise ValueError("maps have not finished")
        return self.maps_done - self.start

    @property
    def ph2(self) -> float:
        """Non-concurrent shuffle time (may be ~0 with many waves)."""
        if self.shuffle_done is None or self.maps_done is None:
            raise ValueError("shuffle has not finished")
        return max(0.0, self.shuffle_done - self.maps_done)

    @property
    def ph3(self) -> float:
        if self.end is None or self.shuffle_done is None:
            raise ValueError("job has not finished")
        return self.end - max(self.shuffle_done, self.maps_done)

    @property
    def non_concurrent_shuffle_pct(self) -> float:
        """Ph2 as a percentage of total runtime (paper Table II)."""
        if self.duration <= 0:
            return 0.0
        return 100.0 * self.ph2 / self.duration

    def breakdown(self) -> Dict[str, float]:
        return {
            "ph1_map": self.ph1,
            "ph2_shuffle": self.ph2,
            "ph3_reduce": self.ph3,
        }


@dataclass
class JobResult:
    """Everything an experiment wants to know about one job run."""

    job_name: str
    phases: PhaseTimes
    n_maps: int = 0
    n_reducers: int = 0
    input_bytes: int = 0
    map_output_bytes: float = 0.0
    shuffle_bytes: float = 0.0
    reduce_output_bytes: float = 0.0
    #: (time, fraction-of-maps-finished) progress samples.
    map_progress: List[Tuple[float, float]] = field(default_factory=list)
    #: Attempt/recovery counters (empty for fault-free runs): attempt
    #: totals, retries, speculative launches, kills, plus injector
    #: episode counts.  See :mod:`repro.faults`.
    fault_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-device storage-backend counters (empty for all-HDD clusters,
    #: which report nothing — keeping their payloads bit-identical).
    #: SSDs contribute FTL counters (write amplification, GC cycles).
    #: See :meth:`repro.virt.cluster.VirtualCluster.storage_stats`.
    storage: Dict[str, Dict] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.phases.duration

    def summary(self) -> str:
        p = self.phases
        base = (
            f"{self.job_name}: {p.duration:.1f}s "
            f"(map {p.ph1:.1f}s, shuffle {p.ph2:.1f}s, reduce {p.ph3:.1f}s; "
            f"{self.n_maps} maps, {self.n_reducers} reducers)"
        )
        if self.fault_stats:
            retries = self.fault_stats.get("map_retries", 0) + \
                self.fault_stats.get("reduce_retries", 0)
            spec = self.fault_stats.get("map_speculative", 0)
            base += f" [faults: {retries} retries, {spec} speculative]"
        return base
