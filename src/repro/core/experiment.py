"""The experiment setup and the aggregated outcome of one phase plan.

A plan is scored on a fresh simulated testbed per seed (see
:func:`repro.api.run_job`), so runs are independent — the analogue of
the paper's freshly prepared cluster per measurement — and results are
averaged over the configured seeds ("average of three consecutive
runs").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import mean
from typing import List, Tuple

from ..mapreduce.job import JobConfig
from ..mapreduce.phases import JobResult
from ..virt.cluster import ClusterConfig
from .solution import Solution

__all__ = ["TestbedConfig", "RunOutcome"]


@dataclass(frozen=True)
class TestbedConfig:
    """A complete experiment setup: cluster + job + methodology."""

    __test__ = False  # not a pytest test class despite the name

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    job: JobConfig = None  # type: ignore[assignment]
    #: Root seeds; results are averaged across them (paper: 3 runs).
    seeds: Tuple[int, ...] = (0, 1, 2)
    #: Number of phases the meta-scheduler divides the job into.  The
    #: paper uses 2 in its evaluation (Ph2 folded into Ph3 at 4 waves).
    n_phases: int = 2

    def __post_init__(self) -> None:
        if self.job is None:
            raise ValueError("TestbedConfig requires a job config")
        # 2.0 == 2, so a float would pass a plain membership test and
        # fail deep in the run (plan and phase-slice arithmetic).
        n_phases = self.n_phases
        if (isinstance(n_phases, bool) or not isinstance(n_phases, int)
                or n_phases not in (2, 3)):
            raise ValueError(
                f"TestbedConfig.n_phases must be the int 2 or 3, got "
                f"{n_phases!r}")
        if not self.seeds:
            raise ValueError("at least one seed required")

    def with_(self, **changes) -> "TestbedConfig":
        return replace(self, **changes)


@dataclass
class RunOutcome:
    """Aggregated outcome of one plan over all seeds."""

    solution: Solution
    results: List[JobResult]
    #: Per-run wall-clock stall spent inside elevator switches.
    switch_stalls: List[float] = field(default_factory=list)

    @property
    def mean_duration(self) -> float:
        return mean(r.duration for r in self.results)

    @property
    def mean_phases(self) -> Tuple[float, ...]:
        """Mean per-phase durations, folded to the plan's phase count."""
        n = len(self.solution)
        rows = [self._fold(r, n) for r in self.results]
        return tuple(mean(col) for col in zip(*rows))

    @staticmethod
    def _fold(result: JobResult, n_phases: int) -> Tuple[float, ...]:
        p = result.phases
        if n_phases == 2:
            return (p.ph1, p.ph2 + p.ph3)
        return (p.ph1, p.ph2, p.ph3)
