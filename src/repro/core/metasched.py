"""The adaptive meta-scheduler: the paper's end-to-end method.

Given an application (a :class:`~repro.core.experiment.TestbedConfig`),
the meta-scheduler (1) profiles the job once per candidate pair,
(2) runs Algorithm 1 to assign pairs to phases, and (3) reports the
adaptive plan next to the paper's two baselines — the default
(CFQ, CFQ) and the best single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..virt.pair import DEFAULT_PAIR, SchedulerPair, all_pairs
from .experiment import TestbedConfig
from .heuristic import HeuristicSearch, ProfiledScores, SearchResult, profile_single_pairs
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover
    from ..runner.adapter import SweepJobRunner

__all__ = ["AdaptiveMetaScheduler", "AdaptiveReport"]


@dataclass
class AdaptiveReport:
    """The paper's Fig. 7 triple for one workload/configuration."""

    default_pair: SchedulerPair
    default_time: float
    best_single_pair: SchedulerPair
    best_single_time: float
    adaptive_solution: Solution
    adaptive_time: float
    evaluations: int
    scores: ProfiledScores

    @property
    def gain_vs_default(self) -> float:
        """Fractional improvement over (CFQ, CFQ)."""
        return 1.0 - self.adaptive_time / self.default_time

    @property
    def gain_vs_best_single(self) -> float:
        return 1.0 - self.adaptive_time / self.best_single_time

    def summary(self) -> str:
        return (
            f"default {self.default_pair} {self.default_time:.1f}s | "
            f"best-single {self.best_single_pair} {self.best_single_time:.1f}s | "
            f"adaptive [{self.adaptive_solution}] {self.adaptive_time:.1f}s "
            f"({100 * self.gain_vs_default:.1f}% vs default, "
            f"{100 * self.gain_vs_best_single:.1f}% vs best single)"
        )


class AdaptiveMetaScheduler:
    """Profile → search → report, on one testbed configuration.

    Without a ``runner``, plans run serially through a private
    :class:`~repro.runner.sweep.SweepRunner` that memoises in memory
    and writes nothing to disk.
    """

    def __init__(
        self,
        config: TestbedConfig,
        pairs: Optional[Sequence[SchedulerPair]] = None,
        runner: Optional["SweepJobRunner"] = None,
    ):
        if runner is None:
            # Imported here, not at module level: the runner layer sits
            # above core.
            from ..runner import SweepJobRunner, SweepRunner

            runner = SweepJobRunner(config, SweepRunner(jobs=1,
                                                        use_cache=False))
        self.config = config
        self.pairs = list(pairs) if pairs is not None else all_pairs()
        self.runner = runner
        self._scores: Optional[ProfiledScores] = None
        self._search: Optional[SearchResult] = None

    # -- stages ------------------------------------------------------------------
    def profile(self) -> ProfiledScores:
        """Single-pair profiling runs (cached)."""
        if self._scores is None:
            self._scores = profile_single_pairs(self.runner, self.pairs)
        return self._scores

    def optimize(self) -> SearchResult:
        """Algorithm 1 over the profiled scores (cached)."""
        if self._search is None:
            search = HeuristicSearch(self.runner, self.profile(), self.pairs)
            self._search = search.search()
        return self._search

    # -- the full report ------------------------------------------------------------
    def report(self) -> AdaptiveReport:
        scores = self.profile()
        search = self.optimize()
        best_pair, best_time = scores.best_single()
        default_time = scores.totals.get(DEFAULT_PAIR)
        if default_time is None:
            default_time = self.runner.run_uniform(DEFAULT_PAIR).mean_duration
        return AdaptiveReport(
            default_pair=DEFAULT_PAIR,
            default_time=default_time,
            best_single_pair=best_pair,
            best_single_time=best_time,
            adaptive_solution=search.solution,
            adaptive_time=search.score,
            evaluations=search.evaluations + len(scores.totals),
            scores=scores,
        )
