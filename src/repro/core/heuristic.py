"""Algorithm 1: heuristic assignment of scheduler pairs to phases.

The search fixes one phase at a time.  For phase *i* it walks the
candidate pairs in the order of their *per-phase* performance from the
single-pair profiling runs (the paper's Fig. 6), evaluating each
candidate in a full job run with the already-fixed prefix and with all
remaining phases pinned to the best single pair for "the left phases
together" (``S_{i+1}``) so every candidate gets a fair tail.  It stops
at the first candidate that fails to improve, then fixes the phase —
emitting the paper's ``0`` (no switch) when the winner equals the last
fixed pair.  Worst case ``P × S`` evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..virt.pair import SchedulerPair, all_pairs
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover
    from ..runner.adapter import SweepChainRunner, SweepJobRunner

__all__ = ["ProfiledScores", "profile_single_pairs", "HeuristicSearch", "SearchResult"]


@dataclass
class ProfiledScores:
    """Per-pair scores from the single-pair profiling runs (Fig. 6)."""

    #: pair -> total job duration.
    totals: Dict[SchedulerPair, float]
    #: pair -> per-phase durations.
    per_phase: Dict[SchedulerPair, Tuple[float, ...]]

    @property
    def n_phases(self) -> int:
        return len(next(iter(self.per_phase.values())))

    def ranked_for_phase(self, phase: int) -> List[SchedulerPair]:
        """Pairs sorted best-first by their phase-``phase`` duration."""
        return sorted(self.per_phase, key=lambda p: self.per_phase[p][phase])

    def best_for_remaining(self, first_phase: int) -> SchedulerPair:
        """``S_{i+1}``: best pair for phases ``first_phase..P`` combined."""
        def tail(pair: SchedulerPair) -> float:
            return sum(self.per_phase[pair][first_phase:])

        return min(self.per_phase, key=tail)

    def best_single(self) -> Tuple[SchedulerPair, float]:
        pair = min(self.totals, key=self.totals.get)
        return pair, self.totals[pair]


def profile_single_pairs(
    runner: "SweepJobRunner | SweepChainRunner",
    pairs: Optional[Sequence[SchedulerPair]] = None,
) -> ProfiledScores:
    """Run the job once per pair (the paper's initial profiling pass).

    The profiling runs are independent, so the runner executes them as
    one parallel batch before the sequential read-back below.
    """
    pairs = list(pairs) if pairs is not None else all_pairs()
    runner.prefetch_uniform(pairs)
    totals: Dict[SchedulerPair, float] = {}
    per_phase: Dict[SchedulerPair, Tuple[float, ...]] = {}
    for pair in pairs:
        outcome = runner.run_uniform(pair)
        totals[pair] = outcome.mean_duration
        per_phase[pair] = outcome.mean_phases
    return ProfiledScores(totals=totals, per_phase=per_phase)


@dataclass
class SearchResult:
    """What the heuristic found and what it cost to find it."""

    solution: Solution
    score: float
    evaluations: int
    #: (candidate solution, score) in evaluation order.
    history: List[Tuple[Solution, float]] = field(default_factory=list)


class HeuristicSearch:
    """The paper's Algorithm 1 over a plan runner (one job or a chain)."""

    def __init__(
        self,
        runner: "SweepJobRunner | SweepChainRunner",
        scores: ProfiledScores,
        pairs: Optional[Sequence[SchedulerPair]] = None,
    ):
        self.runner = runner
        self.scores = scores
        self.pairs = list(pairs) if pairs is not None else list(scores.per_phase)
        self.n_phases = runner.config.n_phases
        if scores.n_phases != self.n_phases:
            raise ValueError("profiled scores phase count mismatch")

    # -- the algorithm ------------------------------------------------------------
    def search(self) -> SearchResult:
        history: List[Tuple[Solution, float]] = []
        evaluations = 0
        fixed: List[Optional[SchedulerPair]] = []

        def evaluate(candidate_pair: SchedulerPair, phase: int) -> float:
            nonlocal evaluations
            plan = self._plan_with(fixed, candidate_pair, phase)
            score = self.runner.score(plan)
            evaluations += 1
            history.append((plan, score))
            return score

        for phase in range(self.n_phases):
            order = [
                p for p in self.scores.ranked_for_phase(phase) if p in self.pairs
            ]
            j = 0
            current_score = evaluate(order[j], phase)
            while j + 1 < len(order):
                next_score = evaluate(order[j + 1], phase)
                if next_score < current_score:
                    j += 1
                    current_score = next_score
                else:
                    break
            chosen = order[j]
            last_effective = self._last_effective(fixed)
            if last_effective is not None and chosen == last_effective:
                fixed.append(None)  # the paper's 0: no switch
            else:
                fixed.append(chosen)

        solution = Solution(tuple(fixed))
        return SearchResult(
            solution=solution,
            score=self.runner.score(solution),
            evaluations=evaluations,
            history=history,
        )

    # -- helpers --------------------------------------------------------------------
    def _plan_with(
        self,
        fixed: List[Optional[SchedulerPair]],
        candidate: SchedulerPair,
        phase: int,
    ) -> Solution:
        """(Sol_{i-1}, s_i^j, S_{i+1}) as a runnable plan."""
        slots: List[Optional[SchedulerPair]] = list(fixed)
        last = self._last_effective(fixed)
        slots.append(None if candidate == last else candidate)
        if phase + 1 < self.n_phases:
            tail_pair = self.scores.best_for_remaining(phase + 1)
            tail_last = candidate
            slots.append(None if tail_pair == tail_last else tail_pair)
            # All remaining phases run the same S_{i+1} pair: no further
            # switches.
            slots.extend([None] * (self.n_phases - phase - 2))
        return Solution(tuple(slots))

    @staticmethod
    def _last_effective(
        fixed: List[Optional[SchedulerPair]],
    ) -> Optional[SchedulerPair]:
        for assignment in reversed(fixed):
            if assignment is not None:
                return assignment
        return None
