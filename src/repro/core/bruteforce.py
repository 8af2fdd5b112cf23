"""Exhaustive search over the ``S^P`` solution space.

The paper argues this is impractical as phases multiply (Pig chains,
finer phase splits) and uses it only as the conceptual baseline;
we implement it to measure the heuristic's optimality gap on small
instances (tests + the ablation bench).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..virt.pair import SchedulerPair, all_pairs
from .heuristic import SearchResult
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover
    from ..runner.adapter import SweepChainRunner, SweepJobRunner

__all__ = ["BruteForceSearch", "enumerate_solutions"]


def enumerate_solutions(
    pairs: Sequence[SchedulerPair], n_phases: int
) -> List[Solution]:
    """All distinct *effective* plans (repeats collapsed to no-switch).

    Two textual plans with the same effective pair per phase execute
    identically except for pointless same-to-same switches, which no
    sane plan performs — so we enumerate effective assignments only:
    still ``S^P`` plans.
    """
    if n_phases < 1:
        raise ValueError("n_phases must be >= 1")
    out = []
    for combo in itertools.product(pairs, repeat=n_phases):
        out.append(Solution.of(combo))
    # Solutions.of collapses repeats, so duplicates cannot arise; keep
    # the order deterministic for reproducible argmin tie-breaks.
    return out


class BruteForceSearch:
    """Evaluate every plan; optimal but exponential."""

    def __init__(self, runner: "SweepJobRunner | SweepChainRunner",
                 pairs: Optional[Sequence[SchedulerPair]] = None):
        self.runner = runner
        self.pairs = list(pairs) if pairs is not None else all_pairs()

    def search(self) -> SearchResult:
        history: List[Tuple[Solution, float]] = []
        best: Optional[Solution] = None
        best_score = float("inf")
        plans = enumerate_solutions(self.pairs, self.runner.config.n_phases)
        for plan in plans:
            score = self.runner.score(plan)
            history.append((plan, score))
            if score < best_score:
                best, best_score = plan, score
        assert best is not None
        return SearchResult(
            solution=best,
            score=best_score,
            evaluations=len(plans),
            history=history,
        )
