"""Fig. 6 — per-phase performance score of every pair (sort, 2 phases).

This is the profiling pass the heuristic sorts its candidates by: one
single-pair run per pair, split at the maps-done boundary.  The paper's
point: the per-phase ranking differs from the whole-job ranking, which
is what makes multi-pair plans winnable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.heuristic import ProfiledScores, profile_single_pairs
from ..metrics.summary import format_table
from ..runner import SweepJobRunner, SweepRunner, default_runner
from ..virt.pair import SchedulerPair, all_pairs
from ..workloads.profiles import SORT
from .base import ExperimentResult, ShapeCheck
from ..api import DEFAULT_SCALE, scaled_testbed

__all__ = ["run"]


def run(
    scale: float = DEFAULT_SCALE,
    seeds: Sequence[int] = (0,),
    pairs: Optional[Sequence[SchedulerPair]] = None,
    runner: Optional[SweepJobRunner] = None,
    sweep: Optional[SweepRunner] = None,
) -> ExperimentResult:
    pairs = list(pairs) if pairs is not None else all_pairs()
    if runner is None:
        runner = SweepJobRunner(
            scaled_testbed(SORT, scale=scale, seeds=seeds),
            sweep if sweep is not None else default_runner(),
            label="fig6 sort",
        )
    scores = profile_single_pairs(runner, pairs)
    # One multi-pair evaluation: the paper's point is that plans mixing
    # pairs across phases can beat every uniform plan; the profile
    # orders the candidates, full job runs decide (Algorithm 1's
    # evaluation step).  Pair the default with the best-single tail.
    from ..core.solution import Solution
    from ..virt.pair import DEFAULT_PAIR

    best_single = min(scores.totals, key=scores.totals.get)
    mixed_plan = Solution.of([DEFAULT_PAIR, best_single])
    mixed_score = (
        runner.score(mixed_plan) if mixed_plan.n_switches > 0 else None
    )
    return ExperimentResult(
        experiment_id="fig6",
        title="Per-phase performance score of each pair (sort)",
        data={
            "scores": scores,
            "scale": scale,
            "mixed_plan": mixed_plan,
            "mixed_score": mixed_score,
        },
        renderer=_render,
        checker=_check,
    )


def _render(result: ExperimentResult) -> str:
    scores: ProfiledScores = result.data["scores"]
    rows = [
        [str(pair)] + list(scores.per_phase[pair]) + [scores.totals[pair]]
        for pair in scores.per_phase
    ]
    n = scores.n_phases
    return format_table(
        ["pair"] + [f"phase {i + 1} s" for i in range(n)] + ["total s"],
        rows,
        title=f"single-pair runs split at phase boundaries (scale={result.data['scale']})",
    )


def _check(result: ExperimentResult) -> List[ShapeCheck]:
    scores: ProfiledScores = result.data["scores"]
    checks = []
    best_total = min(scores.totals, key=scores.totals.get)

    # The per-phase rankings must carry information beyond the total
    # ranking — otherwise sorting candidates per phase (Algorithm 1's
    # input) would be pointless.
    k = min(6, len(scores.totals))
    rankings = [
        tuple(scores.ranked_for_phase(i)[:k]) for i in range(scores.n_phases)
    ]
    total_ranking = tuple(
        sorted(scores.totals, key=scores.totals.get)[:k]
    )
    checks.append(
        ShapeCheck(
            "per-phase rankings differ from the whole-job ranking",
            any(r != total_ranking for r in rankings)
            or len(set(rankings)) > 1,
            f"phase-1 top: {', '.join(str(p) for p in rankings[0][:3])}; "
            f"last phase top: {', '.join(str(p) for p in rankings[-1][:3])}",
        )
    )
    # The adaptive opportunity itself: a plan mixing two pairs across
    # the phases, evaluated with a real job run, beats every uniform
    # plan (this is what the profile cannot show and the heuristic's
    # full-run evaluations can).
    mixed_score = result.data.get("mixed_score")
    if mixed_score is not None:
        checks.append(
            ShapeCheck(
                "a mixed-pair plan beats the best single pair",
                mixed_score < scores.totals[best_total] + 1e-9,
                f"[{result.data['mixed_plan']}] {mixed_score:.1f}s vs "
                f"uniform {best_total} {scores.totals[best_total]:.1f}s",
            )
        )
    return checks
