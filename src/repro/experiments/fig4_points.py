"""Fig. 4 — performance at different points of the sort job per pair.

The paper plots the running time at successive points of the job for
several pairs against the (CFQ, CFQ) baseline and concludes that the
pair that wins overall — (AS, DL) — is not the best at every point; an
oracle choosing the best pair per sub-phase would gain ~26% over the
default and ~15% over (AS, DL).

We report the time each pair takes to reach map-progress checkpoints
plus the phase boundaries, and compute the same oracle bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..metrics.summary import format_table
from ..metrics.timeline import ProgressTimeline
from ..runner import SweepJobRunner, SweepRunner, default_runner
from ..virt.pair import DEFAULT_PAIR, SchedulerPair
from ..workloads.profiles import SORT
from .base import ExperimentResult, ShapeCheck
from ..api import DEFAULT_SCALE, scaled_testbed

__all__ = ["run", "DEFAULT_POINT_PAIRS", "CHECKPOINTS"]

#: The pairs the paper's Fig. 4 tracks (one per VMM scheduler).
DEFAULT_POINT_PAIRS = (
    SchedulerPair("cfq", "cfq"),
    SchedulerPair("deadline", "deadline"),
    SchedulerPair("anticipatory", "deadline"),
    SchedulerPair("noop", "noop"),
)

#: Map-progress checkpoints, then the job end.
CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)


def run(
    scale: float = DEFAULT_SCALE,
    seeds: Sequence[int] = (0,),
    pairs: Sequence[SchedulerPair] = DEFAULT_POINT_PAIRS,
    runner: Optional[SweepJobRunner] = None,
    sweep: Optional[SweepRunner] = None,
) -> ExperimentResult:
    if runner is None:
        runner = SweepJobRunner(
            scaled_testbed(SORT, scale=scale, seeds=seeds),
            sweep if sweep is not None else default_runner(),
            label="fig4 sort",
        )
        runner.prefetch_uniform(pairs)
    points: Dict[SchedulerPair, List[float]] = {}
    totals: Dict[SchedulerPair, float] = {}
    segments: Dict[SchedulerPair, List[float]] = {}
    for pair in pairs:
        outcome = runner.run_uniform(pair)
        result = outcome.results[0]
        timeline = ProgressTimeline.of(result.map_progress)
        marks = [timeline.time_at_fraction(f) for f in CHECKPOINTS]
        marks.append(result.duration)
        points[pair] = marks
        totals[pair] = outcome.mean_duration
        segments[pair] = [marks[0]] + [
            b - a for a, b in zip(marks, marks[1:])
        ]
    return ExperimentResult(
        experiment_id="fig4",
        title="Running time at successive points of the sort job",
        data={
            "points": points,
            "segments": segments,
            "totals": totals,
            "pairs": list(pairs),
            "scale": scale,
        },
        renderer=_render,
        checker=_check,
    )


def _headers() -> List[str]:
    return [f"maps {int(f * 100)}%" for f in CHECKPOINTS] + ["job done"]


def _render(result: ExperimentResult) -> str:
    rows = [
        [str(pair)] + marks for pair, marks in result.data["points"].items()
    ]
    return format_table(
        ["pair"] + _headers(),
        rows,
        title=f"seconds to reach each point (scale={result.data['scale']})",
    )


def oracle_time(segments: Dict[SchedulerPair, List[float]]) -> float:
    """Best per-segment pair stitched together (no switch cost)."""
    n = len(next(iter(segments.values())))
    return sum(min(seg[i] for seg in segments.values()) for i in range(n))


def _check(result: ExperimentResult) -> List[ShapeCheck]:
    totals = result.data["totals"]
    segments = result.data["segments"]
    checks = []
    best_pair = min(totals, key=totals.get)
    per_segment_winners = set()
    n = len(next(iter(segments.values())))
    for i in range(n):
        per_segment_winners.add(
            min(segments, key=lambda p: segments[p][i])
        )
    checks.append(
        ShapeCheck(
            "no single pair optimal at every point",
            len(per_segment_winners) > 1 or best_pair not in per_segment_winners,
            f"segment winners: {', '.join(str(p) for p in per_segment_winners)}",
        )
    )
    oracle = oracle_time(segments)
    if DEFAULT_PAIR in totals:
        gain_default = 1 - oracle / totals[DEFAULT_PAIR]
        checks.append(
            ShapeCheck(
                "oracle per-subphase beats default",
                gain_default > 0.03,
                f"{100 * gain_default:.1f}% (paper ~26%)",
            )
        )
    gain_best = 1 - oracle / totals[best_pair]
    checks.append(
        ShapeCheck(
            "oracle per-subphase beats the best single pair",
            gain_best > 0.0,
            f"{100 * gain_best:.1f}% (paper ~15%)",
        )
    )
    return checks
