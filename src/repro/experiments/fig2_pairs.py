"""Fig. 2 — Hadoop execution time per scheduler pair, three benchmarks.

Paper claims: (CFQ, CFQ) is optimal for none of the benchmarks; the
variation across pairs is ~1.5% for wordcount, 29% for wordcount w/o
combiner (4.5% excluding Noop-in-VMM), 45% for sort (10% excluding
Noop); the best pair differs per application ((AS, CFQ)-ish for
wordcount, (AS/DL, NP) for wordcount w/o combiner, (AS, DL) for sort).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..mapreduce.job import JobSpec
from ..metrics.summary import format_table
from ..runner import SweepJobRunner, SweepRunner, default_runner
from ..virt.pair import DEFAULT_PAIR, SchedulerPair, all_pairs
from ..workloads.profiles import SORT, WORDCOUNT, WORDCOUNT_NO_COMBINER
from .base import ExperimentResult, ShapeCheck
from ..api import DEFAULT_SCALE, scaled_testbed

__all__ = ["run", "run_one_benchmark", "DEFAULT_BENCHMARKS"]

DEFAULT_BENCHMARKS = (WORDCOUNT, WORDCOUNT_NO_COMBINER, SORT)


def run_one_benchmark(
    spec: JobSpec,
    scale: float = DEFAULT_SCALE,
    seeds: Sequence[int] = (0,),
    pairs: Optional[Sequence[SchedulerPair]] = None,
    runner: Optional[SweepJobRunner] = None,
    sweep: Optional[SweepRunner] = None,
) -> Dict[SchedulerPair, float]:
    """Mean duration per pair for one benchmark."""
    pairs = list(pairs) if pairs is not None else all_pairs()
    if runner is None:
        runner = SweepJobRunner(
            scaled_testbed(spec, scale=scale, seeds=seeds),
            sweep if sweep is not None else default_runner(),
            label=spec.name,
        )
        runner.prefetch_uniform(pairs)
    return {pair: runner.run_uniform(pair).mean_duration for pair in pairs}


def run(
    scale: float = DEFAULT_SCALE,
    seeds: Sequence[int] = (0,),
    pairs: Optional[Sequence[SchedulerPair]] = None,
    benchmarks: Sequence[JobSpec] = DEFAULT_BENCHMARKS,
    sweep: Optional[SweepRunner] = None,
) -> ExperimentResult:
    sweep = sweep if sweep is not None else default_runner()
    pairs = list(pairs) if pairs is not None else all_pairs()
    # One parallel wave over the full (benchmark × pair × seed) matrix.
    runners = {
        spec.name: SweepJobRunner(
            scaled_testbed(spec, scale=scale, seeds=seeds), sweep,
            label=spec.name,
        )
        for spec in benchmarks
    }
    sweep.run_specs(
        [s for r in runners.values() for s in r.uniform_specs(pairs)]
    )
    durations = {
        name: {
            pair: runner.run_uniform(pair).mean_duration for pair in pairs
        }
        for name, runner in runners.items()
    }
    return ExperimentResult(
        experiment_id="fig2",
        title="MapReduce execution time per disk pair scheduler",
        data={
            "durations": durations,
            "pairs": pairs,
            "scale": scale,
            "benchmarks": [s.name for s in benchmarks],
        },
        renderer=_render,
        checker=_check,
    )


def _render(result: ExperimentResult) -> str:
    durations = result.data["durations"]
    pairs = result.data["pairs"]
    names = result.data["benchmarks"]
    rows = [
        [str(pair)] + [durations[name][pair] for name in names]
        for pair in pairs
    ]
    return format_table(
        ["pair"] + list(names),
        rows,
        title=f"execution seconds (scale={result.data['scale']})",
    )


def variation(durations: Dict[SchedulerPair, float],
              exclude_noop_vmm: bool = False) -> float:
    values = [
        d
        for p, d in durations.items()
        if not (exclude_noop_vmm and p.vmm == "noop")
    ]
    return (max(values) - min(values)) / min(values)


def _check(result: ExperimentResult) -> List[ShapeCheck]:
    durations = result.data["durations"]
    names = result.data["benchmarks"]
    checks = []

    for name in names:
        d = durations[name]
        if DEFAULT_PAIR in d:
            best = min(d.values())
            runner_up = min(v for p, v in d.items() if p != DEFAULT_PAIR)
            # Q1: the default must not be the *clear* optimum.  On a
            # CPU-bound benchmark every pair lands within the noise
            # floor, so "clearly optimal" means beating the best
            # non-default pair by more than 1%.
            clearly_optimal = d[DEFAULT_PAIR] < runner_up * 0.99
            checks.append(
                ShapeCheck(
                    f"{name}: default (CFQ, CFQ) is not clearly optimal",
                    not clearly_optimal,
                    f"default {d[DEFAULT_PAIR]:.1f}s vs best {best:.1f}s",
                )
            )

    # Variation ordering: wordcount << wordcount-nocombiner <= sort.
    if set(names) >= {"wordcount", "wordcount-nocombiner", "sort"}:
        v = {name: variation(durations[name]) for name in names}
        checks.append(
            ShapeCheck(
                "variation grows with disk weight (wc < wc-nc <= sort)",
                v["wordcount"] < v["wordcount-nocombiner"]
                and v["wordcount"] < v["sort"],
                ", ".join(f"{n}={100 * x:.0f}%" for n, x in v.items())
                + " (paper: 1.5/29/45%)",
            )
        )
        # Sort: the Anticipatory column should win.
        sort_d = durations["sort"]
        best_pair = min(sort_d, key=sort_d.get)
        checks.append(
            ShapeCheck(
                "sort: best pair has Anticipatory in the VMM",
                best_pair.vmm == "anticipatory",
                f"best={best_pair}",
            )
        )
        # Noop in the VMM is catastrophic for the disk-heavy benchmarks.
        for name in ("wordcount-nocombiner", "sort"):
            d = durations[name]
            noop_worst = min(x for p, x in d.items() if p.vmm == "noop")
            others_best = min(x for p, x in d.items() if p.vmm != "noop")
            checks.append(
                ShapeCheck(
                    f"{name}: Noop-in-VMM clearly penalised",
                    noop_worst > others_best * 1.1,
                    f"best-noop {noop_worst:.1f}s vs best-other {others_best:.1f}s",
                )
            )
    return checks
