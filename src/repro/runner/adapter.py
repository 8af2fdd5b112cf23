"""The plan runners: score phase plans through a :class:`SweepRunner`.

The adaptive machinery (``profile_single_pairs``, ``HeuristicSearch``,
``AdaptiveMetaScheduler``) drives a runner one plan at a time — an
inherently sequential control flow.  :class:`SweepJobRunner` (one job)
and :class:`SweepChainRunner` (a job chain) are the only
``run_plan``/``score`` implementations.  Every underlying simulation
goes through the sweep runner, so each evaluation parallelises across
seeds, repeats hit the memo/disk cache, and a batch of plans can be
*prefetched* in one parallel wave before the sequential logic reads
them back.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Sequence

from ..core.chains import ChainConfig, ChainOutcome
from ..core.experiment import RunOutcome, TestbedConfig
from ..core.solution import Solution
from ..virt.pair import SchedulerPair
from .kinds import decode_job_result
from .spec import RunSpec
from .sweep import SweepRunner, default_runner

__all__ = ["SweepJobRunner", "SweepChainRunner"]


class _SweepRunnerBase:
    def __init__(self, config, sweep: SweepRunner = None, label: str = ""):
        self.config = config
        self.sweep = sweep if sweep is not None else default_runner()
        self.label = label
        self._outcomes: Dict[Solution, object] = {}

    # -- spec construction ----------------------------------------------------------
    def specs_for(self, solution: Solution) -> List[RunSpec]:
        raise NotImplementedError

    def _label(self, solution: Solution, seed: int) -> str:
        prefix = f"{self.label} " if self.label else ""
        return f"{prefix}[{solution}] seed={seed}"

    # -- the plan-runner surface -----------------------------------------------------
    def run_uniform(self, pair: SchedulerPair):
        return self.run_plan(Solution.uniform(pair, self.config.n_phases))

    def run_plan(self, solution: Solution):
        if len(solution) != self.config.n_phases:
            raise ValueError(
                f"plan has {len(solution)} phases, testbed expects "
                f"{self.config.n_phases}"
            )
        cached = self._outcomes.get(solution)
        if cached is not None:
            return cached
        payloads = self.sweep.run_specs(self.specs_for(solution))
        outcome = self._assemble(solution, payloads)
        self._outcomes[solution] = outcome
        return outcome

    def score(self, solution: Solution) -> float:
        """The paper's ``Hadoop_time``: mean job duration for a plan."""
        return self.run_plan(solution).mean_duration

    def _assemble(self, solution: Solution, payloads: List[dict]):
        raise NotImplementedError

    # -- batching -------------------------------------------------------------------
    def prefetch(self, solutions: Iterable[Solution]) -> None:
        """Run many plans in one parallel wave (results memoised)."""
        self.sweep.run_specs(
            [spec for sol in solutions for spec in self.specs_for(sol)]
        )

    def prefetch_uniform(self, pairs: Sequence[SchedulerPair]) -> None:
        self.prefetch(
            Solution.uniform(pair, self.config.n_phases) for pair in pairs
        )

    def uniform_specs(self, pairs: Sequence[SchedulerPair]) -> List[RunSpec]:
        return [
            spec
            for pair in pairs
            for spec in self.specs_for(
                Solution.uniform(pair, self.config.n_phases)
            )
        ]


class SweepJobRunner(_SweepRunnerBase):
    """Plans over one job: ``job`` specs, one per seed."""

    config: TestbedConfig

    def specs_for(self, solution: Solution) -> List[RunSpec]:
        return [
            RunSpec(
                kind="job",
                seed=seed,
                config=(self.config.with_(seeds=(seed,)), solution),
                label=self._label(solution, seed),
            )
            for seed in self.config.seeds
        ]

    def _assemble(self, solution: Solution, payloads: List[dict]) -> RunOutcome:
        decoded = [decode_job_result(p) for p in payloads]
        return RunOutcome(
            solution=solution,
            results=[result for result, _ in decoded],
            switch_stalls=[stall for _, stall in decoded],
        )


class SweepChainRunner(_SweepRunnerBase):
    """Plans over a job chain: ``chain`` specs, one per seed."""

    config: ChainConfig

    def specs_for(self, solution: Solution) -> List[RunSpec]:
        return [
            RunSpec(
                kind="chain",
                seed=seed,
                config=(replace(self.config, seeds=(seed,)), solution),
                label=self._label(solution, seed),
            )
            for seed in self.config.seeds
        ]

    def _assemble(self, solution: Solution, payloads: List[dict]) -> ChainOutcome:
        return ChainOutcome(
            solution=solution,
            durations=[p["duration"] for p in payloads],
            phase_rows=[tuple(p["phases"]) for p in payloads],
        )
