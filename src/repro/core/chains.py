"""Job chains (the paper's Pig motivation for the heuristic).

A chain of K MapReduce jobs has 2K phases; at S = 16 pairs the solution
space ``S^(2K)`` explodes (16⁴ = 65536 plans for two jobs), which is
the paper's argument for a heuristic bounded by ``P × S`` evaluations.
:func:`run_chain` executes a chain inside one simulation — each job
reads the previous job's HDFS output.  Plans over a chain are scored by
:class:`~repro.runner.adapter.SweepChainRunner`, so
:class:`~repro.core.heuristic.HeuristicSearch` and
:class:`~repro.core.bruteforce.BruteForceSearch` run on chains
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import List, Tuple

from ..hdfs.namenode import NameNode
from ..mapreduce.job import JobConfig
from ..mapreduce.jobtracker import MapReduceJob
from ..net.topology import Topology
from ..virt.cluster import ClusterConfig
from .solution import Solution

__all__ = ["ChainConfig", "ChainOutcome", "run_chain"]


@dataclass(frozen=True)
class ChainConfig:
    """A chain of jobs over one cluster; duck-types TestbedConfig."""

    cluster: ClusterConfig
    jobs: Tuple[JobConfig, ...]
    seeds: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a chain needs at least one job")
        if not self.seeds:
            raise ValueError("at least one seed required")

    @property
    def n_phases(self) -> int:
        """Two phases per job: maps-running / shuffle+reduce."""
        return 2 * len(self.jobs)


@dataclass
class ChainOutcome:
    """Aggregated chain execution (RunOutcome-compatible)."""

    solution: Solution
    durations: List[float]
    phase_rows: List[Tuple[float, ...]]

    @property
    def mean_duration(self) -> float:
        return mean(self.durations)

    @property
    def mean_phases(self) -> Tuple[float, ...]:
        return tuple(mean(col) for col in zip(*self.phase_rows))


def run_chain(config: ChainConfig, solution: Solution, seed: int,
              trace=None) -> Tuple[float, Tuple[float, ...]]:
    """One uncached chained run: ``(duration, per-phase durations)``."""
    # Imported here, not at module level: repro.api sits above core.
    from ..api import assemble_cluster

    env, cluster = assemble_cluster(
        config.cluster.with_(initial_pair=solution.assignments[0]),
        seed=seed, trace=trace,
    )
    topology = Topology(env)
    boundaries: List[float] = []
    driver = env.process(_drive_chain(env, cluster, topology, config.jobs,
                                      solution, boundaries, trace))
    env.run(until=driver)
    duration = env.now
    marks = [0.0] + boundaries + [duration]
    phases = tuple(b - a for a, b in zip(marks, marks[1:]))
    return duration, phases


def _drive_chain(env, cluster, topology, jobs: Tuple[JobConfig, ...],
                 solution: Solution, boundaries: List[float], trace):
    assignments = solution.assignments
    phase = 0
    prev_output = None
    carry_over = {}
    for idx, job_config in enumerate(jobs):
        # Chain the data: job i+1 consumes job i's output.
        if prev_output is not None:
            job_config = job_config.with_(
                input_path=prev_output,
                output_path=f"{job_config.output_path}_{idx}",
            )
        namenode = NameNode(cluster, block_size=job_config.block_size)
        namenode._files.update(carry_over)  # noqa: SLF001 - handoff
        job = MapReduceJob(env, cluster, topology, namenode, job_config,
                           trace=trace)
        proc = job.start()

        # Phase boundary: entering this job (switch if planned).
        if phase > 0:
            boundaries.append(env.now)
            if assignments[phase] is not None:
                yield cluster.set_pair(assignments[phase])
        phase += 1

        # Phase boundary: this job's maps-done.
        yield job.maps_done_event
        boundaries.append(env.now)
        if assignments[phase] is not None:
            yield cluster.set_pair(assignments[phase])
        phase += 1

        yield proc
        prev_output = job_config.output_path
        carry_over = {prev_output: namenode.lookup(prev_output)}
    return env.now
