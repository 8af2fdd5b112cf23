"""repro — Adaptive Disk I/O Scheduling for MapReduce in Virtualized
Environments (Ibrahim et al., ICPP 2011), reproduced in simulation.

The package layers, bottom-up:

* :mod:`repro.sim` — discrete-event kernel (processes, resources, CPU,
  RNG streams, tracing);
* :mod:`repro.disk` — positional disk model and block devices;
* :mod:`repro.iosched` — the four Linux elevators + hot switching;
* :mod:`repro.virt` — DomU/Dom0 two-level I/O stack, page cache, cluster;
* :mod:`repro.net` — max-min fair flow network;
* :mod:`repro.hdfs` / :mod:`repro.mapreduce` — the Hadoop substrate;
* :mod:`repro.workloads` — the paper's benchmarks;
* :mod:`repro.core` — the contribution: phase plans, Algorithm 1,
  switch-cost measurement, the adaptive meta-scheduler;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import quick_adaptive_report
    report = quick_adaptive_report("sort")
    print(report.summary())
"""

__version__ = "1.3.0"

from .api import (
    MultiJobScenario,
    RunResult,
    Scenario,
    scaled_testbed,
    simulate,
    sweep,
)
from .core import (
    AdaptiveMetaScheduler,
    AdaptiveReport,
    Solution,
    SwitchCostMeter,
    TestbedConfig,
)
from .mapreduce import JobConfig, JobResult, JobSpec
from .runner import RunSpec, SweepJobRunner, SweepRunner, SweepStats
from .virt import ClusterConfig, SchedulerPair, VirtualCluster, all_pairs
from .workloads import BENCHMARKS, benchmark

__all__ = [
    "AdaptiveMetaScheduler",
    "AdaptiveReport",
    "BENCHMARKS",
    "ClusterConfig",
    "JobConfig",
    "JobResult",
    "JobSpec",
    "MultiJobScenario",
    "RunResult",
    "RunSpec",
    "Scenario",
    "SchedulerPair",
    "Solution",
    "SweepJobRunner",
    "SweepRunner",
    "SweepStats",
    "SwitchCostMeter",
    "TestbedConfig",
    "VirtualCluster",
    "all_pairs",
    "benchmark",
    "quick_adaptive_report",
    "scaled_testbed",
    "simulate",
    "sweep",
    "__version__",
]


def quick_adaptive_report(benchmark_name: str = "sort", scale: float = 0.125,
                          seeds=(0,)) -> "AdaptiveReport":
    """One-call demo: profile + Algorithm 1 on a scaled testbed.

    ``scale`` shrinks the paper's data sizes (0.125 → 64 MB per VM) so
    the whole pipeline runs in minutes; the winning pairs and the shape
    of the gains are scale-stable (see EXPERIMENTS.md).
    """
    from .api import scaled_testbed

    config = scaled_testbed(benchmark(benchmark_name), scale=scale, seeds=seeds)
    return AdaptiveMetaScheduler(config).report()
