"""The paper's contribution: adaptive disk-pair scheduling for MapReduce.

Public surface::

    config = TestbedConfig(cluster=ClusterConfig(), job=JobConfig(spec=SORT))
    meta = AdaptiveMetaScheduler(config)
    report = meta.report()
    print(report.summary())
"""

from .bruteforce import BruteForceSearch, enumerate_solutions
from .chains import ChainConfig, ChainOutcome
from .experiment import RunOutcome, TestbedConfig
from .heuristic import (
    HeuristicSearch,
    ProfiledScores,
    SearchResult,
    profile_single_pairs,
)
from .metasched import AdaptiveMetaScheduler, AdaptiveReport
from .online import OnlineController
from .solution import Solution
from .switch_cost import SwitchCostMatrix, SwitchCostMeter, SwitchCostModel

__all__ = [
    "AdaptiveMetaScheduler",
    "AdaptiveReport",
    "BruteForceSearch",
    "ChainConfig",
    "ChainOutcome",
    "OnlineController",
    "HeuristicSearch",
    "ProfiledScores",
    "RunOutcome",
    "SearchResult",
    "Solution",
    "SwitchCostMatrix",
    "SwitchCostMeter",
    "SwitchCostModel",
    "TestbedConfig",
    "enumerate_solutions",
    "profile_single_pairs",
]
