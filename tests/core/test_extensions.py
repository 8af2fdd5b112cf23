"""Tests for the future-work extensions: online controller, job chains."""

import pytest

from repro.core import (
    ChainConfig,
    HeuristicSearch,
    OnlineController,
    Solution,
    profile_single_pairs,
)
from repro.core.online import classify
from repro.hdfs import NameNode
from repro.mapreduce import MB, JobConfig, MapReduceJob
from repro.net import Topology
from repro.runner import SweepChainRunner, SweepRunner
from repro.sim import Environment
from repro.virt import ClusterConfig, PageCacheParams, SchedulerPair, VirtualCluster
from repro.workloads import SORT, WORDCOUNT

from .conftest import SEARCH_PAIRS, tiny_testbed

CC = SchedulerPair("cfq", "cfq")
AD = SchedulerPair("anticipatory", "deadline")


def small_cluster_config():
    return ClusterConfig(
        hosts=2,
        vms_per_host=2,
        pagecache=PageCacheParams(
            capacity_bytes=40 * MB,
            dirty_background_bytes=2 * MB,
            dirty_limit_bytes=8 * MB,
        ),
    )


def small_job(spec=SORT, **over):
    defaults = dict(
        bytes_per_vm=16 * MB,
        block_size=8 * MB,
        sort_buffer_bytes=8 * MB,
        shuffle_buffer_bytes=8 * MB,
    )
    defaults.update(over)
    return JobConfig(spec=spec, **defaults)


# -- online controller ------------------------------------------------------------


def test_online_controller_reacts_and_job_completes():
    env = Environment()
    cluster = VirtualCluster(env, small_cluster_config())
    topo = Topology(env)
    nn = NameNode(cluster, block_size=8 * MB)
    job = MapReduceJob(env, cluster, topo, nn, small_job(bytes_per_vm=32 * MB))
    controller = OnlineController(env, cluster)
    proc = job.start()
    env.run(until=proc)
    result = proc.value
    assert result.duration > 0
    # The controller observed the workload and made decisions.
    assert controller.decisions or controller.switches == 0
    # Decisions reference real hosts.
    for _, host, regime in controller.decisions:
        assert host in {"h0", "h1"}
        assert regime in {"read-heavy", "write-heavy", "mixed"}


def test_online_policy_classification():
    assert classify(0.8) == "read-heavy"
    assert classify(0.1) == "write-heavy"
    assert classify(0.45) == "mixed"


# -- job chains ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain_runner():
    config = ChainConfig(
        cluster=small_cluster_config(),
        jobs=(small_job(WORDCOUNT), small_job(SORT)),
        seeds=(0,),
    )
    return SweepChainRunner(config, SweepRunner(jobs=1, use_cache=False))


def test_chain_has_two_phases_per_job(chain_runner):
    assert chain_runner.config.n_phases == 4


def test_chain_uniform_run_executes_both_jobs(chain_runner):
    outcome = chain_runner.run_uniform(CC)
    assert outcome.mean_duration > 0
    phases = outcome.mean_phases
    assert len(phases) == 4
    assert all(p >= 0 for p in phases)
    assert sum(phases) == pytest.approx(outcome.mean_duration, rel=0.01)


def test_chain_plan_with_switches_runs(chain_runner):
    plan = Solution((CC, AD, None, CC))
    outcome = chain_runner.run_plan(plan)
    assert outcome.mean_duration > 0


def test_chain_wrong_phase_count_rejected(chain_runner):
    with pytest.raises(ValueError):
        chain_runner.score(Solution.uniform(CC, 2))


def test_chain_caching(chain_runner):
    chain_runner.run_uniform(CC)
    n = chain_runner.sweep.stats.executed
    chain_runner.run_uniform(CC)
    assert chain_runner.sweep.stats.executed == n


def test_heuristic_runs_on_chain(chain_runner):
    """Algorithm 1 over a 4-phase chain: <= P x S evaluations."""
    pairs = SEARCH_PAIRS[:3]
    scores = profile_single_pairs(chain_runner, pairs)
    assert scores.n_phases == 4
    result = HeuristicSearch(chain_runner, scores, pairs).search()
    assert len(result.solution) == 4
    assert result.evaluations <= 4 * len(pairs)
    best_single = min(scores.totals.values())
    assert result.score <= best_single * 1.1


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(cluster=small_cluster_config(), jobs=())
    with pytest.raises(ValueError):
        ChainConfig(cluster=small_cluster_config(), jobs=(small_job(),), seeds=())
