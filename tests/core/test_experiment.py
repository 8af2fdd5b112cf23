"""Tests for plan execution (plans, caching, switching)."""

import pytest

from repro.core import Solution, TestbedConfig
from repro.mapreduce import JobConfig, MB
from repro.virt import ClusterConfig, SchedulerPair
from repro.workloads import SORT

from .conftest import plan_runner, tiny_testbed

CC = SchedulerPair("cfq", "cfq")
AD = SchedulerPair("anticipatory", "deadline")
DD = SchedulerPair("deadline", "deadline")


def test_uniform_run_produces_results_per_seed():
    runner = plan_runner(tiny_testbed(seeds=(0, 1)))
    outcome = runner.run_uniform(CC)
    assert len(outcome.results) == 2
    assert outcome.mean_duration > 0
    assert len(outcome.mean_phases) == 2
    assert sum(outcome.mean_phases) == pytest.approx(outcome.mean_duration,
                                                     rel=0.01)


def test_runner_caches_identical_plans():
    runner = plan_runner(tiny_testbed())
    runner.run_uniform(CC)
    n = runner.sweep.stats.executed
    runner.run_uniform(CC)
    assert runner.sweep.stats.executed == n == 1


def test_score_equals_mean_duration():
    runner = plan_runner(tiny_testbed())
    plan = Solution.uniform(CC, 2)
    assert runner.score(plan) == runner.run_plan(plan).mean_duration


def test_plan_with_switch_executes_and_pays_stall():
    runner = plan_runner(tiny_testbed())
    outcome = runner.run_plan(Solution((CC, AD)))
    assert outcome.mean_duration > 0
    # The phase-2 switch stalled the devices for a measurable time.
    assert all(stall > 0 for stall in outcome.switch_stalls)


def test_uniform_plan_has_zero_stall():
    runner = plan_runner(tiny_testbed())
    outcome = runner.run_plan(Solution((CC, None)))
    assert all(stall == 0 for stall in outcome.switch_stalls)


def test_plan_phase_count_must_match():
    runner = plan_runner(tiny_testbed(n_phases=2))
    with pytest.raises(ValueError):
        runner.run_plan(Solution((CC, AD, DD)))


def test_three_phase_plans_supported():
    runner = plan_runner(tiny_testbed(n_phases=3))
    outcome = runner.run_plan(Solution((CC, AD, DD)))
    assert outcome.mean_duration > 0
    assert len(outcome.mean_phases) == 3


def test_deterministic_same_seed_same_score():
    r1 = plan_runner(tiny_testbed())
    r2 = plan_runner(tiny_testbed())
    assert r1.score(Solution.uniform(AD, 2)) == pytest.approx(
        r2.score(Solution.uniform(AD, 2))
    )


def test_config_validation():
    with pytest.raises(ValueError):
        TestbedConfig(cluster=ClusterConfig(), job=None)
    job = JobConfig(spec=SORT, bytes_per_vm=8 * MB, block_size=8 * MB)
    with pytest.raises(ValueError):
        TestbedConfig(cluster=ClusterConfig(), job=job, n_phases=5)
    with pytest.raises(ValueError):
        TestbedConfig(cluster=ClusterConfig(), job=job, seeds=())


def test_switch_changes_installed_pair():
    """After a planned switch the cluster really runs the new pair."""
    from repro.api import assemble_job

    config = tiny_testbed()
    job = assemble_job(config.cluster.with_(initial_pair=CC), config.job)
    env, cluster = job.env, job.cluster
    proc = job.start()

    def switcher():
        yield job.maps_done_event
        yield cluster.set_pair(AD)

    env.process(switcher())
    env.run(until=proc)
    host = cluster.hosts[0]
    assert host.disk.scheduler.name == "anticipatory"
    assert host.vms[0].scheduler_name == "deadline"
