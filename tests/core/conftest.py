"""Shared fixtures: a tiny testbed so core tests stay fast."""

import pytest

from repro.core import TestbedConfig
from repro.mapreduce import MB, JobConfig
from repro.runner import SweepJobRunner, SweepRunner
from repro.virt import ClusterConfig, PageCacheParams, SchedulerPair
from repro.workloads import SORT


def tiny_testbed(seeds=(0,), n_phases=2, **job_overrides):
    """2 hosts x 2 VMs, 32 MB per VM: a job runs in <1 s of wall time."""
    cluster = ClusterConfig(
        hosts=2,
        vms_per_host=2,
        pagecache=PageCacheParams(
            capacity_bytes=40 * MB,
            dirty_background_bytes=2 * MB,
            dirty_limit_bytes=8 * MB,
        ),
    )
    job = JobConfig(
        spec=SORT,
        bytes_per_vm=32 * MB,
        block_size=8 * MB,
        sort_buffer_bytes=8 * MB,
        shuffle_buffer_bytes=8 * MB,
        **job_overrides,
    )
    return TestbedConfig(cluster=cluster, job=job, seeds=seeds,
                         n_phases=n_phases)


def plan_runner(testbed):
    """A serial plan runner that memoises in memory only (no disk)."""
    return SweepJobRunner(testbed, SweepRunner(jobs=1, use_cache=False))


@pytest.fixture
def testbed():
    return tiny_testbed()


@pytest.fixture
def runner(testbed):
    return plan_runner(testbed)


#: A small pair subset used by search tests (4 plans at P=2 -> 16).
SEARCH_PAIRS = [
    SchedulerPair("cfq", "cfq"),
    SchedulerPair("anticipatory", "cfq"),
    SchedulerPair("deadline", "cfq"),
    SchedulerPair("noop", "cfq"),
]
