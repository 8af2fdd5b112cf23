"""Host-level control-plane details: per-host switching, current_pair."""

import pytest

from repro.disk import SWITCH_CONTROL_LATENCY
from repro.iosched import scheduler_factory
from repro.mapreduce import MB
from repro.sim import Environment
from repro.virt import ClusterConfig, PageCacheParams, SchedulerPair, VirtualCluster


def small_cluster(env):
    return VirtualCluster(
        env,
        ClusterConfig(
            hosts=2,
            vms_per_host=2,
            pagecache=PageCacheParams(
                capacity_bytes=40 * MB,
                dirty_background_bytes=2 * MB,
                dirty_limit_bytes=8 * MB,
            ),
        ),
    )


def test_single_host_switch_leaves_others_alone():
    env = Environment()
    cluster = small_cluster(env)
    done = cluster.hosts[0].set_pair(SchedulerPair("anticipatory", "deadline"))
    env.run(until=done)
    assert cluster.hosts[0].current_pair == SchedulerPair("anticipatory", "deadline")
    assert cluster.hosts[1].current_pair == SchedulerPair("cfq", "cfq")


def test_vmm_only_switch():
    env = Environment()
    cluster = small_cluster(env)
    host = cluster.hosts[0]
    done = host.disk.switch_scheduler(scheduler_factory("noop"))
    env.run(until=done)
    assert host.disk.scheduler.name == "noop"
    for vm in host.vms:
        assert vm.scheduler_name == "cfq"  # guests untouched


def test_guest_only_switch():
    env = Environment()
    cluster = small_cluster(env)
    vm = cluster.vms[0]
    done = vm.switch_scheduler(scheduler_factory("deadline"))
    env.run(until=done)
    assert vm.scheduler_name == "deadline"
    assert cluster.hosts[0].disk.scheduler.name == "cfq"
    # Sibling VM untouched.
    assert cluster.hosts[0].vms[1].scheduler_name == "cfq"


def test_switch_counts_accumulate_per_device():
    env = Environment()
    cluster = small_cluster(env)
    host = cluster.hosts[0]
    for name in ("deadline", "anticipatory", "cfq"):
        done = host.disk.switch_scheduler(scheduler_factory(name))
        env.run(until=done)
    assert host.disk.switch_count == 3


def test_set_pair_fires_switches_concurrently():
    """Dom0 + both guests switch in one round, not serially."""
    env = Environment()
    cluster = small_cluster(env)
    host = cluster.hosts[0]
    done = host.set_pair(SchedulerPair("deadline", "noop"))
    env.run(until=done)
    # On an idle host every switch costs just the control latency; the
    # parallel round completes in ~one latency, not three.
    assert env.now < SWITCH_CONTROL_LATENCY * 2.5
