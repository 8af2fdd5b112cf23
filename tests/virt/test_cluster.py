"""Tests for PhysicalHost, VM, and the cluster builder."""

import pytest

from repro.iosched import scheduler_factory
from repro.sim import Environment
from repro.virt import ClusterConfig, SchedulerPair, VirtualCluster

MB = 1024 * 1024


def small_config(**overrides):
    return ClusterConfig(**{"hosts": 2, "vms_per_host": 2, **overrides})


def test_cluster_builds_requested_shape():
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    assert len(cluster.hosts) == 2
    assert len(cluster.vms) == 4
    assert {vm.vm_id for vm in cluster.vms} == {"h0v0", "h0v1", "h1v0", "h1v1"}


def test_initial_pair_installed_everywhere():
    env = Environment()
    pair = SchedulerPair("anticipatory", "deadline")
    cluster = VirtualCluster(env, small_config(initial_pair=pair))
    for host in cluster.hosts:
        assert host.disk.scheduler.name == "anticipatory"
        for vm in host.vms:
            assert vm.scheduler_name == "deadline"
    assert cluster.current_pair == pair


def test_vm_images_are_disjoint_and_spread():
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    host = cluster.hosts[0]
    offs = [vm.vdisk.lba_offset for vm in host.vms]
    caps = [vm.vdisk.capacity_sectors for vm in host.vms]
    assert offs[0] + caps[0] <= offs[1]
    # Images are spread across the platter: gap is a sizable fraction.
    assert offs[1] - offs[0] >= host.geometry.total_sectors // 4


def test_set_pair_switches_all_levels():
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    target = SchedulerPair("deadline", "noop")
    done = cluster.set_pair(target)
    env.run(until=done)
    for host in cluster.hosts:
        assert host.disk.scheduler.name == "deadline"
        for vm in host.vms:
            assert vm.scheduler_name == "noop"
    assert cluster.current_pair == target


def test_host_current_pair_reports_installed():
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    host = cluster.hosts[0]
    assert host.current_pair == SchedulerPair("cfq", "cfq")


def test_host_full_rejects_extra_vm():
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    host = cluster.hosts[0]
    with pytest.raises(RuntimeError):
        host.add_vm("extra", scheduler_factory("cfq"))


def test_vm_lookup():
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    vm = cluster.vm("h1v0")
    assert vm.vm_id == "h1v0"
    assert cluster.host_of(vm).name == "h1"
    with pytest.raises(KeyError) as unknown:
        cluster.vm("nope")
    assert unknown.value.args == ("nope",)


def test_vm_end_to_end_file_io():
    """A VM writes a file, syncs it, reads it back — across the stack."""
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    vm = cluster.vms[0]
    host = cluster.hosts[0]

    def task(vm):
        f = vm.create_file("data", 8 * MB)
        yield from vm.write_file(f, 0, 8 * MB, "task")
        yield from vm.fsync(f, "task")
        yield from vm.read_file(f, 0, 8 * MB, "task")

    p = env.process(task(vm))
    env.run(until=p)
    assert host.disk.stats.write_bytes >= 8 * MB
    assert env.now > 0


def test_vm_compute_uses_processor_sharing():
    env = Environment()
    cluster = VirtualCluster(env, small_config())
    vm = cluster.vms[0]
    j1 = vm.compute(1.0)
    j2 = vm.compute(1.0)
    env.run(until=j2)
    assert env.now == pytest.approx(2.0)  # two jobs share 1 VCPU


def test_config_with_helper():
    cfg = small_config()
    cfg2 = cfg.with_(hosts=6)
    assert cfg2.hosts == 6
    assert cfg2.vms_per_host == cfg.vms_per_host


def test_two_vms_contend_on_shared_disk():
    """Concurrent streams from two VMs take longer than one (interference)."""

    def run(n_vms):
        env = Environment()
        cluster = VirtualCluster(env, small_config(hosts=1))
        done = []

        def task(vm, i):
            f = vm.create_file("data", 16 * MB)
            yield from vm.write_file(f, 0, 16 * MB, f"t{i}")
            yield from vm.fsync(f, f"t{i}")
            done.append(env.now)

        procs = [
            env.process(task(vm, i))
            for i, vm in enumerate(cluster.vms[:n_vms])
        ]
        for p in procs:
            env.run(until=p)
        return max(done)

    assert run(2) > run(1)
