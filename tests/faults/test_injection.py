"""Behavioural tests: pauses, degradation, crashes, injector determinism."""

import pytest

from repro.core.solution import Solution
from repro.api import run_job, scaled_testbed
from repro.faults import NO_FAULTS, DiskFaults, FaultPlan, VmFaults, get_preset
from repro.sim import Environment
from repro.sim.cpu import ProcessorSharingCPU
from repro.virt.cluster import ClusterConfig, VirtualCluster
from repro.virt.pair import DEFAULT_PAIR
from repro.workloads.profiles import SORT


def small_testbed(seed):
    return scaled_testbed(SORT, scale=0.02, hosts=2, vms_per_host=2,
                          seeds=(seed,))


def run_once(seed, plan):
    result, _ = run_job(small_testbed(seed), Solution.uniform(DEFAULT_PAIR, 2),
                        seed, fault_plan=plan)
    return result


# -- component-level pause/degradation ----------------------------------------------


def test_cpu_pause_freezes_progress():
    env = Environment()
    cpu = ProcessorSharingCPU(env, capacity=1.0)
    job = cpu.execute(1.0)

    def pauser():
        yield env.timeout(0.5)
        cpu.pause()
        assert cpu.paused
        cpu.pause()  # idempotent
        yield env.timeout(2.0)
        cpu.resume()

    env.process(pauser())
    env.run(until=job)
    # 0.5s of work, 2s frozen, 0.5s of work.
    assert env.now == pytest.approx(3.0)


def test_vm_pause_blocks_io_until_resume():
    env = Environment()
    cluster = VirtualCluster(env, ClusterConfig(hosts=1, vms_per_host=1))
    vm = cluster.vms[0]
    # A cold file: reads must hit the (paused) virtual disk.
    f = vm.create_file("blob", 4 * 1024 * 1024)
    done = []

    def driver():
        vm.pause()
        assert vm.paused and vm.vdisk.paused and vm.cpu.paused
        env.process(read())
        yield env.timeout(5.0)
        assert not done  # nothing completed while paused
        vm.resume()
        assert not vm.paused

    def read():
        yield from vm.read_file(f, 0, f.size_bytes, "p")
        done.append(env.now)

    proc = env.process(driver())
    env.run(until=proc)
    env.run()
    assert done and done[0] > 5.0


def test_disk_degradation_scales_service_time():
    def one_cold_read(scale_factor, extra):
        env = Environment()
        cluster = VirtualCluster(env, ClusterConfig(hosts=1, vms_per_host=1))
        disk = cluster.hosts[0].disk
        disk.service_scale = scale_factor
        disk.extra_latency = extra
        vm = cluster.vms[0]
        # Cold file: every read is a real (sync) disk read.
        f = vm.create_file("blob", 8 * 1024 * 1024)

        def reader():
            yield from vm.read_file(f, 0, f.size_bytes, "p")

        proc = env.process(reader())
        env.run(until=proc)
        return env.now

    healthy = one_cold_read(1.0, 0.0)
    slowed = one_cold_read(3.0, 0.0)
    spiky = one_cold_read(1.0, 0.005)
    assert healthy > 0
    assert slowed > healthy
    assert spiky > healthy
    # The identity knobs are exactly neutral, not merely close.
    assert one_cold_read(1.0, 0.0) == healthy


def test_vm_crash_sets_flag_only():
    env = Environment()
    cluster = VirtualCluster(env, ClusterConfig(hosts=1, vms_per_host=2))
    vm = cluster.vms[0]
    vm.crash()
    assert vm.crashed
    vm.crash()  # idempotent
    # Storage and compute keep serving (the TaskTracker died, not the
    # host): surviving reducers still fetch this VM's map outputs.
    assert not vm.paused


# -- end-to-end fault plans -----------------------------------------------------------


def test_fault_free_plan_is_bit_identical_to_no_plan():
    bare = run_once(0, None)
    inert = run_once(0, NO_FAULTS)
    assert bare.duration == inert.duration
    assert bare.map_progress == inert.map_progress
    assert bare.shuffle_bytes == inert.shuffle_bytes
    assert inert.fault_stats == {}


def test_injection_is_deterministic_per_seed():
    plan = get_preset("heavy")
    first = run_once(3, plan)
    second = run_once(3, plan)
    assert first.duration == second.duration
    assert first.fault_stats == second.fault_stats
    assert first.map_progress == second.map_progress


def test_faulty_runs_complete_under_multiple_seeds():
    plan = get_preset("light")
    for seed in (0, 1, 2):
        result = run_once(seed, plan)
        clean = run_once(seed, None)
        assert result.n_maps == clean.n_maps
        assert len(result.map_progress) == result.n_maps
        assert result.phases.end is not None


def test_environment_only_faults_need_no_recovery():
    # Disk slow-downs + pauses perturb timing but use zero retry
    # machinery; the job must still complete with empty attempt stats.
    plan = FaultPlan(
        disk=DiskFaults(slow_interval_s=5.0, slow_factor=3.0,
                        slow_duration_s=2.0),
        vms=VmFaults(pause_interval_s=6.0, pause_duration_s=1.0),
    )
    result = run_once(0, plan)
    clean = run_once(0, None)
    assert result.duration > clean.duration
    assert result.fault_stats.get("map_retries", 0) == 0
    assert result.fault_stats.get("disk_slow_episodes", 0) > 0


def test_crash_cap_never_kills_every_vm():
    plan = FaultPlan(
        vms=VmFaults(crash_prob=1.0, crash_window_s=5.0, max_crashes=99),
    )
    # Every one of the 4 VMs draws a crash, but the schedule is capped
    # at n_vms - 1 so a survivor always remains.
    env = Environment()
    cluster = VirtualCluster(
        env, ClusterConfig(hosts=2, vms_per_host=2, seed=0)
    )
    from repro.faults.injector import FaultInjector

    injector = FaultInjector(env, cluster, plan)
    schedule = injector._crash_schedule()
    assert len(schedule) == 3
    # End-to-end: crashes that fire before the job ends stay within the
    # cap and the job still finishes all its maps.
    result = run_once(0, plan)
    assert 1 <= result.fault_stats["vm_crashes"] <= 3
    assert len(result.map_progress) == result.n_maps
