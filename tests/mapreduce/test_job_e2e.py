"""End-to-end MapReduce job tests on a small virtual cluster."""

import pytest

from repro.faults import DiskFaults, FaultPlan
from repro.hdfs import NameNode
from repro.mapreduce import MB, JobConfig, MapReduceJob
from repro.net import Topology
from repro.sim import Environment
from repro.virt import ClusterConfig, VirtualCluster
from repro.workloads import SORT, WORDCOUNT, WORDCOUNT_NO_COMBINER


def run_job(spec, hosts=2, vms=2, data=32 * MB, seed=0, trace=None,
            fault_plan=None, **cfg_over):
    env = Environment()
    cluster = VirtualCluster(env, ClusterConfig(hosts=hosts, vms_per_host=vms,
                                                seed=seed))
    topo = Topology(env)
    nn = NameNode(cluster, block_size=cfg_over.get("block_size", 8 * MB))
    cfg = JobConfig(spec=spec, bytes_per_vm=data,
                    **{"block_size": 8 * MB,
                       "sort_buffer_bytes": 12 * MB,
                       "shuffle_buffer_bytes": 16 * MB,
                       **cfg_over})
    job = MapReduceJob(env, cluster, topo, nn, cfg, trace=trace,
                       fault_plan=fault_plan)
    proc = job.start()
    env.run(until=proc)
    return proc.value, cluster, env, job


def test_sort_job_completes_with_sane_result():
    result, cluster, env, _ = run_job(SORT)
    assert result.duration > 0
    assert result.n_maps == 16  # 4 VMs x 32MB / 8MB
    assert result.n_reducers == 8
    assert result.input_bytes == 4 * 32 * MB
    # sort: map output == input.
    assert result.map_output_bytes == pytest.approx(result.input_bytes, rel=0.01)
    assert result.shuffle_bytes == pytest.approx(result.input_bytes, rel=0.01)
    assert result.reduce_output_bytes == pytest.approx(result.input_bytes, rel=0.05)


def test_phases_ordered():
    result, *_ = run_job(SORT)
    p = result.phases
    assert p.start <= p.maps_done <= p.end
    assert p.ph1 > 0 and p.ph3 > 0
    assert p.ph1 + p.ph2 + p.ph3 == pytest.approx(p.duration)


def test_map_progress_monotone_and_complete():
    result, *_ = run_job(SORT)
    fracs = [f for _, f in result.map_progress]
    assert fracs == sorted(fracs)
    assert fracs[-1] == pytest.approx(1.0)
    assert len(result.map_progress) == result.n_maps


def test_wordcount_lighter_io_than_sort():
    wc, *_ = run_job(WORDCOUNT)
    sort, *_ = run_job(SORT)
    assert wc.map_output_bytes < 0.3 * sort.map_output_bytes
    assert wc.shuffle_bytes < sort.shuffle_bytes


def test_wordcount_nocombiner_map_output_1_7x():
    result, *_ = run_job(WORDCOUNT_NO_COMBINER)
    assert result.map_output_bytes == pytest.approx(1.7 * result.input_bytes,
                                                    rel=0.02)


def test_output_written_to_hdfs_with_replicas():
    result, cluster, env, job = run_job(SORT)
    out = job.namenode.lookup(job.config.output_path)
    assert out.size_bytes == pytest.approx(result.reduce_output_bytes, rel=0.01)
    for block in out.blocks:
        assert len(block.replicas) == 2


def test_deterministic_given_seed():
    r1, *_ = run_job(SORT, seed=3)
    r2, *_ = run_job(SORT, seed=3)
    assert r1.duration == pytest.approx(r2.duration)
    r3, *_ = run_job(SORT, seed=4)
    assert r1.duration != pytest.approx(r3.duration)


def test_job_cannot_start_twice():
    env = Environment()
    cluster = VirtualCluster(env, ClusterConfig(hosts=1, vms_per_host=2))
    topo = Topology(env)
    nn = NameNode(cluster, block_size=8 * MB)
    cfg = JobConfig(spec=SORT, bytes_per_vm=16 * MB, block_size=8 * MB)
    job = MapReduceJob(env, cluster, topo, nn, cfg)
    job.start()
    with pytest.raises(RuntimeError):
        job.start()


def test_start_runs_the_injector_of_an_active_plan():
    # The job itself starts the injector, so a job built directly (not
    # through api.assemble_job) still sees its plan's disk episodes.
    plan = FaultPlan(disk=DiskFaults(slow_interval_s=1.0, slow_factor=4.0,
                                     slow_duration_s=0.5))
    result, *_ = run_job(SORT, fault_plan=plan)
    assert result.fault_stats["disk_slow_episodes"] > 0


def test_start_builds_no_injector_for_an_inert_plan():
    result, *_ = run_job(SORT, fault_plan=FaultPlan())
    assert result.fault_stats == {}


def test_trace_events_published():
    from repro.sim import TraceBus

    bus = TraceBus()
    for topic in ("job.start", "job.maps_done", "job.done", "job.map_finished"):
        bus.record_topic(topic)
    run_job(SORT, trace=bus)
    assert len(bus.recorded("job.start")) == 1
    assert len(bus.recorded("job.maps_done")) == 1
    assert len(bus.recorded("job.done")) == 1
    assert len(bus.recorded("job.map_finished")) == 16


def test_more_data_takes_longer():
    small, *_ = run_job(SORT, data=16 * MB)
    big, *_ = run_job(SORT, data=48 * MB)
    assert big.duration > small.duration


def test_fewer_waves_means_more_nonconcurrent_shuffle():
    # The paper's Table II relationship: with fewer map waves the
    # shuffle has less map-phase time to hide behind.  Compare the
    # extremes (8 waves vs 1 wave) where the effect is unambiguous.
    many_waves, *_ = run_job(SORT, data=64 * MB, map_slots=1)  # 8 waves
    one_wave, *_ = run_job(SORT, data=64 * MB, map_slots=8)    # 1 wave
    assert (
        one_wave.phases.non_concurrent_shuffle_pct
        > many_waves.phases.non_concurrent_shuffle_pct
    )


def _stepped_job(slowstart):
    """Build a job, run only its t=0 setup, and return (env, job)."""
    env = Environment()
    cluster = VirtualCluster(env, ClusterConfig(hosts=2, vms_per_host=2,
                                                seed=0))
    topo = Topology(env)
    nn = NameNode(cluster, block_size=8 * MB)
    cfg = JobConfig(spec=SORT, bytes_per_vm=32 * MB, block_size=8 * MB,
                    sort_buffer_bytes=12 * MB, shuffle_buffer_bytes=16 * MB,
                    slowstart=slowstart)
    job = MapReduceJob(env, cluster, topo, nn, cfg)
    proc = job.start()
    return env, job, proc


def test_slowstart_zero_opens_reducer_gate_at_job_start():
    # Regression: slowstart=0 used to behave like "after the first map"
    # because of the max(1, ...) floor; zero must mean zero.
    env, job, _ = _stepped_job(slowstart=0.0)
    env.run(until=env.timeout(1e-9))
    assert job.slowstart_count() == 0
    assert job.maps_finished == 0
    assert job.reducers_may_start.triggered


def test_slowstart_one_gates_reducers_on_the_last_map():
    env, job, proc = _stepped_job(slowstart=1.0)
    assert job.slowstart_count() == job.n_maps
    env.run(until=env.timeout(1e-9))
    assert not job.reducers_may_start.triggered
    env.run(until=proc)
    assert job.reducers_may_start.triggered
    assert proc.value.duration > 0


def test_slowstart_boundary_runs_complete():
    fast, *_ = run_job(SORT, slowstart=0.0)
    slow, *_ = run_job(SORT, slowstart=1.0)
    assert fast.n_reducers == slow.n_reducers == 8
    # With the gate open from t=0 the shuffle fully overlaps the maps;
    # gating on the last map serialises it, so it cannot be faster.
    assert slow.duration >= fast.duration
    assert (
        slow.phases.non_concurrent_shuffle_pct
        >= fast.phases.non_concurrent_shuffle_pct
    )
