"""Unit tests for the processor-sharing CPU model."""

import pytest

from repro.sim import Environment, ProcessorSharingCPU


def test_single_job_runs_at_full_rate():
    env = Environment()
    cpu = ProcessorSharingCPU(env, capacity=2.0)
    job = cpu.execute(10.0)
    env.run(until=job)
    assert env.now == pytest.approx(5.0)


def test_two_equal_jobs_share_equally():
    env = Environment()
    cpu = ProcessorSharingCPU(env, capacity=1.0)
    j1 = cpu.execute(5.0)
    j2 = cpu.execute(5.0)
    env.run()
    # Each proceeds at rate 1/2 → both done at t=10.
    assert j1.processed and j2.processed
    assert env.now == pytest.approx(10.0)


def test_short_job_departure_speeds_up_long_job():
    env = Environment()
    cpu = ProcessorSharingCPU(env, capacity=1.0)
    short = cpu.execute(1.0)
    long = cpu.execute(3.0)
    env.run(until=short)
    assert env.now == pytest.approx(2.0)  # both at rate 1/2
    env.run(until=long)
    # long had 2 units left at t=2, then runs alone → done at t=4.
    assert env.now == pytest.approx(4.0)


def test_late_arrival_slows_running_job():
    env = Environment()
    cpu = ProcessorSharingCPU(env, capacity=1.0)

    def submit_later(env, cpu):
        yield env.timeout(1.0)
        job = cpu.execute(1.0)
        yield job
        return env.now

    first = cpu.execute(2.0)
    later = env.process(submit_later(env, cpu))
    env.run()
    # first runs alone [0,1): 1 unit done.  Then shared: each 0.5/s.
    # later finishes at t=3 (1 unit at 0.5/s), first also at t=3.
    assert later.value == pytest.approx(3.0)
    assert first.processed


def test_zero_work_completes_immediately():
    env = Environment()
    cpu = ProcessorSharingCPU(env)
    job = cpu.execute(0.0)
    assert job.triggered
    env.run()
    assert env.now == 0.0


def test_negative_work_rejected():
    env = Environment()
    cpu = ProcessorSharingCPU(env)
    with pytest.raises(ValueError):
        cpu.execute(-1.0)


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        ProcessorSharingCPU(env, capacity=0)


def test_load_tracking():
    env = Environment()
    cpu = ProcessorSharingCPU(env)
    cpu.execute(10.0)
    cpu.execute(10.0)
    assert cpu.load == 2
    env.run()
    assert cpu.load == 0


def test_completed_work_accounting():
    env = Environment()
    cpu = ProcessorSharingCPU(env, capacity=4.0)
    cpu.execute(3.0)
    cpu.execute(5.0)
    env.run()
    assert cpu.completed_work == pytest.approx(8.0)


def test_many_staggered_jobs_all_complete():
    env = Environment()
    cpu = ProcessorSharingCPU(env, capacity=1.0)
    jobs = []

    def submitter(env, cpu, delay, work):
        yield env.timeout(delay)
        jobs.append(cpu.execute(work))

    for i in range(10):
        env.process(submitter(env, cpu, i * 0.3, 1.0 + i * 0.1))
    env.run()
    assert len(jobs) == 10
    assert all(j.processed for j in jobs)
    total = sum(1.0 + i * 0.1 for i in range(10))
    assert cpu.completed_work == pytest.approx(total)
    # Work conservation: the CPU is never idle between first arrival and
    # last completion, so the makespan equals the total work (mod float
    # accumulation error).
    assert env.now == pytest.approx(total)


def test_nan_capacity_rejected():
    with pytest.raises(ValueError, match="capacity"):
        ProcessorSharingCPU(Environment(), capacity=float("nan"))


def test_nan_work_rejected():
    cpu = ProcessorSharingCPU(Environment())
    with pytest.raises(ValueError, match="work"):
        cpu.execute(float("nan"))
