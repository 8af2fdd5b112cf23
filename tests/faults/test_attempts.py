"""Unit tests for the attempt manager (retry, kill, speculation)."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.faults.plan import FaultPlan, SpeculationConfig, TaskFaults
from repro.hdfs.blocks import HdfsBlock
from repro.mapreduce.attempts import AttemptManager, TaskAttempt
from repro.mapreduce.jobtracker import TaskPool
from repro.mapreduce.map_task import MapTask
from repro.mapreduce.reduce_task import ReduceTask
from repro.sim import Environment
from repro.sim.events import Event
from repro.sim.rng import RngStreams


def make_task(tid, vm):
    block = HdfsBlock(path="in", index=tid, size_bytes=100, replicas=[vm])
    return MapTask(task_id=tid, block=block, vm_id=vm)


def make_job(env, vms=("a", "b"), n_maps=2):
    return SimpleNamespace(
        env=env,
        maps_finished=0,
        n_maps=n_maps,
        cluster=SimpleNamespace(vms=[SimpleNamespace(vm_id=v) for v in vms]),
    )


FAILING = FaultPlan(tasks=TaskFaults(map_fail_prob=1.0, reduce_fail_prob=1.0,
                                     max_attempts=3))


def test_inert_manager_is_plain_pool_take():
    env = Environment()
    pool = TaskPool([make_task(0, "a")])
    mgr = AttemptManager(env, make_job(env), pool)
    assert not mgr.enabled
    assert mgr.fault_stats() == {}
    attempt = mgr.claim_map("a")
    assert isinstance(attempt, TaskAttempt)
    assert attempt.number == 0 and attempt.fail_at is None
    assert mgr.claim_success(attempt)
    mgr.map_attempt_done(attempt)  # no-op, no bookkeeping
    assert mgr.claim_map("a") is None  # pool empty -> worker exits


def test_failed_attempt_requeues_away_from_failed_vm():
    env = Environment()
    pool = TaskPool([make_task(0, "a")])
    job = make_job(env, n_maps=1)
    mgr = AttemptManager(env, job, pool, plan=FAILING, rng=RngStreams(0))
    attempt = mgr.claim_map("a")
    assert attempt.fail_at is not None  # prob 1.0 -> always fails
    assert attempt.should_abort(attempt.fail_at)
    assert attempt.failed
    mgr.map_attempt_done(attempt)
    assert mgr.fault_stats()["map_failures"] == 1
    assert mgr.fault_stats()["map_retries"] == 1
    # The failing VM gets an Event (the retry avoids it while another
    # VM lives); the other VM gets the retried attempt, rebound to it.
    assert isinstance(mgr.claim_map("a"), Event)
    retry = mgr.claim_map("b")
    assert isinstance(retry, TaskAttempt)
    assert retry.number == 1
    assert retry.task.vm_id == "b"


def test_final_attempt_never_draws_failure():
    env = Environment()
    job = make_job(env, n_maps=1)
    mgr = AttemptManager(env, job, TaskPool([]), plan=FAILING,
                         rng=RngStreams(0))
    # max_attempts=3: attempt numbers 0 and 1 fail (prob 1), number 2 must
    # be clean so the job can finish.
    assert mgr._draw_fail_at("map", 0, 0, 1.0) is not None
    assert mgr._draw_fail_at("map", 0, 1, 1.0) is not None
    assert mgr._draw_fail_at("map", 0, 2, 1.0) is None


def test_killed_attempt_loses_claim_and_does_not_requeue():
    env = Environment()
    pool = TaskPool([make_task(0, "a")])
    job = make_job(env, n_maps=1)
    plan = FaultPlan(speculation=SpeculationConfig(enabled=True))
    mgr = AttemptManager(env, job, pool, plan=plan, rng=RngStreams(0))
    attempt = mgr.claim_map("a")
    attempt.killed = True
    assert not mgr.claim_success(attempt)
    assert attempt.should_abort(0.0)


def test_success_kills_rival_attempts():
    env = Environment()
    pool = TaskPool([make_task(0, "a")])
    job = make_job(env, n_maps=1)
    plan = FaultPlan(speculation=SpeculationConfig(enabled=True))
    mgr = AttemptManager(env, job, pool, plan=plan, rng=RngStreams(0))
    first = mgr.claim_map("a")
    # Force a speculative rival by hand.
    mgr._retry_queue.append((first.task, 1, True, "a"))
    mgr._map_state[0].queued += 1
    rival = mgr.claim_map("b")
    assert rival.speculative
    assert mgr.claim_success(first)
    mgr.map_attempt_done(first)
    assert rival.killed
    # The loser reports in and is accounted as killed, not failed.
    mgr.map_attempt_done(rival)
    assert mgr.fault_stats()["map_killed"] == 1
    assert mgr.fault_stats()["map_failures"] == 0


def test_straggler_monitor_launches_backup():
    env = Environment()
    tasks = [make_task(0, "a"), make_task(1, "b")]
    pool = TaskPool(tasks)
    job = make_job(env, n_maps=2)
    plan = FaultPlan(speculation=SpeculationConfig(
        enabled=True, slowdown_threshold=1.5, min_finished_fraction=0.5,
        check_interval_s=2.0,
    ))
    mgr = AttemptManager(env, job, pool, plan=plan, rng=RngStreams(0))

    def driver():
        fast = mgr.claim_map("a")
        slow = mgr.claim_map("b")
        yield env.timeout(1.0)
        assert mgr.claim_success(fast)
        mgr.map_attempt_done(fast)
        job.maps_finished = 1
        # The slow attempt keeps running well past 1.5x the mean (1s).
        yield env.timeout(9.0)
        return slow

    proc = env.process(driver())
    env.run(until=proc)
    assert mgr.fault_stats()["map_speculative"] == 0  # not started yet
    backup = mgr.claim_map("a")
    assert isinstance(backup, TaskAttempt)
    assert backup.speculative and backup.task.task_id == 1
    assert mgr.fault_stats()["map_speculative"] == 1
    # Only one backup per task, ever.
    assert mgr._map_state[1].speculated


def test_vm_crash_kills_and_rehomes():
    env = Environment()
    tasks = [make_task(0, "a"), make_task(1, "a")]
    pool = TaskPool(tasks)
    job = make_job(env, n_maps=2)
    mgr = AttemptManager(env, job, pool, plan=FAILING, rng=RngStreams(0))
    running = mgr.claim_map("a")  # task 0 runs on a; task 1 still queued
    mgr.on_vm_crashed("a")
    assert running.killed
    assert not mgr.vm_alive("a")
    assert mgr.vm_alive("b")
    # Crashed VM's workers exit; the queued task was rehomed to retry.
    assert mgr.claim_map("a") is None
    rehomed = mgr.claim_map("b")
    assert rehomed.task.task_id == 1
    assert rehomed.task.vm_id == "b"
    assert rehomed.number == 0  # a rehome is not a retry


@pytest.mark.parametrize("task", [
    ReduceTask(reducer_idx=0, vm_id="a"),
    # A multiplexed job's reducer: the re-placed retry keeps its tag, so
    # its scratch files and I/O process stay apart from other jobs'.
    ReduceTask(reducer_idx=0, vm_id="a", tag="j1."),
], ids=["untagged", "tagged"])
def test_reduce_retry_rotates_off_failed_vm(task):
    env = Environment()
    job = make_job(env, vms=("a", "b", "c"))
    mgr = AttemptManager(env, job, TaskPool([]), plan=FAILING,
                         rng=RngStreams(0))
    attempt = mgr.start_reduce(task)
    assert attempt is not None and attempt.number == 0
    attempt.failed = True
    retry = mgr.reduce_attempt_done(attempt)
    assert retry is not None
    assert retry.number == 1
    assert retry.task.vm_id != "a"
    assert retry.task == replace(task, vm_id=retry.task.vm_id)
    assert mgr.fault_stats()["reduce_retries"] == 1
    retry.succeeded = True
    assert mgr.reduce_attempt_done(retry) is None


def test_reduce_attempts_on_crashed_vm_are_killed():
    env = Environment()
    job = make_job(env)
    mgr = AttemptManager(env, job, TaskPool([]), plan=FAILING,
                         rng=RngStreams(0))
    attempt = mgr.start_reduce(ReduceTask(reducer_idx=0, vm_id="a"))
    mgr.on_vm_crashed("a")
    assert attempt.killed
    replacement = mgr.reduce_attempt_done(attempt)
    assert replacement.task.vm_id == "b"
    assert mgr.fault_stats()["reduce_killed"] == 1
