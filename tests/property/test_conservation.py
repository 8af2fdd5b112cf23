"""Conservation invariants audited from trace records.

Every run — fault-free or under an aggressive fault plan — must conserve
bytes and requests end to end:

* every byte read from a scratch file (map spill, reduce spill, merged
  map output) was written to it first, at an extent that exists;
* every completed disk request was submitted, and no request completes
  twice (elevator merging is accounted via ``merged_rids``);
* the attempt ledger reconciles: attempts launched equal tasks finished
  plus failures plus kills, with no task lost or double-counted.

The audits run on the *same* trace topics the experiments consume, so
they double as regression tests for the instrumentation itself.
"""

from collections import defaultdict

import pytest

from repro.core.solution import Solution
from repro.api import run_job, scaled_testbed
from repro.faults import (
    DiskFaults,
    FaultPlan,
    SpeculationConfig,
    TaskFaults,
    VmFaults,
)
from repro.sim.tracing import TraceBus
from repro.virt.pair import DEFAULT_PAIR
from repro.workloads.profiles import SORT

SEEDS = (0, 1, 2)

#: Aggressive enough to exercise retries, speculation, kills, a crash,
#: pauses and disk degradation inside one small job.
AGGRESSIVE = FaultPlan(
    disk=DiskFaults(slow_interval_s=8.0, slow_factor=3.0, slow_duration_s=3.0,
                    spike_latency_s=0.002),
    vms=VmFaults(pause_interval_s=12.0, pause_duration_s=1.0,
                 crash_prob=0.4, crash_window_s=20.0, max_crashes=1),
    tasks=TaskFaults(map_fail_prob=0.2, reduce_fail_prob=0.15,
                     max_attempts=4),
    speculation=SpeculationConfig(enabled=True, check_interval_s=2.0),
)

PLANS = {"fault-free": None, "aggressive": AGGRESSIVE}

SCRATCH_PREFIXES = ("spill_", "rspill_", "mapout_")

_RUNS = {}


def traced_run(seed, plan_name):
    """One (memoised) instrumented run: ``(JobResult, TraceBus)``."""
    key = (seed, plan_name)
    if key not in _RUNS:
        bus = TraceBus()
        for topic in ("fs.read", "fs.write", "disk.submit", "disk.complete"):
            bus.record_topic(topic)
        result, _ = run_job(
            scaled_testbed(SORT, scale=0.02, hosts=2, vms_per_host=2,
                           seeds=(seed,)),
            Solution.uniform(DEFAULT_PAIR, 2), seed,
            fault_plan=PLANS[plan_name], trace=bus,
        )
        _RUNS[key] = (result, bus)
    return _RUNS[key]


def scratch_records(bus):
    """fs.read / fs.write records per scratch file, keyed ``(vm, file)``."""
    reads = defaultdict(list)
    writes = defaultdict(list)
    for record in bus.recorded("fs.read"):
        name = record.payload["file"]
        if name.startswith(SCRATCH_PREFIXES):
            reads[(record.payload["vm"], name)].append(record)
    for record in bus.recorded("fs.write"):
        name = record.payload["file"]
        if name.startswith(SCRATCH_PREFIXES):
            writes[(record.payload["vm"], name)].append(record)
    return reads, writes


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_scratch_reads_are_backed_by_writes(seed, plan_name):
    _, bus = traced_run(seed, plan_name)
    reads, writes = scratch_records(bus)
    assert writes, "job produced no scratch files — trace wiring broken?"
    for key, file_reads in reads.items():
        file_writes = writes.get(key)
        assert file_writes, f"{key} was read but never written"
        # Data must exist before it is consumed...
        first_write = min(r.time for r in file_writes)
        first_read = min(r.time for r in file_reads)
        assert first_write <= first_read, key
        # ...and reads must stay inside the written extent.
        written_end = max(
            r.payload["offset"] + r.payload["length"] for r in file_writes
        )
        for r in file_reads:
            assert r.payload["offset"] + r.payload["length"] <= written_end, key


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_scratch_bytes_conserve(seed):
    # Without retries, nothing re-reads scratch data: the bytes read out
    # of each spill / map output never exceed the bytes written into it.
    # (Under faults this deliberately does NOT hold — retried reducers
    # re-fetch map outputs — which is what the extent check above
    # verifies instead.)
    _, bus = traced_run(seed, "fault-free")
    reads, writes = scratch_records(bus)
    assert reads, "no scratch file was ever read back"
    for key, file_reads in reads.items():
        read_bytes = sum(r.payload["length"] for r in file_reads)
        written_bytes = sum(r.payload["length"] for r in writes[key])
        assert read_bytes <= written_bytes, key


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_disk_requests_complete_exactly_once(seed, plan_name):
    _, bus = traced_run(seed, plan_name)
    submitted = defaultdict(dict)
    for record in bus.recorded("disk.submit"):
        device = record.payload["device"]
        rid = record.payload["rid"]
        assert rid not in submitted[device], f"rid {rid} submitted twice"
        submitted[device][rid] = record.payload["op"]
    completed = defaultdict(set)
    for record in bus.recorded("disk.complete"):
        device = record.payload["device"]
        # A completion accounts for its own rid plus any requests the
        # elevator merged into it.
        for rid in [record.payload["rid"]] + list(record.payload["merged_rids"]):
            assert rid not in completed[device], f"rid {rid} completed twice"
            completed[device].add(rid)
    assert completed, "no disk completions recorded"
    for device, rids in completed.items():
        # Exactly-once: everything that completed was submitted exactly
        # once, and everything submitted completed — except page-cache
        # writeback still in flight at the instant the job finishes.
        # Reads are synchronous: a lost read would have hung the job.
        assert rids <= set(submitted[device]), device
        for rid, op in submitted[device].items():
            if rid not in rids:
                assert op == "write", (
                    f"{device}: read rid {rid} submitted but never completed"
                )


@pytest.mark.parametrize("seed", SEEDS)
def test_attempt_ledger_reconciles(seed):
    result, _ = traced_run(seed, "aggressive")
    stats = result.fault_stats
    assert stats["map_attempts"] > 0
    # Every launched attempt ends in exactly one bucket: success (one
    # per task), failure, or kill.
    assert stats["map_attempts"] == (
        result.n_maps + stats["map_failures"] + stats["map_killed"]
    )
    assert stats["reduce_attempts"] == (
        result.n_reducers + stats["reduce_retries"] + stats["reduce_killed"]
    )
    # Retries re-launch failed work, never invent or lose tasks.
    assert len([p for p in result.map_progress]) == result.n_maps
    assert result.phases.end is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_run_has_empty_ledger(seed):
    result, _ = traced_run(seed, "fault-free")
    assert result.fault_stats == {}
    assert len(result.map_progress) == result.n_maps
