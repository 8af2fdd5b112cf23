"""Multi-tenant control plane: concurrent jobs over shared slots.

Covers the job-level schedulers, the per-tenant SLO payload, the
phase-majority switch plan, and — critically — byte-identical
determinism of concurrent same-seed runs across every sweep-runner
execution path (serial, parallel workers, cached replay), mirroring
the single-job golden-digest contract.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.api import MultiJobScenario
from repro.workloads import SizeClass
from repro.mapreduce import JOB_SCHEDULERS, SwitchPlan, job_scheduler
from repro.obs import capture
from repro.obs.export import load_jsonl
from repro.runner import RunSpec, SweepRunner
from repro.runner.kinds import execute_spec
from repro.runner.spec import spec_key

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Dense Poisson stream on a tiny cluster: jobs must overlap.
def scenario(**over):
    kwargs = dict(
        workload="sort",
        scale=0.05,
        hosts=2,
        vms_per_host=2,
        scheduler="fifo",
        n_jobs=3,
        arrival_rate=1.0,
        tenants=("tenant-a", "tenant-b"),
    )
    kwargs.update(over)
    return MultiJobScenario(**kwargs)


def run_payload(scn, seed=0, **sweep_kwargs):
    sweep_kwargs.setdefault("use_cache", False)
    with SweepRunner(**sweep_kwargs) as sweep:
        [payload] = sweep.run_specs([scn.to_spec(seed)])
    return payload


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def fifo_payload():
    return run_payload(scenario(), jobs=1)


# ---------------------------------------------------------------- payload


def test_all_jobs_complete(fifo_payload):
    assert fifo_payload["n_jobs"] == 3
    jobs = fifo_payload["jobs"]
    assert len(jobs) == 3
    assert [j["job_id"] for j in jobs] == [0, 1, 2]
    for j in jobs:
        assert j["end"] > j["submit"] >= 0
        assert j["latency"] == pytest.approx(j["end"] - j["submit"])
        assert j["n_maps"] > 0 and j["n_reducers"] > 0
        assert j["input_bytes"] > 0
        assert j["reduce_output_bytes"] > 0


def test_stream_overlaps(fifo_payload):
    assert fifo_payload["max_concurrency"] >= 2


def test_goodput_positive(fifo_payload):
    assert fifo_payload["goodput_bytes_per_s"] > 0


def test_tenant_slo_percentiles(fifo_payload):
    tenants = fifo_payload["tenants"]
    assert tenants  # at least one tenant saw a job
    total_jobs = 0
    for stats in tenants.values():
        total_jobs += stats["jobs"]
        assert stats["jobs"] >= 1
        assert 0 < stats["p50"] <= stats["p95"] <= stats["p99"]
        assert stats["mean_latency"] > 0
    assert total_jobs == 3


# ------------------------------------------------------------- schedulers


@pytest.mark.parametrize("sched", sorted(JOB_SCHEDULERS))
def test_every_scheduler_completes_the_stream(sched):
    payload = run_payload(scenario(scheduler=sched), jobs=1)
    assert len(payload["jobs"]) == 3
    assert payload["scheduler"] == sched
    assert payload["max_concurrency"] >= 2


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="scheduler"):
        job_scheduler("lottery")
    with pytest.raises(ValueError):
        scenario(scheduler="lottery")


def test_schedulers_change_ordering_not_outcomes():
    fifo = run_payload(scenario(scheduler="fifo"), jobs=1)
    sjf = run_payload(scenario(scheduler="sjf"), jobs=1)
    # Same stream, same jobs, same byte totals; only timing may move.
    for key in ("input_bytes", "n_maps", "n_reducers"):
        assert sorted(j[key] for j in fifo["jobs"]) == \
            sorted(j[key] for j in sjf["jobs"])


def test_base_job_map_slots_bound_concurrent_maps_per_vm(tmp_path,
                                                        monkeypatch):
    # The base job's map_slots sets the map slot workers per VM: with one,
    # no VM ever runs two maps at once.
    for name in (capture.ENV_TRACE_OUT, capture.ENV_TRACE_TOPICS):
        monkeypatch.delenv(name, raising=False)
    config = scenario().multi_job_config()
    config = replace(config, base_job=config.base_job.with_(map_slots=1))
    capture.enable(tmp_path, ("sched.task_assigned", "job.map_finished"))
    try:
        execute_spec(RunSpec(kind="multi_job", seed=0, config=config))
    finally:
        capture.disable()
    [trace] = tmp_path.glob("*.trace.jsonl")
    placed, running, peak = {}, {}, {}
    for rec in load_jsonl(trace):
        if rec.topic == "sched.task_assigned" and rec.payload["kind"] == "map":
            vm = placed[rec.payload["task"]] = rec.payload["vm"]
            running[vm] = running.get(vm, 0) + 1
            peak[vm] = max(peak.get(vm, 0), running[vm])
        elif rec.topic == "job.map_finished":
            running[placed[rec.payload["task_id"]]] -= 1
    assert len(peak) == 4
    assert set(peak.values()) == {1}


# ------------------------------------------------------------ switch plan


def test_switch_plan_run_completes():
    payload = run_payload(scenario(switch=("ad", "cc")), jobs=1)
    assert len(payload["jobs"]) == 3
    assert payload["goodput_bytes_per_s"] > 0


def test_switch_plan_parses_pairs():
    plan = scenario(switch=("ad", "cc")).switch_plan()
    assert isinstance(plan, SwitchPlan)
    assert plan.map_pair.label == "ad"
    assert plan.tail_pair.label == "cc"


# ----------------------------------------------------------- determinism


@pytest.fixture(scope="module")
def serial_digest():
    return digest(run_payload(scenario(), jobs=1))


def test_serial_rerun_is_byte_identical(serial_digest):
    assert digest(run_payload(scenario(), jobs=1)) == serial_digest


def test_parallel_workers_match_serial(serial_digest):
    assert digest(run_payload(scenario(), jobs=2)) == serial_digest


def test_cached_replay_matches_serial(tmp_path, serial_digest):
    cache_dir = str(tmp_path / "cache")
    first = digest(run_payload(scenario(), jobs=1, cache_dir=cache_dir,
                               use_cache=True))
    replay = digest(run_payload(scenario(), jobs=1, cache_dir=cache_dir,
                                use_cache=True))
    assert first == serial_digest
    assert replay == serial_digest


def test_seed_changes_the_stream(serial_digest):
    assert digest(run_payload(scenario(), seed=1, jobs=1)) != serial_digest


# ------------------------------------------------------------- validation


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(n_jobs=0)
    with pytest.raises(ValueError):
        scenario(arrival_rate=0.0)
    with pytest.raises(ValueError):
        scenario(tenants=())


@pytest.mark.parametrize("bad, named", [
    (dict(arrival_rate=float("nan")), "arrival_rate"),
    (dict(arrival_rate=float("inf")), "arrival_rate"),
    (dict(pair="zz"), "zz"),
    (dict(switch=("zz", "cc")), "zz"),
    (dict(workload="nope"), "nope"),
    (dict(hosts=0), "hosts"),
    (dict(bytes_per_vm=0), "bytes_per_vm"),
    (dict(vms_per_host=1.5), "vms_per_host"),
    (dict(n_jobs=1.5), "n_jobs"),
    (dict(size_mix=(SizeClass("idle", 0.0, 1.0),)), "size-class weights"),
    (dict(switch=("ad",)), "switch"),
])
def test_scenario_rejects_at_construction(bad, named):
    # Each used to construct and fail only in to_spec() or the run.
    with pytest.raises((ValueError, KeyError), match=named):
        scenario(**bad)


def test_cache_key_is_pure():
    a = spec_key(scenario().to_spec(0))
    b = spec_key(scenario().to_spec(0))
    assert a == b
    assert spec_key(scenario(scheduler="sjf").to_spec(0)) != a
    assert spec_key(scenario().to_spec(1)) != a
