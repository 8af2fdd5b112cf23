"""Execution kinds: the pure functions a :class:`RunSpec` names.

Every kind takes ``(config, seed)`` and returns a JSON-able payload —
that is what makes runs executable in worker processes and storable in
the on-disk cache.  The payloads round-trip through JSON before anyone
reads them (see :meth:`SweepRunner.run_specs`), so fresh, parallel, and
cache-hit executions are structurally — and therefore bit- — identical.

The registered kinds cover every simulation the experiment suite runs:

* ``job`` — one MapReduce job under a phase plan (fig2/4/6/7/8, tables);
* ``chain`` — a multi-job chain under a phase plan (``ablation-chain``);
* ``sysbench`` — the Fig. 1 sequential-write benchmark;
* ``instrumented_job`` — a job run exporting throughput samples (fig3);
* ``dd`` — a parallel-dd run, optionally switching pairs (fig5);
* ``sort_custom`` — sort with mechanism knockouts (``ablation-mechanisms``);
* ``online_sort`` — sort under the reactive controller (``ablation-online``);
* ``faulty_job`` — a job run under a fault plan (``fig9-faults``);
* ``controlled_job`` — a job under the online adaptive controller
  (``fig-ctrl``), optionally with faults and background interference.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..api import assemble_cluster, assemble_job, run_controlled_job, run_job
from ..core.chains import run_chain
from ..core.online import OnlineController
from ..core.switch_cost import run_dd_once
from ..hdfs.namenode import NameNode
from ..iosched.anticipatory import AnticipatoryParams, AnticipatoryScheduler
from ..metrics.slo import percentiles
from ..net.topology import Topology
from ..obs import capture
from ..mapreduce.multijob import MultiJobTracker
from ..mapreduce.phases import JobResult, PhaseTimes
from ..workloads.arrivals import generate_arrivals
from ..workloads.sysbench import SysbenchSeqWrite
from .spec import RunSpec

__all__ = [
    "KINDS",
    "register",
    "execute_spec",
    "encode_job_result",
    "decode_job_result",
]

MB = 1024 * 1024

KINDS: Dict[str, Callable[[Any, int], Dict[str, Any]]] = {}


def register(name: str):
    """Register a function as the executor for ``kind=name``."""

    def deco(fn):
        KINDS[name] = fn
        return fn

    return deco


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one spec to completion (in whatever process this is).

    When trace capture is enabled (``$REPRO_TRACE_OUT``, usually via
    the CLI's ``--trace-out``), the run executes with a recording
    :class:`~repro.sim.tracing.TraceBus` whose records stream to the
    run's ``.trace.jsonl`` in the capture directory.  The returned
    payload is byte-identical either way — tracing is a side channel,
    never an input.
    """
    try:
        fn = KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown run kind {spec.kind!r}") from None
    _reset_run_ids()
    cfg = capture.config_from_env()
    if cfg is None:
        return fn(spec.config, spec.seed)
    with capture.RunCapture(cfg, spec):
        return fn(spec.config, spec.seed)


# -- job runs (and their payload codec) -----------------------------------------------


def encode_job_result(result: JobResult, switch_stall: float,
                      faults: bool = False) -> Dict[str, Any]:
    """The ``job`` payload; ``faults`` adds the attempt/injector ledger."""
    p = result.phases
    payload: Dict[str, Any] = {
        "job_name": result.job_name,
        "phases": {
            "start": p.start,
            "maps_done": p.maps_done,
            "shuffle_done": p.shuffle_done,
            "end": p.end,
        },
        "n_maps": result.n_maps,
        "n_reducers": result.n_reducers,
        "input_bytes": result.input_bytes,
        "map_output_bytes": result.map_output_bytes,
        "shuffle_bytes": result.shuffle_bytes,
        "reduce_output_bytes": result.reduce_output_bytes,
        "map_progress": [[t, f] for t, f in result.map_progress],
        "switch_stall": switch_stall,
    }
    if result.storage:
        # Only non-HDD backends report counters, so the key is absent
        # from (and the payload bit-identical for) all-HDD runs.
        payload["storage"] = {k: result.storage[k]
                              for k in sorted(result.storage)}
    if faults:
        payload["faults"] = {k: result.fault_stats[k]
                             for k in sorted(result.fault_stats)}
    return payload


def decode_job_result(payload: Dict[str, Any]) -> Tuple[JobResult, float]:
    p = payload["phases"]
    result = JobResult(
        job_name=payload["job_name"],
        phases=PhaseTimes(
            start=p["start"],
            maps_done=p["maps_done"],
            shuffle_done=p["shuffle_done"],
            end=p["end"],
        ),
        n_maps=payload["n_maps"],
        n_reducers=payload["n_reducers"],
        input_bytes=payload["input_bytes"],
        map_output_bytes=payload["map_output_bytes"],
        shuffle_bytes=payload["shuffle_bytes"],
        reduce_output_bytes=payload["reduce_output_bytes"],
        map_progress=[tuple(sample) for sample in payload["map_progress"]],
        fault_stats=dict(payload.get("faults", {})),
        storage=dict(payload.get("storage", {})),
    )
    return result, payload["switch_stall"]


def _reset_run_ids() -> None:
    """Restart the process-global id counters (rids, block ids) before
    each run.  The ids are pure labels, so results are unchanged; what
    this buys is same-seed runs whose *traces* are byte-identical even
    when earlier runs in this process consumed ids.
    """
    from ..disk.request import reset_rids
    from ..hdfs.blocks import reset_block_ids

    reset_rids()
    reset_block_ids()


@register("job")
@register("faulty_job")
def _run_job(config, seed: int) -> Dict[str, Any]:
    """config = (TestbedConfig, Solution) or (TestbedConfig, Solution, FaultPlan).

    ``faulty_job`` is a separate kind (rather than a field on ``job``)
    so fault-free specs keep their historical cache keys:
    :func:`~repro.runner.spec.canonical` hashes every config field, and
    ``job`` configs never mention faults.  Its payload is the ``job``
    payload plus a ``faults`` sub-dict of attempt/injector counters.
    """
    testbed, solution, *rest = config
    result, stall = run_job(testbed, solution, seed,
                            fault_plan=rest[0] if rest else None,
                            trace=capture.current_bus())
    # A faulty_job payload carries the ledger even under an inert plan.
    return encode_job_result(result, stall, faults=bool(rest))


@register("controlled_job")
def _run_controlled_job(config, seed: int) -> Dict[str, Any]:
    """config = (TestbedConfig, CtrlConfig, FaultPlan | None).

    A job run under :func:`~repro.api.run_controlled_job`: the online
    adaptive controller waits on the job's phase boundaries and
    switches scheduler pairs through the cluster's normal machinery.
    ``ctrl.policy=None`` runs the static ``ctrl.initial`` pair end to
    end (the baseline the metamorphic tests pin against).  The payload
    is the ``job`` payload plus a ``ctrl`` sub-dict recording
    detections, decisions, switches, and (for the bandit) learned
    state.
    """
    testbed, ctrl, fault_plan = config
    result, controller = run_controlled_job(
        testbed, ctrl, seed, fault_plan=fault_plan,
        trace=capture.current_bus())
    stall = controller.switch_stall if controller is not None else 0.0
    payload = encode_job_result(result, stall,
                                faults=fault_plan is not None)
    if controller is not None:
        controller.policy.learn(result.duration)
        payload["ctrl"] = controller.report()
        payload["ctrl"]["state"] = [
            list(row) for row in controller.policy.export_state()
        ]
    else:
        payload["ctrl"] = {
            "policy": "static",
            "initial": ctrl.initial,
            "plan": [ctrl.initial] * testbed.n_phases,
            "detections": [],
            "decisions": [],
            "switches": [],
            "n_switches": 0,
            "switch_stall": 0.0,
            "state": [],
        }
    return payload


def _max_concurrency(jobs) -> int:
    """Peak number of jobs simultaneously live (submit..end overlap)."""
    edges = []
    for rec in jobs:
        edges.append((rec["submit"], 1))
        edges.append((rec["end"], -1))
    # Ends sort before starts at the same instant: a job finishing
    # exactly when another arrives is not concurrency.
    edges.sort(key=lambda e: (e[0], e[1]))
    live = peak = 0
    for _, delta in edges:
        live += delta
        peak = max(peak, live)
    return peak


@register("multi_job")
def _run_multi_job(config, seed: int) -> Dict[str, Any]:
    """config = MultiJobConfig.

    The payload reports the cluster view (makespan, goodput, peak
    concurrency), one record per job (sorted by job id), and per-tenant
    SLO percentiles (nearest-rank p50/p95/p99 over job latency).
    """
    trace = capture.current_bus()
    env, cluster = assemble_cluster(config.cluster, seed=seed, trace=trace)
    topology = Topology(env)
    namenode = NameNode(cluster, block_size=config.base_job.block_size)
    arrivals = generate_arrivals(
        config.arrivals, cluster.rng.stream("workload.arrivals")
    )
    tracker = MultiJobTracker(env, cluster, topology, namenode, config,
                              arrivals, trace=trace)
    proc = tracker.start()
    env.run(until=proc)
    result = proc.value

    by_tenant: Dict[str, list] = {}
    for rec in result.jobs:
        by_tenant.setdefault(rec["tenant"], []).append(rec["latency"])
    tenants = {
        tenant: {
            "jobs": len(latencies),
            "mean_latency": sum(latencies) / len(latencies),
            **percentiles(latencies),
        }
        for tenant, latencies in sorted(by_tenant.items())
    }
    span_end = max(rec["end"] for rec in result.jobs)
    span = span_end - result.start
    useful_bytes = sum(
        rec["input_bytes"] + rec["reduce_output_bytes"] for rec in result.jobs
    )
    payload = {
        "scheduler": result.scheduler,
        "n_jobs": len(result.jobs),
        "makespan": result.makespan,
        "max_concurrency": _max_concurrency(result.jobs),
        "goodput_bytes_per_s": useful_bytes / span if span > 0 else 0.0,
        "jobs": result.jobs,
        "tenants": tenants,
    }
    storage = cluster.storage_stats()
    if storage:
        payload["storage"] = {k: storage[k] for k in sorted(storage)}
    return payload


@register("chain")
def _run_chain(config, seed: int) -> Dict[str, Any]:
    """config = (ChainConfig, Solution)."""
    chain_config, solution = config
    duration, phases = run_chain(chain_config, solution, seed,
                                 trace=capture.current_bus())
    return {"duration": duration, "phases": list(phases)}


# -- workload benchmarks --------------------------------------------------------------


@register("sysbench")
def _run_sysbench(config, seed: int) -> Dict[str, Any]:
    """config = (ClusterConfig, total_bytes, n_files, vms_per_host)."""
    cluster_config, total_bytes, n_files, vms_per_host = config
    env, cluster = assemble_cluster(cluster_config, seed=seed,
                                    trace=capture.current_bus())
    bench = SysbenchSeqWrite(
        env,
        cluster,
        total_bytes=total_bytes,
        n_files=n_files,
        vms_per_host=vms_per_host,
    )
    proc = bench.start()
    env.run(until=proc)
    return {"elapsed": proc.value}


@register("dd")
def _run_dd(config, seed: int) -> Dict[str, Any]:
    """config = (ClusterConfig, nbytes, pair, switch_to|None, switch_at|None)."""
    cluster_config, nbytes, pair, switch_to, switch_at = config
    elapsed = run_dd_once(
        cluster_config, pair, seed, nbytes,
        switch_to=switch_to, switch_at=switch_at,
        trace=capture.current_bus(),
    )
    return {"elapsed": elapsed}


# -- instrumented / customised job runs -----------------------------------------------


@register("instrumented_job")
def _run_instrumented_job(config, seed: int) -> Dict[str, Any]:
    """config = (ClusterConfig, JobConfig); exports throughput samples."""
    cluster_config, job_config = config
    job = assemble_job(cluster_config, job_config, seed=seed,
                       trace=capture.current_bus())
    env, cluster = job.env, job.cluster
    env.run(until=job.start())
    duration = env.now
    host = cluster.hosts[0]
    dom0 = [r / MB for r in host.disk.stats.throughput.rates(0.0, duration)]
    vms = {
        str(vm.vm_id): [
            r / MB for r in vm.vdisk.stats.throughput.rates(0.0, duration)
        ]
        for vm in host.vms
    }
    return {"duration": duration, "dom0": dom0, "vms": vms}


@register("sort_custom")
def _run_sort_custom(config, seed: int) -> Dict[str, Any]:
    """config = (ClusterConfig, JobConfig, zero_anticipation: bool)."""
    cluster_config, job_config, zero_anticipation = config
    job = assemble_job(cluster_config, job_config, seed=seed,
                       trace=capture.current_bus())
    if zero_anticipation:
        # Swap before any I/O exists; queues are empty so this is free.
        for host in job.cluster.hosts:
            host.disk.scheduler = AnticipatoryScheduler(
                params=AnticipatoryParams(antic_expire=1e-9, max_think_time=0.0)
            )
    proc = job.start()
    job.env.run(until=proc)
    return {"duration": proc.value.duration}


@register("online_sort")
def _run_online_sort(config, seed: int) -> Dict[str, Any]:
    """config = (ClusterConfig, JobConfig); reactive controller attached."""
    cluster_config, job_config = config
    job = assemble_job(cluster_config, job_config, seed=seed,
                       trace=capture.current_bus())
    OnlineController(job.env, job.cluster)  # starts its own process
    proc = job.start()
    job.env.run(until=proc)
    return {"duration": proc.value.duration}
