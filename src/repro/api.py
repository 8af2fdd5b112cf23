"""The stable public facade: build a scenario, simulate it, sweep it.

Everything the examples and experiment kinds would otherwise wire by
hand — ``scaled_testbed`` → one simulated run → ``SweepRunner`` — is
reachable through three names:

* :class:`Scenario` — a declarative description of one simulated
  MapReduce experiment (workload, testbed shape, scheduler plan,
  optional faults);
* :func:`simulate` — run one scenario in-process and get a
  :class:`RunResult` (decoded job result + payload + event/wall counts);
* :func:`sweep` — run many ``(scenario, seed)`` combinations through
  the memoised parallel :class:`~repro.runner.sweep.SweepRunner`.

The facade is a thin veneer: a ``Scenario`` lowers to exactly the
:class:`~repro.runner.spec.RunSpec` the experiment suite has always
produced, so payloads and on-disk cache keys are bit-identical whether
a run comes from here, from ``repro.experiments``, or from the CLI.

Below the facade sit the calibrated-testbed helpers (``scaled_testbed``
and friends) and the one construction path every single-job run takes:
:func:`assemble_job` builds the stack and returns its job,
:func:`run_controlled_job` runs that job under a
:class:`~repro.ctrl.config.CtrlConfig`, and :func:`run_job` lowers a
phase plan to that config.

Quickstart::

    from repro.api import Scenario, simulate

    sc = Scenario(workload="sort", scale=0.125, pair="ac")
    res = simulate(sc, seed=0)
    print(res.duration, res.events, res.wall_s)
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .core.experiment import TestbedConfig
from .core.solution import Solution
from .ctrl.config import CtrlConfig
from .ctrl.controller import OnlineAdaptiveController
from .ctrl.oracle import plan_labels
from .ctrl.policies import make_policy
from .disk.backend import UnknownStorageError, resolve_storage
from .faults.plan import FaultPlan
from .hdfs.namenode import NameNode
from .mapreduce.job import MB, JobConfig, JobSpec
from .mapreduce.jobtracker import MapReduceJob
from .mapreduce.multijob import MultiJobConfig, SwitchPlan
from .mapreduce.phases import JobResult
from .net.topology import Topology
from .sim.core import Environment, finish_event_census, start_event_census
from .virt.cluster import ClusterConfig, VirtualCluster
from .virt.pagecache import PageCacheParams
from .virt.pair import DEFAULT_PAIR, SchedulerPair
from .workloads import benchmark
from .workloads.arrivals import DEFAULT_SIZE_MIX, ArrivalConfig, SizeClass
from .workloads.sysbench import SysbenchSeqWrite

__all__ = [
    "ControlledScenario",
    "DEFAULT_SCALE",
    "MultiJobScenario",
    "PAPER_SEEDS",
    "RunResult",
    "Scenario",
    "UnknownStorageError",
    "assemble_cluster",
    "assemble_job",
    "default_seeds",
    "run_controlled_job",
    "run_job",
    "scaled_cluster",
    "scaled_job",
    "scaled_pagecache",
    "scaled_testbed",
    "simulate",
    "sweep",
    "validate_scale",
]


# -- the calibrated testbed ---------------------------------------------------------
#
# All experiments run on one calibrated testbed matching the paper's:
# 4 hosts × 4 VMs, 1 TB SATA per host, 1 Gb/s NICs, Hadoop 0.19 slot
# layout.  Because a Python discrete-event simulation of the full 512 MB
# per-node dataset costs minutes per job run, experiments support a
# ``scale`` factor that shrinks every *data* quantity (input per node,
# block size, sort/shuffle buffers, page-cache sizes) by the same ratio —
# preserving the structure that drives the paper's effects (number of
# map waves, spill counts, cache-hit behaviour, dirty-throttle pressure)
# while cutting the event count.  ``scale=1.0`` is the paper's exact
# sizing; the default ``DEFAULT_SCALE`` is read from the ``REPRO_SCALE``
# environment variable (falling back to 0.25).


def validate_scale(value: float, source: str = "scale") -> float:
    """Check a data-size scale factor is usable; returns it unchanged."""
    if not 0 < value <= 1:
        raise ValueError(f"{source} must be in (0, 1], got {value}")
    return value


def _env_scale() -> float:
    raw = os.environ.get("REPRO_SCALE", "0.25")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a float, got {raw!r}") from None
    return validate_scale(value, source="REPRO_SCALE")


#: Global data-size scale for experiments (1.0 = paper-exact sizes).
DEFAULT_SCALE = _env_scale()

#: Seeds for the paper's "average of three consecutive runs".
PAPER_SEEDS: Tuple[int, ...] = (0, 1, 2)


def default_seeds(n: int = 3) -> Tuple[int, ...]:
    """The first ``n`` experiment seeds.

    Starts with the paper's three consecutive runs and keeps counting
    upward past them, so asking for more seeds than the paper used
    extends the set deterministically instead of silently truncating
    to three.
    """
    if n <= len(PAPER_SEEDS):
        return PAPER_SEEDS[:n]
    return PAPER_SEEDS + tuple(range(len(PAPER_SEEDS), n))


def scaled_pagecache(scale: float) -> PageCacheParams:
    """Guest page-cache sizing, scaled with the dataset."""
    return PageCacheParams(
        capacity_bytes=max(8 * MB, int(600 * MB * scale)),
        dirty_background_bytes=max(2 * MB, int(32 * MB * scale)),
        dirty_limit_bytes=max(4 * MB, int(128 * MB * scale)),
    )


def scaled_cluster(
    scale: float = DEFAULT_SCALE,
    hosts: int = 4,
    vms_per_host: int = 4,
    seed: int = 0,
    storage: str = "hdd",
) -> ClusterConfig:
    """The paper's testbed shape with scaled guest memory sizing.

    ``storage`` names the per-host backend (see
    :func:`repro.disk.backend.make_device`); the name is carried as plain data and resolved at
    cluster build time, keeping this function spec-canonicalisation
    pure.
    """
    return ClusterConfig(
        hosts=hosts,
        vms_per_host=vms_per_host,
        storage=storage,
        pagecache=scaled_pagecache(scale),
        seed=seed,
    )


def scaled_job(
    spec: JobSpec,
    scale: float = DEFAULT_SCALE,
    bytes_per_vm: Optional[int] = None,
) -> JobConfig:
    """Paper job sizing × ``scale``.

    Defaults keep the paper's 8 blocks per VM (4 map waves at 2 slots)
    whatever the scale, because the wave count — not the absolute bytes —
    controls the phase structure (paper Table II).  A positive
    ``bytes_per_vm`` below one block rounds up to one block per VM.
    """
    if bytes_per_vm is None:
        bytes_per_vm = int(512 * MB * scale)
    elif (isinstance(bytes_per_vm, bool) or not isinstance(bytes_per_vm, int)
          or bytes_per_vm <= 0):
        raise ValueError(
            f"bytes_per_vm must be a positive int, got {bytes_per_vm!r}")
    block_size = max(1 * MB, bytes_per_vm // 8)
    # Keep the input an exact multiple of the block size so the wave
    # count stays exactly 8/slots (a remainder byte would add a block).
    bytes_per_vm = block_size * max(1, bytes_per_vm // block_size)
    return JobConfig(
        spec=spec,
        bytes_per_vm=bytes_per_vm,
        block_size=block_size,
        sort_buffer_bytes=max(2 * MB, int(100 * MB * scale)),
        shuffle_buffer_bytes=max(2 * MB, int(128 * MB * scale)),
    )


def scaled_testbed(
    spec: JobSpec,
    scale: float = DEFAULT_SCALE,
    hosts: int = 4,
    vms_per_host: int = 4,
    seeds: Sequence[int] = PAPER_SEEDS,
    n_phases: int = 2,
    bytes_per_vm: Optional[int] = None,
    storage: str = "hdd",
) -> TestbedConfig:
    """One-stop testbed for experiments and examples."""
    return TestbedConfig(
        cluster=scaled_cluster(scale, hosts=hosts, vms_per_host=vms_per_host,
                               storage=storage),
        job=scaled_job(spec, scale, bytes_per_vm=bytes_per_vm),
        seeds=tuple(seeds),
        n_phases=n_phases,
    )


# -- low-level assembly --------------------------------------------------------------


def assemble_cluster(
    cluster_config: ClusterConfig,
    seed: Optional[int] = None,
    trace=None,
) -> Tuple[Environment, VirtualCluster]:
    """Fresh environment + virtual cluster (the bottom half of a run)."""
    env = Environment()
    if seed is not None:
        cluster_config = cluster_config.with_(seed=seed)
    cluster = VirtualCluster(env, cluster_config, trace=trace)
    return env, cluster


def assemble_job(
    cluster_config: ClusterConfig,
    job_config: JobConfig,
    seed: Optional[int] = None,
    trace=None,
    fault_plan: Optional[FaultPlan] = None,
) -> MapReduceJob:
    """Wire up one MapReduce run: env, cluster, network, HDFS, job.

    The only single-job constructor: every run kind that executes one
    job builds it here, so the construction order is the same for all.
    ``env.run(until=job.start())`` executes it; its ``env``,
    ``cluster``, ``topology`` and ``namenode`` stay reachable for
    instrumentation (per-device stats, controller attachment, elevator
    knockouts) between assembly and run.
    """
    env, cluster = assemble_cluster(cluster_config, seed=seed, trace=trace)
    topology = Topology(env)
    namenode = NameNode(cluster, block_size=job_config.block_size)
    return MapReduceJob(env, cluster, topology, namenode, job_config,
                        trace=trace, fault_plan=fault_plan)


def run_controlled_job(
    testbed: TestbedConfig,
    ctrl: CtrlConfig,
    seed: int,
    *,
    fault_plan: Optional[FaultPlan] = None,
    trace=None,
) -> Tuple[JobResult, Optional[OnlineAdaptiveController]]:
    """One uncached simulated job run: ``(result, controller | None)``.

    The cluster starts on ``ctrl.initial``; with a policy configured, an
    :class:`~repro.ctrl.controller.OnlineAdaptiveController` switches
    pairs at the job's phase boundaries.  ``ctrl.interference_bytes``
    adds a co-tenant write stream that may outlive the job.
    """
    job = assemble_job(
        testbed.cluster.with_(initial_pair=SchedulerPair.parse(ctrl.initial)),
        testbed.job, seed=seed, trace=trace, fault_plan=fault_plan,
    )
    env, cluster = job.env, job.cluster
    proc = job.start()
    controller = None
    if ctrl.policy is not None:
        policy = make_policy(ctrl, rng=cluster.rng.stream("ctrl.bandit"))
        controller = OnlineAdaptiveController(job, policy, ctrl,
                                              n_phases=testbed.n_phases)
    if ctrl.interference_bytes > 0:
        SysbenchSeqWrite(env, cluster,
                         total_bytes=ctrl.interference_bytes).start()
    env.run(until=proc)
    result: JobResult = proc.value
    # Backend counters ride on the result; all-HDD clusters report
    # nothing, so their payloads stay bit-identical.
    result.storage = cluster.storage_stats()
    return result, controller


def run_job(
    testbed: TestbedConfig,
    solution: Solution,
    seed: int,
    *,
    fault_plan: Optional[FaultPlan] = None,
    trace=None,
) -> Tuple[JobResult, float]:
    """One uncached simulated run of a phase plan: ``(result, stall)``.

    The cluster starts on the plan's first pair.  A switching plan runs
    under the greedy controller, which switches to each later phase's
    pair at its boundary; ``stall`` is the simulated time spent inside
    those switches.
    """
    labels = plan_labels(solution)
    if solution.is_uniform:
        ctrl = CtrlConfig(initial=labels[0])
    else:
        ctrl = CtrlConfig(policy="greedy", initial=labels[0],
                          phase_pairs=labels)
    result, controller = run_controlled_job(
        testbed, ctrl, seed, fault_plan=fault_plan, trace=trace)
    return result, controller.switch_stall if controller is not None else 0.0


# -- the scenario builder ------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A declarative description of one simulated MapReduce experiment.

    A scenario is pure data; nothing is built until :func:`simulate` or
    :func:`sweep` runs it.  ``workload`` and ``pair`` accept the short
    string forms used throughout the docs (``"sort"``, ``"ac"``) as
    well as the underlying :class:`JobSpec` / :class:`SchedulerPair`
    objects.  ``plan`` overrides ``pair`` with a full per-phase
    :class:`~repro.core.solution.Solution` (elevator switching).
    """

    #: Benchmark name (``sort``/``wordcount``/…) or an explicit JobSpec.
    workload: Union[str, JobSpec] = "sort"
    #: Data-size scale in (0, 1]; 1.0 = the paper's exact sizing.
    scale: float = DEFAULT_SCALE
    hosts: int = 4
    vms_per_host: int = 4
    #: Uniform (VMM, VM) elevator pair; ``None`` = the stock (cfq, cfq).
    pair: Union[str, SchedulerPair, None] = None
    #: Full per-phase plan; overrides ``pair`` when set.
    plan: Optional[Solution] = None
    n_phases: int = 2
    #: Fault-injection plan; ``None`` keeps the run fault-free.
    faults: Optional[FaultPlan] = None
    bytes_per_vm: Optional[int] = None
    #: Storage backend for every host (``repro.disk.backend``:
    #: hdd/ssd/hybrid); validated here, lowered as plain data.
    storage: str = "hdd"
    label: str = ""

    def __post_init__(self) -> None:
        validate_scale(self.scale)
        resolve_storage(self.storage)
        if self.plan is not None and len(self.plan) != self.n_phases:
            raise ValueError(
                f"plan has {len(self.plan)} phases, scenario expects "
                f"{self.n_phases}"
            )
        # Lower once, as to_spec would: a bad workload, pair, phase
        # count, shape or size fails here, not in the first run.
        self.testbed()
        self.solution()

    def with_(self, **changes) -> "Scenario":
        return replace(self, **changes)

    # -- lowering ------------------------------------------------------------------
    @property
    def job_spec(self) -> JobSpec:
        workload = self.workload
        return benchmark(workload) if isinstance(workload, str) else workload

    def solution(self) -> Solution:
        if self.plan is not None:
            return self.plan
        pair = self.pair
        if pair is None:
            pair = DEFAULT_PAIR
        elif isinstance(pair, str):
            pair = SchedulerPair.parse(pair)
        return Solution.uniform(pair, self.n_phases)

    def testbed(self, seeds: Sequence[int] = (0,)) -> TestbedConfig:
        return scaled_testbed(
            self.job_spec,
            scale=self.scale,
            hosts=self.hosts,
            vms_per_host=self.vms_per_host,
            seeds=seeds,
            n_phases=self.n_phases,
            bytes_per_vm=self.bytes_per_vm,
            storage=self.storage,
        )

    def to_spec(self, seed: int = 0) -> "RunSpec":
        """The :class:`~repro.runner.spec.RunSpec` this scenario equals.

        Matches the specs the experiment suite builds for the same
        configuration (kind, config tuple shape, per-seed testbed), so
        cache keys — and therefore cached payloads — are shared.
        """
        # Imported here, not at module level: the runner layer imports
        # this facade (assemble_job), so the facade must sit above it.
        from .runner.spec import RunSpec

        testbed = self.testbed(seeds=(seed,))
        solution = self.solution()
        label = self.label or f"{self.job_spec.name} [{solution}] seed={seed}"
        if self.faults is not None:
            return RunSpec(kind="faulty_job", seed=seed,
                           config=(testbed, solution, self.faults),
                           label=label)
        return RunSpec(kind="job", seed=seed, config=(testbed, solution),
                       label=label)


@dataclass(frozen=True)
class MultiJobScenario:
    """A declarative multi-tenant experiment: N concurrent jobs.

    Lowers to a ``RunSpec(kind="multi_job")`` executing a
    :class:`~repro.mapreduce.multijob.MultiJobTracker` over a Poisson
    arrival stream of ``n_jobs`` jobs.  Like :class:`Scenario` it is
    pure data with a pure ``to_spec`` — equal scenarios share sweep
    cache keys.

    ``pair`` sets the cluster's static elevator pair; ``switch``
    overrides it with cluster-scope phase-majority switching
    (:class:`~repro.mapreduce.multijob.SwitchPlan`), given as
    ``(map_pair, tail_pair)`` in any form ``SchedulerPair.parse``
    accepts (e.g. ``("ad", "cc")``).
    """

    workload: Union[str, JobSpec] = "sort"
    scale: float = DEFAULT_SCALE
    hosts: int = 4
    vms_per_host: int = 4
    #: Static (VMM, VM) pair; ``None`` = the stock (cfq, cfq).
    pair: Union[str, SchedulerPair, None] = None
    #: Phase-majority switch plan; overrides ``pair`` when set.
    switch: Optional[Tuple[Union[str, SchedulerPair],
                           Union[str, SchedulerPair]]] = None
    #: Job-level scheduler: fifo | fair | capacity | sjf.
    scheduler: str = "fifo"
    n_jobs: int = 3
    #: Mean Poisson arrival rate, jobs per simulated second.
    arrival_rate: float = 0.02
    tenants: Tuple[str, ...] = ("tenant-a", "tenant-b")
    size_mix: Tuple[SizeClass, ...] = DEFAULT_SIZE_MIX
    bytes_per_vm: Optional[int] = None
    #: Storage backend name (hdd/ssd/hybrid).
    storage: str = "hdd"
    label: str = ""

    def __post_init__(self) -> None:
        validate_scale(self.scale)
        resolve_storage(self.storage)
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError(
                f"arrival_rate must be finite and positive, got "
                f"{self.arrival_rate}")
        # Lower once, as to_spec would: a bad workload, pair, switch,
        # job scheduler, tenant list, shape or size fails here, not in
        # the first run.
        self.multi_job_config()

    def with_(self, **changes) -> "MultiJobScenario":
        return replace(self, **changes)

    # -- lowering ------------------------------------------------------------------
    @property
    def job_spec(self) -> JobSpec:
        workload = self.workload
        return benchmark(workload) if isinstance(workload, str) else workload

    def arrival_config(self) -> ArrivalConfig:
        return ArrivalConfig(
            n_jobs=self.n_jobs,
            rate=self.arrival_rate,
            tenants=self.tenants,
            size_classes=self.size_mix,
        )

    def switch_plan(self) -> Optional[SwitchPlan]:
        if self.switch is None:
            return None
        if not isinstance(self.switch, tuple) or len(self.switch) != 2:
            raise ValueError(
                f"switch must be a (map_pair, tail_pair) tuple, got "
                f"{self.switch!r}")
        map_pair, tail_pair = self.switch
        return SwitchPlan(
            map_pair=SchedulerPair.parse(map_pair)
            if isinstance(map_pair, str) else map_pair,
            tail_pair=SchedulerPair.parse(tail_pair)
            if isinstance(tail_pair, str) else tail_pair,
        )

    def multi_job_config(self) -> MultiJobConfig:
        cluster = scaled_cluster(
            self.scale, hosts=self.hosts, vms_per_host=self.vms_per_host,
            storage=self.storage,
        )
        if self.pair is not None:
            pair = (SchedulerPair.parse(self.pair)
                    if isinstance(self.pair, str) else self.pair)
            cluster = cluster.with_(initial_pair=pair)
        job = scaled_job(self.job_spec, self.scale,
                         bytes_per_vm=self.bytes_per_vm)
        return MultiJobConfig(
            cluster=cluster,
            base_job=job,
            arrivals=self.arrival_config(),
            scheduler=self.scheduler,
            switch_plan=self.switch_plan(),
        )

    def to_spec(self, seed: int = 0) -> "RunSpec":
        """The ``multi_job`` :class:`~repro.runner.spec.RunSpec` this
        scenario equals (pure: no environment reads, no clock)."""
        # Imported here, not at module level: the runner layer imports
        # this facade, so the facade must sit above it.
        from .runner.spec import RunSpec

        label = self.label or (
            f"{self.job_spec.name} x{self.n_jobs} [{self.scheduler}] "
            f"seed={seed}"
        )
        return RunSpec(kind="multi_job", seed=seed,
                       config=self.multi_job_config(), label=label)


@dataclass(frozen=True)
class ControlledScenario:
    """A declarative online-controlled experiment (``repro.ctrl``).

    Like :class:`Scenario` it is pure data with a pure ``to_spec``:
    equal scenarios lower to equal ``controlled_job`` specs and share
    sweep cache keys.  ``controller=None`` runs the static ``initial``
    pair end to end — the baseline the regret oracle and the
    metamorphic tests compare against.
    """

    workload: Union[str, JobSpec] = "sort"
    scale: float = DEFAULT_SCALE
    hosts: int = 4
    vms_per_host: int = 4
    n_phases: int = 2
    #: Registered policy name (greedy/hysteresis/bandit) or ``None``.
    controller: Optional[str] = None
    #: Pair installed at job start (two-letter label).
    initial: str = "cc"
    #: Target pair label per phase for greedy/hysteresis (index 0 = map).
    phase_pairs: Tuple[str, ...] = ()
    dwell: float = 0.0
    cost_factor: float = 1.0
    cost_budget: float = 5.0
    epsilon: float = 0.1
    #: Bandit arms; ``()`` keeps the registry default.
    arms: Tuple[str, ...] = ()
    #: Bandit context features as ``(key, value)`` pairs.
    features: Tuple[Tuple[str, str], ...] = ()
    #: Learned bandit state threaded from a previous run's payload.
    state: Tuple[Tuple[str, str, int, float], ...] = ()
    #: Fault-injection plan; ``None`` keeps the run fault-free.
    faults: Optional[FaultPlan] = None
    #: Background co-tenant write volume (bytes; 0 = none).
    interference_bytes: int = 0
    bytes_per_vm: Optional[int] = None
    #: Storage backend name (hdd/ssd/hybrid).
    storage: str = "hdd"
    label: str = ""

    def __post_init__(self) -> None:
        validate_scale(self.scale)
        resolve_storage(self.storage)
        if self.phase_pairs and len(self.phase_pairs) != self.n_phases:
            raise ValueError(
                f"phase_pairs has {len(self.phase_pairs)} entries, "
                f"scenario expects {self.n_phases}"
            )
        # Lower once, as to_spec would: the policy, labels and knob
        # ranges, then the workload, phase count, shape and size.
        self.ctrl_config()
        self.testbed()

    def with_(self, **changes) -> "ControlledScenario":
        return replace(self, **changes)

    # -- lowering ------------------------------------------------------------------
    @property
    def job_spec(self) -> JobSpec:
        workload = self.workload
        return benchmark(workload) if isinstance(workload, str) else workload

    def ctrl_config(self) -> CtrlConfig:
        kwargs = dict(
            policy=self.controller,
            initial=self.initial,
            phase_pairs=self.phase_pairs,
            dwell=self.dwell,
            cost_factor=self.cost_factor,
            cost_budget=self.cost_budget,
            epsilon=self.epsilon,
            features=self.features,
            state=self.state,
            interference_bytes=self.interference_bytes,
        )
        if self.arms:
            kwargs["arms"] = self.arms
        return CtrlConfig(**kwargs)

    def testbed(self, seeds: Sequence[int] = (0,)) -> TestbedConfig:
        return scaled_testbed(
            self.job_spec,
            scale=self.scale,
            hosts=self.hosts,
            vms_per_host=self.vms_per_host,
            seeds=seeds,
            n_phases=self.n_phases,
            bytes_per_vm=self.bytes_per_vm,
            storage=self.storage,
        )

    def to_spec(self, seed: int = 0) -> "RunSpec":
        """The ``controlled_job`` :class:`~repro.runner.spec.RunSpec`
        this scenario equals (pure: no environment reads, no clock)."""
        # Imported here, not at module level: the runner layer imports
        # this facade, so the facade must sit above it.
        from .runner.spec import RunSpec

        policy = self.controller or "static"
        label = self.label or (
            f"{self.job_spec.name} [ctrl:{policy}] seed={seed}"
        )
        return RunSpec(
            kind="controlled_job", seed=seed,
            config=(self.testbed(seeds=(seed,)), self.ctrl_config(),
                    self.faults),
            label=label,
        )


@dataclass(frozen=True)
class RunResult:
    """One simulated run, decoded: result object + raw payload + cost."""

    #: The JSON-able payload (what the sweep cache stores).
    payload: Dict[str, Any]
    #: Decoded phase-structured job result.
    result: JobResult
    #: Wall-clock (simulated) seconds stalled in elevator switches.
    switch_stall: float
    #: Simulation events processed across every Environment in the run.
    events: int
    #: Real (host) seconds the simulation took.
    wall_s: float

    @property
    def duration(self) -> float:
        """Simulated job duration in seconds."""
        return self.result.duration

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def simulate(scenario: Scenario, seed: int = 0, trace=None) -> RunResult:
    """Run one scenario in-process (no cache, no worker fan-out).

    Deterministic: the same ``(scenario, seed)`` always produces the
    same payload, bit-for-bit — the same guarantee the sweep cache
    relies on (DESIGN.md §6).
    """
    from .runner.kinds import encode_job_result, _reset_run_ids

    _reset_run_ids()
    testbed, solution = scenario.testbed(seeds=(seed,)), scenario.solution()
    start_event_census()
    t0 = time.perf_counter()
    result, stall = run_job(testbed, solution, seed,
                            fault_plan=scenario.faults, trace=trace)
    wall_s = time.perf_counter() - t0
    events = finish_event_census()
    payload = encode_job_result(result, stall,
                                faults=scenario.faults is not None)
    return RunResult(payload=payload, result=result, switch_stall=stall,
                     events=events, wall_s=wall_s)


#: Anything :func:`sweep` lowers with ``to_spec(seed)``.
_Facade = Union[Scenario, MultiJobScenario, ControlledScenario]


def sweep(
    scenarios: Union[_Facade, Sequence[_Facade]],
    seeds: Sequence[int] = (0,),
    runner=None,
    **runner_kwargs,
) -> List[List[Dict[str, Any]]]:
    """Run scenarios × seeds through the memoised parallel sweep runner.

    ``scenarios`` is one facade (:class:`Scenario`,
    :class:`MultiJobScenario` or :class:`ControlledScenario`; any object
    with a ``to_spec`` method counts as one) or a sequence of them.
    Returns one list per scenario, holding that scenario's payload for
    each seed (in ``seeds`` order).  ``runner`` is an optional existing
    :class:`~repro.runner.sweep.SweepRunner`; without one, a private
    runner is built from ``runner_kwargs`` (``jobs=``, ``use_cache=``,
    ``cache_dir=``…) and closed before returning.

    Payloads are identical to :func:`simulate` and to
    :func:`~repro.runner.kinds.execute_spec` for the equivalent spec —
    same simulation, same JSON round-trip normalisation.
    """
    from .runner.sweep import SweepRunner

    if hasattr(scenarios, "to_spec"):
        scenarios = [scenarios]
    specs = [sc.to_spec(seed) for sc in scenarios for seed in seeds]
    if runner is not None:
        if runner_kwargs:
            raise TypeError("pass runner_kwargs only when runner is None")
        flat = runner.run_specs(specs)
    else:
        with SweepRunner(**runner_kwargs) as own:
            flat = own.run_specs(specs)
    n = len(seeds)
    return [flat[i * n:(i + 1) * n] for i in range(len(scenarios))]
