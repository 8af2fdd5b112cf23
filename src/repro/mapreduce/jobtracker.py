"""The JobTracker: task placement, slot workers, phase events."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

import numpy as np

from ..hdfs.blocks import HdfsFile
from ..hdfs.datanode import DataNodeService
from ..hdfs.namenode import NameNode
from ..sim.events import AllOf, Event
from .attempts import AttemptManager
from .job import JobConfig
from .map_task import MapTask, map_task_proc
from .phases import JobResult, PhaseTimes
from .reduce_task import ReduceTask, reduce_task_proc
from .shuffle import ShuffleService

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan
    from ..net.topology import Topology
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus
    from ..virt.cluster import VirtualCluster

__all__ = ["JobContext", "MapReduceJob", "TaskPool"]


class TaskPool:
    """Pending map tasks, grouped by preferred (data-local) VM.

    Workers take local tasks first; when a VM runs dry it steals from
    the VM with the largest backlog (the stolen block is then read over
    the network from a remote replica).
    """

    def __init__(self, tasks: List[MapTask], steal_threshold: int = 2):
        self._local: Dict[str, Deque[MapTask]] = {}
        for task in tasks:
            self._local.setdefault(task.vm_id, deque()).append(task)
        self.total = len(tasks)
        self.stolen = 0
        #: Minimum victim backlog before a non-local assignment happens.
        #: A VM's own slots drain a short queue faster than a remote read
        #: would, so trackers only go non-local against real stragglers.
        self.steal_threshold = steal_threshold

    def remaining(self) -> int:
        return sum(len(q) for q in self._local.values())

    def take(self, vm_id: str) -> Optional[MapTask]:
        queue = self._local.get(vm_id)
        if queue:
            return queue.popleft()
        # Steal from the most loaded VM; rebind the task to the thief.
        victim = max(self._local.values(), key=len, default=None)
        if not victim or len(victim) < self.steal_threshold:
            return None
        task = victim.popleft()
        self.stolen += 1
        return MapTask(task_id=task.task_id, block=task.block, vm_id=vm_id)

    def evict(self, vm_id: str) -> List[MapTask]:
        """Remove and return a (crashed) VM's still-queued local tasks."""
        queue = self._local.pop(vm_id, None)
        return list(queue) if queue else []


@dataclass
class JobContext:
    """Everything the task generators need, in one handle."""

    env: "Environment"
    cluster: "VirtualCluster"
    topology: "Topology"
    namenode: NameNode
    dn: DataNodeService
    config: JobConfig
    shuffle: ShuffleService
    output_file: HdfsFile
    trace: Optional["TraceBus"] = None
    rng: Optional[np.random.Generator] = None
    #: Attempt/recovery control plane; bound by MapReduceJob._prepare.
    attempts: Optional["AttemptManager"] = None
    maps_finished: int = 0
    n_maps: int = 0
    maps_done_event: Optional[Event] = None
    reducers_may_start: Optional[Event] = None
    map_progress: List = field(default_factory=list)
    reduce_input_bytes: float = 0.0
    reduce_output_bytes: float = 0.0
    #: Multi-job runs tag each job's trace records; ``None`` (the
    #: single-job path) keeps historical trace payloads byte-identical.
    job_tag: Optional[str] = None

    def slowstart_count(self) -> int:
        """Maps that must finish before reducers may launch.

        ``slowstart=0`` means *zero* — reducers start at job start —
        while any positive fraction requires at least one finished map
        (the historical ``max(1, ...)`` behaviour).
        """
        if self.config.slowstart == 0:
            return 0
        return max(1, int(self.config.slowstart * self.n_maps))

    def compute(self, vm, seconds: float, label: Any = None):
        """Submit jittered CPU work on ``vm`` (lockstep breaker)."""
        noise = self.config.cpu_noise
        if noise > 0 and self.rng is not None and seconds > 0:
            seconds *= float(self.rng.uniform(1.0 - noise, 1.0 + noise))
        return vm.compute(seconds, label)

    def on_map_finished(self, task: MapTask) -> None:
        self.maps_finished += 1
        frac = self.maps_finished / self.n_maps
        self.map_progress.append((self.env.now, frac))
        if self.trace is not None:
            if self.job_tag is None:
                self.trace.publish(
                    self.env.now, "job.map_finished",
                    task_id=task.task_id, done=self.maps_finished,
                    total=self.n_maps,
                )
            else:
                self.trace.publish(
                    self.env.now, "job.map_finished",
                    task_id=task.task_id, done=self.maps_finished,
                    total=self.n_maps, job=self.job_tag,
                )
        slowstart_count = self.slowstart_count()
        if (
            self.maps_finished >= slowstart_count
            and self.reducers_may_start is not None
            and not self.reducers_may_start.triggered
        ):
            self.reducers_may_start.succeed()
        if self.maps_finished >= self.n_maps:
            if not self.maps_done_event.triggered:
                self.maps_done_event.succeed(self.env.now)
            if self.trace is not None:
                if self.job_tag is None:
                    self.trace.publish(self.env.now, "job.maps_done")
                else:
                    self.trace.publish(self.env.now, "job.maps_done",
                                       job=self.job_tag)

    def on_reduce_finished(self, task: ReduceTask, input_bytes: float,
                           output_bytes: float) -> None:
        self.reduce_input_bytes += input_bytes
        self.reduce_output_bytes += output_bytes
        if self.trace is not None:
            if self.job_tag is None:
                self.trace.publish(
                    self.env.now, "job.reduce_finished",
                    reducer=task.reducer_idx,
                )
            else:
                self.trace.publish(
                    self.env.now, "job.reduce_finished",
                    reducer=task.reducer_idx, job=self.job_tag,
                )


class MapReduceJob:
    """One job execution over a virtual cluster.

    Built by :func:`repro.api.assemble_job`::

        parts = assemble_job(cluster_config, job_config)
        proc = parts.start()
        parts.env.run(until=proc)
        result = proc.value
    """

    def __init__(
        self,
        env: "Environment",
        cluster: "VirtualCluster",
        topology: "Topology",
        namenode: NameNode,
        config: JobConfig,
        trace: Optional["TraceBus"] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.topology = topology
        self.namenode = namenode
        self.config = config
        self.trace = trace
        self.fault_plan = fault_plan
        self.attempts: Optional[AttemptManager] = None
        #: Extra counters merged into JobResult.fault_stats (the fault
        #: injector deposits its episode counts here).
        self.extra_fault_stats: Dict[str, int] = {}
        # Ensure every host is on the network.
        for host in cluster.hosts:
            topology.add_host(host.name)
        self.ctx: Optional[JobContext] = None
        #: Phase-boundary events, available once start() is called.
        self.maps_done_event: Optional[Event] = None
        self.shuffle_done_event: Optional[Event] = None
        self.process = None

    def start(self):
        """Launch the job; returns the process whose value is JobResult."""
        if self.process is not None:
            raise RuntimeError("job already started")
        self._prepare()
        self.process = self.env.process(self._run())
        return self.process

    # -- setup ----------------------------------------------------------------------
    def _prepare(self) -> None:
        cfg = self.config
        if not self.namenode.exists(cfg.input_path):
            self.namenode.load_input(cfg.input_path, cfg.bytes_per_vm)
        input_file = self.namenode.lookup(cfg.input_path)
        tasks = [
            MapTask(task_id=i, block=block, vm_id=block.replicas[0])
            for i, block in enumerate(input_file.blocks)
        ]
        n_reducers = cfg.reducers_per_vm * len(self.cluster.vms)
        out_path = cfg.output_path
        if self.namenode.exists(out_path):
            self.namenode.delete(out_path)
        output_file = self.namenode.register_file(out_path)

        shuffle = ShuffleService(self.env, n_reducers, len(tasks),
                                 trace=self.trace)
        self.shuffle_done_event = shuffle.shuffle_done
        self.maps_done_event = self.env.event()
        ctx = JobContext(
            env=self.env,
            cluster=self.cluster,
            topology=self.topology,
            namenode=self.namenode,
            dn=DataNodeService(self.env, self.cluster, self.topology),
            config=cfg,
            shuffle=shuffle,
            output_file=output_file,
            trace=self.trace,
            rng=self.cluster.rng.stream("job.cpu_noise"),
            n_maps=len(tasks),
            maps_done_event=self.maps_done_event,
            reducers_may_start=self.env.event(),
        )
        self.ctx = ctx
        if ctx.slowstart_count() == 0:
            # slowstart=0: reducers are free to launch at job start, not
            # gated on the first finished map.
            ctx.reducers_may_start.succeed()
        self._pool = TaskPool(tasks)
        self._input_file = input_file
        self.attempts = AttemptManager(
            self.env,
            ctx,
            self._pool,
            plan=self.fault_plan,
            rng=self.cluster.rng,
            trace=self.trace,
        )
        ctx.attempts = self.attempts

    # -- execution --------------------------------------------------------------------
    def _map_worker(self, vm_id: str):
        mgr = self.attempts
        while True:
            claim = mgr.claim_map(vm_id)
            if claim is None:
                return
            if isinstance(claim, Event):
                # No placeable work right now, but retries/speculation
                # may still produce some: park until the manager wakes us.
                yield claim
                continue
            yield self.env.process(map_task_proc(self.ctx, claim.task, claim))
            mgr.map_attempt_done(claim)

    def _reduce_worker(self, task: ReduceTask):
        yield self.ctx.reducers_may_start
        mgr = self.attempts
        attempt = mgr.start_reduce(task)
        if attempt is None:
            # Fault-free path: exactly the historical single execution.
            yield self.env.process(reduce_task_proc(self.ctx, task))
            return
        while attempt is not None:
            yield self.env.process(
                reduce_task_proc(self.ctx, attempt.task, attempt)
            )
            attempt = mgr.reduce_attempt_done(attempt)

    def _run(self):
        ctx = self.ctx
        cfg = self.config
        start = self.env.now
        if self.trace is not None:
            self.trace.publish(start, "job.start", name=cfg.spec.name)

        workers = []
        for vm in self.cluster.vms:
            for _ in range(cfg.map_slots):
                workers.append(self.env.process(self._map_worker(vm.vm_id)))

        reducer_tasks = []
        idx = 0
        for _ in range(cfg.reducers_per_vm):
            for vm in self.cluster.vms:
                reducer_tasks.append(ReduceTask(reducer_idx=idx, vm_id=vm.vm_id))
                idx += 1
        reducers = [
            self.env.process(self._reduce_worker(t)) for t in reducer_tasks
        ]

        yield AllOf(self.env, workers + reducers)
        end = self.env.now
        if self.trace is not None:
            # Published retrospectively (no watcher process: attaching a
            # trace must not perturb the event schedule); the record
            # carries the boundary's true simulated time.
            if self.shuffle_done_event.triggered:
                self.trace.publish(
                    self.shuffle_done_event.value, "job.shuffle_done"
                )
            self.trace.publish(end, "job.done", name=cfg.spec.name)

        phases = PhaseTimes(
            start=start,
            maps_done=self.maps_done_event.value
            if self.maps_done_event.triggered
            else end,
            shuffle_done=self.shuffle_done_event.value
            if self.shuffle_done_event.triggered
            else end,
            end=end,
        )
        fault_stats = self.attempts.fault_stats()
        fault_stats.update(self.extra_fault_stats)
        return JobResult(
            job_name=cfg.spec.name,
            phases=phases,
            n_maps=ctx.n_maps,
            n_reducers=len(reducer_tasks),
            input_bytes=self._input_file.size_bytes,
            map_output_bytes=ctx.shuffle.total_map_output_bytes,
            shuffle_bytes=ctx.shuffle.shuffled_bytes,
            reduce_output_bytes=ctx.reduce_output_bytes,
            map_progress=list(ctx.map_progress),
            fault_stats=fault_stats,
        )
