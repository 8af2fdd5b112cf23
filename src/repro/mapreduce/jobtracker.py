"""Per-job state: the task pool and the job itself."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional

import numpy as np

from ..faults.injector import FaultInjector
from ..hdfs.blocks import HdfsFile
from ..hdfs.datanode import DataNodeService
from ..hdfs.namenode import NameNode
from ..sim.events import Event
from .attempts import AttemptManager
from .job import CPU_NOISE, JobConfig
from .map_task import MapTask
from .phases import JobResult, PhaseTimes
from .reduce_task import ReduceTask
from .shuffle import ShuffleService

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan
    from ..net.topology import Topology
    from ..sim.core import Environment
    from ..sim.process import Process
    from ..sim.tracing import TraceBus
    from ..virt.cluster import VirtualCluster

__all__ = ["MapReduceJob", "TaskPool"]


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


class MapReduceJob:
    """One MapReduce job: its wiring, its run state and its progress.

    :meth:`prepare` builds the job (input, tasks, shuffle, attempt
    manager, boundary events), the task generators report to
    :meth:`on_map_finished`/:meth:`on_reduce_finished`, and
    :meth:`result` reports the run.  The slot workers that run it
    belong to :class:`~repro.mapreduce.multijob.MultiJobTracker`, which
    enlists the job itself.  A single job is built by
    :func:`repro.api.assemble_job`::

        job = assemble_job(cluster_config, job_config)
        proc = job.start()
        job.env.run(until=proc)
        result = proc.value

    A multiplexed job carries the identity its tracker gives it:
    ``job_id`` tags its records, scratch names and CPU-noise stream,
    and its map task ids start at ``first_task_id``.
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
        job_id: Optional[int] = None,
        first_task_id: int = 0,
    ):
        self.env = env
        self.cluster = cluster
        self.topology = topology
        self.namenode = namenode
        self.config = config
        self.trace = trace
        self.fault_plan = fault_plan
        self.job_id = job_id
        #: ``j<id>`` for a multiplexed job, None for a single job.
        self.tag = None if job_id is None else f"j{job_id}"
        #: Extra payload on this job's ``job.*`` records.
        self.tags: Dict[str, str] = {} if self.tag is None else {"job": self.tag}
        self.first_task_id = first_task_id
        #: Extra counters merged into JobResult.fault_stats (the fault
        #: injector deposits its episode counts here).
        self.extra_fault_stats: Dict[str, int] = {}
        # Ensure every host is on the network.
        for host in cluster.hosts:
            topology.add_host(host.name)
        # Built by prepare().
        self.input_file: Optional[HdfsFile] = None
        self.output_file: Optional[HdfsFile] = None
        self.dn: Optional[DataNodeService] = None
        self.shuffle: Optional[ShuffleService] = None
        self.rng: Optional[np.random.Generator] = None
        self.pool: Optional[TaskPool] = None
        self.attempts: Optional[AttemptManager] = None
        self.n_maps = 0
        self.reduce_tasks: List[ReduceTask] = []
        #: Unclaimed reduce tasks, keyed by their pinned VM.
        self.reduce_queues: Dict[str, Deque[ReduceTask]] = {}
        #: Phase-boundary events and the reducers' slowstart gate.
        self.maps_done_event: Optional[Event] = None
        self.shuffle_done_event: Optional[Event] = None
        self.reducers_may_start: Optional[Event] = None
        self.maps_finished = 0
        self.map_progress: List = []
        self.reduce_output_bytes = 0.0
        # Set by the tracker that enlists the job, and its slot workers.
        self.tenant = ""
        self.size_class = ""
        self.submit_time: Optional[float] = None
        #: Wakes the tracker's parked slot workers.  Called in the step
        #: that opens the slowstart gate, so reduce slots claim their
        #: tasks before the worker of the map that opened it claims its
        #: next one.
        self.wake_slots: Optional[Callable[[], None]] = None
        self.running_maps = 0
        self.running_reduces = 0
        self.reduces_finished = 0
        self.first_launch: Optional[float] = None
        self.finished = False
        self.end_time: Optional[float] = None
        self.process = None

    def start(self) -> "Process":
        """Run the job as the only job of a
        :class:`~repro.mapreduce.multijob.MultiJobTracker`; returns the
        process whose value is the :class:`JobResult`.

        An active fault plan's injector is built right after the
        tracker's process: it needs ``attempts``, which ``prepare``
        creates, so the order is fixed.
        """
        if self.process is not None:
            raise RuntimeError("job already started")
        self.prepare()
        from .multijob import MultiJobTracker  # multijob builds jobs

        tracker = MultiJobTracker(self.env, self.cluster, self.topology,
                                  self.namenode)
        self.process = tracker.start(self)
        plan = self.fault_plan
        if plan is not None and plan.is_active:
            FaultInjector(self.env, self.cluster, plan,
                          manager=self.attempts, trace=self.trace,
                          stats=self.extra_fault_stats)
        return self.process

    def prepare(self) -> None:
        """Build the input, tasks, output file, shuffle, task pool,
        attempt manager and phase-boundary events."""
        cfg = self.config
        if not self.namenode.exists(cfg.input_path):
            self.namenode.load_input(cfg.input_path, cfg.bytes_per_vm)
        self.input_file = self.namenode.lookup(cfg.input_path)
        tasks = [
            MapTask(task_id=self.first_task_id + i, block=block,
                    vm_id=block.replicas[0])
            for i, block in enumerate(self.input_file.blocks)
        ]
        self.n_maps = len(tasks)
        # Reducer idx = round * n_vms + vm index.  A multiplexed job's
        # reducer indices repeat those of other jobs on the same VM, so
        # its tag keeps their scratch files and I/O processes apart.
        self.reduce_tasks = [
            ReduceTask(reducer_idx=idx, vm_id=vm.vm_id,
                       tag="" if self.tag is None else f"{self.tag}.")
            for idx, vm in enumerate(self.cluster.vms * cfg.reducers_per_vm)
        ]
        self.reduce_queues = {vm.vm_id: deque() for vm in self.cluster.vms}
        for task in self.reduce_tasks:
            self.reduce_queues[task.vm_id].append(task)
        out_path = cfg.output_path
        if self.namenode.exists(out_path):
            self.namenode.delete(out_path)
        self.output_file = self.namenode.register_file(out_path)

        # shuffle.fetch records carry no job tag: only a single job
        # traces them.
        self.shuffle = ShuffleService(
            self.env, len(self.reduce_tasks), len(tasks),
            trace=self.trace if self.tag is None else None,
        )
        self.shuffle_done_event = self.shuffle.shuffle_done
        self.maps_done_event = self.env.event()
        self.dn = DataNodeService(self.env, self.cluster, self.topology)
        self.rng = self.cluster.rng.stream(
            "job.cpu_noise" if self.job_id is None
            else f"job{self.job_id}.cpu_noise")
        self.reducers_may_start = self.env.event()
        if self.slowstart_count() == 0:
            # slowstart=0: reducers are free to launch at job start, not
            # gated on the first finished map.
            self.reducers_may_start.succeed()
        self.pool = TaskPool(tasks)
        self.attempts = AttemptManager(
            self.env,
            self,
            self.pool,
            plan=self.fault_plan,
            rng=self.cluster.rng,
            trace=self.trace,
        )

    # -- what the task generators call ------------------------------------------
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
        if seconds > 0:
            seconds *= float(
                self.rng.uniform(1.0 - CPU_NOISE, 1.0 + CPU_NOISE))
        return vm.compute(seconds, label)

    def on_map_finished(self, task: MapTask) -> None:
        self.maps_finished += 1
        frac = self.maps_finished / self.n_maps
        self.map_progress.append((self.env.now, frac))
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "job.map_finished",
                task_id=task.task_id, done=self.maps_finished,
                total=self.n_maps, **self.tags,
            )
        if (
            self.maps_finished >= self.slowstart_count()
            and not self.reducers_may_start.triggered
        ):
            self.reducers_may_start.succeed()
            if self.wake_slots is not None:
                self.wake_slots()
        if self.maps_finished >= self.n_maps:
            if not self.maps_done_event.triggered:
                self.maps_done_event.succeed(self.env.now)
            if self.trace is not None:
                self.trace.publish(self.env.now, "job.maps_done", **self.tags)

    def on_reduce_finished(self, task: ReduceTask,
                           output_bytes: float) -> None:
        self.reduce_output_bytes += output_bytes
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "job.reduce_finished",
                reducer=task.reducer_idx, **self.tags,
            )

    # -- what the tracker reads ---------------------------------------------------
    @property
    def running_tasks(self) -> int:
        return self.running_maps + self.running_reduces

    @property
    def maps_complete(self) -> bool:
        return self.maps_finished >= self.n_maps

    def has_unclaimed_reduces(self) -> bool:
        return any(len(q) > 0 for q in self.reduce_queues.values())

    def result(self, start: float, end: float) -> JobResult:
        """Phase times and byte counts of the job run over [start, end]."""

        def boundary(event: Event) -> float:
            return event.value if event.triggered else end

        fault_stats = self.attempts.fault_stats()
        fault_stats.update(self.extra_fault_stats)
        return JobResult(
            job_name=self.config.spec.name,
            phases=PhaseTimes(
                start=start,
                maps_done=boundary(self.maps_done_event),
                shuffle_done=boundary(self.shuffle_done_event),
                end=end,
            ),
            n_maps=self.n_maps,
            n_reducers=len(self.reduce_tasks),
            input_bytes=self.input_file.size_bytes,
            map_output_bytes=self.shuffle.total_map_output_bytes,
            shuffle_bytes=self.shuffle.shuffled_bytes,
            reduce_output_bytes=self.reduce_output_bytes,
            map_progress=list(self.map_progress),
            fault_stats=fault_stats,
        )
