"""The job runtime: every job's tasks run on shared per-VM slot workers.

:class:`MultiJobTracker` owns the per-VM map and reduce slot workers.
It runs a single :class:`~repro.mapreduce.jobtracker.MapReduceJob` as
its only, untagged job (that is what ``MapReduceJob.start`` does), and
a ``multi_job`` run's arrival stream (:mod:`repro.workloads.arrivals`)
as tagged jobs admitted over simulated time.  In a consolidated cluster
the interesting dynamics are *between* jobs: one tenant's map wave
overlapping another's shuffle tail, job-level schedulers arbitrating
slot access (FIFO, fair-share, capacity, shortest-job-first), and the
winning elevator pair flipping with the cluster-wide phase mix.

Design notes:

* Every job is a ``MapReduceJob``, enlisted as it is: its ``prepare``
  builds the per-job machinery (HDFS input/output, task pool, shuffle,
  attempt manager, CPU-noise stream), it holds its own slot counters,
  and every claim goes through its
  :class:`~repro.mapreduce.attempts.AttemptManager`.  A multiplexed job
  differs from a single one only in identity: a ``j<id>`` tag on its
  records and scratch names, its own ``job<id>.cpu_noise`` stream,
  globally unique task ids and an untraced shuffle.
* Slot counts come from the job configuration: ``map_slots`` map
  workers and ``reducers_per_vm`` reduce workers per VM.
* Slot workers never busy-wait: a worker that finds no eligible task
  parks on a wake event that admission, task completion and a job's
  slowstart gate trigger.  A claim that returns an event (a job with an
  active fault plan whose retries may still appear) parks on that.
* Reduce slots are claimable only once a job's slowstart gate
  (``reducers_may_start``) has opened.
* The optional :class:`SwitchPlan` applies the paper's adaptive idea at
  cluster scope: while the majority of live jobs are in their map
  phase, run ``map_pair``; once the mix tips into shuffle/reduce
  tails, run ``tail_pair`` — with a ``MIN_DWELL`` hysteresis so a
  churny mix cannot thrash the elevators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..hdfs.namenode import NameNode
from ..sim.events import AllOf, Event
from ..virt.cluster import ClusterConfig
from ..virt.pair import SchedulerPair
from .attempts import TaskAttempt
from .job import JobConfig
from .jobtracker import MapReduceJob
from .map_task import map_task_proc
from .reduce_task import ReduceTask, reduce_task_proc

if TYPE_CHECKING:  # pragma: no cover
    from ..net.topology import Topology
    from ..sim.core import Environment
    from ..sim.process import Process
    from ..sim.tracing import TraceBus
    from ..virt.cluster import VirtualCluster
    from ..workloads.arrivals import ArrivalConfig, JobArrival

__all__ = [
    "JOB_SCHEDULERS",
    "JobScheduler",
    "MultiJobConfig",
    "MultiJobResult",
    "MultiJobTracker",
    "SwitchPlan",
    "job_scheduler",
]


# -- job-level scheduling policies ----------------------------------------------------


class JobScheduler:
    """Orders live jobs by claim priority (highest priority first).

    Stateless by design: policies are pure functions of the live-job
    set, so adding one cannot perturb determinism.  Ties always fall
    back to ``(submit_time, job_id)`` — total and deterministic.
    """

    name = "?"

    def order(self, jobs: List[MapReduceJob]) -> List[MapReduceJob]:
        raise NotImplementedError


class FifoScheduler(JobScheduler):
    """Hadoop's default: strict submission order."""

    name = "fifo"

    def order(self, jobs):
        return sorted(jobs, key=lambda j: (j.submit_time, j.job_id))


class FairScheduler(JobScheduler):
    """Fair-share: the job holding the fewest slots claims next."""

    name = "fair"

    def order(self, jobs):
        return sorted(
            jobs, key=lambda j: (j.running_tasks, j.submit_time, j.job_id)
        )


class CapacityScheduler(JobScheduler):
    """Per-tenant capacity: the most under-served *tenant* goes first.

    Tenants get equal shares; within a tenant, FIFO.  This is the
    coarse-grained YARN capacity idea without preemption.
    """

    name = "capacity"

    def order(self, jobs):
        usage: Dict[str, int] = {}
        for job in jobs:
            usage[job.tenant] = usage.get(job.tenant, 0) + job.running_tasks
        return sorted(
            jobs,
            key=lambda j: (usage[j.tenant], j.submit_time, j.job_id),
        )


class SjfScheduler(JobScheduler):
    """Shortest-job-first by total input bytes (size is known at submit)."""

    name = "sjf"

    def order(self, jobs):
        return sorted(
            jobs, key=lambda j: (j.input_file.size_bytes, j.submit_time,
                                 j.job_id)
        )


JOB_SCHEDULERS: Dict[str, type] = {
    cls.name: cls
    for cls in (FifoScheduler, FairScheduler, CapacityScheduler, SjfScheduler)
}


def job_scheduler(name: str) -> JobScheduler:
    """Instantiate a registered job-level scheduler by name."""
    try:
        return JOB_SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown job scheduler {name!r}; choose from "
            f"{sorted(JOB_SCHEDULERS)}"
        ) from None


# -- configuration --------------------------------------------------------------------


#: Simulated seconds that must pass between two switches of a
#: :class:`SwitchPlan` (hysteresis against a churny job mix).
MIN_DWELL = 20.0


@dataclass(frozen=True)
class SwitchPlan:
    """Cluster-scope phase-majority elevator switching.

    ``map_pair`` runs while most live jobs are still mapping,
    ``tail_pair`` once the mix is majority shuffle/reduce; at least
    ``MIN_DWELL`` seconds pass between switches.
    """

    map_pair: SchedulerPair
    tail_pair: SchedulerPair


@dataclass(frozen=True)
class MultiJobConfig:
    """Everything one multi-job simulation needs (pure data).

    Composed of dataclasses/tuples/scalars only so it canonicalises
    into the sweep cache key; the ``multi_job`` run kind executes it.
    ``base_job`` is the template every arrival instantiates (the size
    class scales its ``bytes_per_vm``; input/output paths get per-job
    suffixes); its ``map_slots`` and ``reducers_per_vm`` set the slot
    workers per VM.
    """

    cluster: ClusterConfig
    base_job: JobConfig
    arrivals: "ArrivalConfig"
    scheduler: str = "fifo"
    switch_plan: Optional[SwitchPlan] = None

    def __post_init__(self) -> None:
        if self.scheduler not in JOB_SCHEDULERS:
            raise ValueError(
                f"unknown job scheduler {self.scheduler!r}; choose from "
                f"{sorted(JOB_SCHEDULERS)}"
            )


# -- the runtime ----------------------------------------------------------------------


@dataclass
class MultiJobResult:
    """What a finished multi-job run reports (JSON-able job records)."""

    scheduler: str
    start: float
    makespan: float
    jobs: List[Dict[str, Any]]


class MultiJobTracker:
    """Runs jobs on per-VM map and reduce slot workers.

    A ``multi_job`` run admits an arrival stream under ``config``::

        tracker = MultiJobTracker(env, cluster, topology, namenode,
                                  config, arrivals)
        proc = tracker.start()
        env.run(until=proc)
        result = proc.value          # a MultiJobResult

    Without ``config`` and ``arrivals`` the tracker runs one prepared
    job: ``MultiJobTracker(env, cluster, topology, namenode).start(job)``
    returns a process whose value is the job's
    :class:`~repro.mapreduce.phases.JobResult`.
    """

    def __init__(
        self,
        env: "Environment",
        cluster: "VirtualCluster",
        topology: "Topology",
        namenode: NameNode,
        config: Optional[MultiJobConfig] = None,
        arrivals: Sequence["JobArrival"] = (),
        trace: Optional["TraceBus"] = None,
    ):
        if config is not None and not arrivals:
            raise ValueError("at least one job arrival is required")
        times = [a.time for a in arrivals]
        if times != sorted(times):
            raise ValueError("arrivals must be time-ordered")
        self.env = env
        self.cluster = cluster
        self.topology = topology
        self.namenode = namenode
        self.config = config
        self.arrivals = list(arrivals)
        self.scheduler = job_scheduler(
            "fifo" if config is None else config.scheduler)
        self.switch_plan = None if config is None else config.switch_plan
        #: Receives ``sched.*`` and ``tenant.*`` records; a single job
        #: publishes its own ``job.*`` lifecycle records instead.
        self.trace = trace
        #: Admitted jobs in admission order (finished ones stay listed).
        self.jobs: List[MapReduceJob] = []
        self.n_finished = 0
        self._arrivals_open = bool(self.arrivals)
        self._next_task_id = 0
        self._slot_waiters: List[Event] = []
        self._phase_waiters: List[Event] = []
        self.process = None

    # -- lifecycle ------------------------------------------------------------------
    def start(self, job: Optional[MapReduceJob] = None) -> "Process":
        """Launch the slot workers; returns the tracker's process.

        With a prepared, untagged ``job`` (and no ``config``) the
        process's value is that job's ``JobResult``; otherwise the
        tracker admits its arrivals and the value is a
        :class:`MultiJobResult`.
        """
        if self.process is not None:
            raise RuntimeError("tracker already started")
        if (job is None) == (self.config is None):
            raise ValueError(
                "run either one prepared job or a configured arrival stream"
            )
        self.process = self.env.process(self._run(job))
        return self.process

    def _run(self, solo: Optional[MapReduceJob]):
        start = self.env.now
        procs = []
        if solo is None:
            slots = self.config.base_job
            procs.append(self.env.process(self._arrival_proc()))
        else:
            slots = solo.config
            self._enlist(solo, tenant="", size_class="")
            if solo.trace is not None:
                solo.trace.publish(start, "job.start",
                                   name=solo.config.spec.name)
        vms = self.cluster.vms
        for vm in vms:
            for _ in range(slots.map_slots):
                procs.append(self.env.process(self._map_worker(vm.vm_id)))
        # In reduce-task order: the k-th reduce worker claims reduce
        # task k of a job whose gate is open when the workers start.
        for vm in vms * slots.reducers_per_vm:
            procs.append(self.env.process(self._reduce_worker(vm.vm_id)))
        if self.switch_plan is not None:
            # Deliberately outside the completion barrier: the monitor
            # may be mid-dwell when the last job drains, and its timeout
            # must not stretch the makespan.
            self.env.process(self._switch_monitor())
        yield AllOf(self.env, procs)
        end = self.env.now

        if solo is not None:
            if solo.trace is not None:
                # Published retrospectively (no watcher process: attaching
                # a trace must not perturb the event schedule); the record
                # carries the boundary's true simulated time.
                if solo.shuffle_done_event.triggered:
                    solo.trace.publish(solo.shuffle_done_event.value,
                                       "job.shuffle_done")
                solo.trace.publish(end, "job.done",
                                   name=solo.config.spec.name)
            return solo.result(start, end)

        unfinished = [job.tag for job in self.jobs if not job.finished]
        if unfinished or len(self.jobs) != len(self.arrivals):
            raise RuntimeError(
                f"multi-job run ended inconsistently: admitted "
                f"{len(self.jobs)}/{len(self.arrivals)}, "
                f"unfinished {unfinished}"
            )
        return MultiJobResult(
            scheduler=self.scheduler.name,
            start=start,
            makespan=end - start,
            jobs=[self._record(job, end) for job in
                  sorted(self.jobs, key=lambda j: j.job_id)],
        )

    def _record(self, job: MapReduceJob, end: float) -> Dict[str, Any]:
        result = job.result(job.submit_time, end)
        return {
            "job_id": job.job_id,
            "tag": job.tag,
            "tenant": job.tenant,
            "size_class": job.size_class,
            "submit": job.submit_time,
            "first_launch": (job.first_launch
                             if job.first_launch is not None
                             else job.submit_time),
            "maps_done": result.phases.maps_done,
            "shuffle_done": result.phases.shuffle_done,
            "end": job.end_time,
            "latency": job.end_time - job.submit_time,
            "n_maps": result.n_maps,
            "n_reducers": result.n_reducers,
            "input_bytes": result.input_bytes,
            "map_output_bytes": result.map_output_bytes,
            "shuffle_bytes": result.shuffle_bytes,
            "reduce_output_bytes": result.reduce_output_bytes,
            "stolen": job.pool.stolen,
        }

    # -- wake plumbing (no busy-wait) -----------------------------------------------
    def _sleep(self) -> Event:
        event = self.env.event()
        self._slot_waiters.append(event)
        return event

    def _notify(self) -> None:
        waiters, self._slot_waiters = self._slot_waiters, []
        for event in waiters:
            event.succeed()

    def _phase_sleep(self) -> Event:
        event = self.env.event()
        self._phase_waiters.append(event)
        return event

    def _notify_phase(self) -> None:
        waiters, self._phase_waiters = self._phase_waiters, []
        for event in waiters:
            event.succeed()

    # -- admission ------------------------------------------------------------------
    def _arrival_proc(self):
        for arrival in self.arrivals:
            delay = arrival.time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._admit(arrival)
        self._arrivals_open = False
        self._notify()
        self._notify_phase()

    def _job_config(self, arrival: "JobArrival") -> JobConfig:
        base = self.config.base_job
        bytes_per_vm = max(
            base.block_size, int(base.bytes_per_vm * arrival.size_class.bytes_factor)
        )
        # Whole blocks only, like scaled_job: a remainder byte would add
        # a short block and change the wave structure unpredictably.
        bytes_per_vm = base.block_size * max(1, bytes_per_vm // base.block_size)
        return base.with_(
            bytes_per_vm=bytes_per_vm,
            input_path=f"{base.input_path}/j{arrival.job_id}",
            output_path=f"{base.output_path}/j{arrival.job_id}",
        )

    def _admit(self, arrival: "JobArrival") -> None:
        # Task ids are globally unique across jobs: scratch-file names
        # and CFQ process queues are keyed by them, and two jobs' "map 0"
        # sharing a VM must not collide.
        job = MapReduceJob(
            self.env, self.cluster, self.topology, self.namenode,
            self._job_config(arrival), trace=self.trace,
            job_id=arrival.job_id, first_task_id=self._next_task_id,
        )
        job.prepare()
        self._next_task_id += job.n_maps
        self._enlist(job, arrival.tenant, arrival.size_class.name)
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "sched.job_admitted",
                job=job.tag, tenant=job.tenant, size_class=job.size_class,
                input_bytes=job.input_file.size_bytes, n_maps=job.n_maps,
            )
        self._notify()
        self._notify_phase()

    def _enlist(self, job: MapReduceJob, tenant: str,
                size_class: str) -> None:
        job.tenant = tenant
        job.size_class = size_class
        job.submit_time = self.env.now
        job.wake_slots = self._notify
        self.jobs.append(job)

    # -- slot workers ---------------------------------------------------------------
    def _live(self) -> List[MapReduceJob]:
        return [job for job in self.jobs if not job.finished]

    def _claim_map(
        self, vm_id: str,
    ) -> Union[Tuple[MapReduceJob, TaskAttempt], Event, None]:
        """The first job in scheduler order with map work for ``vm_id``,
        else an event to park on (retries may still appear), else None."""
        wait = None
        for job in self.scheduler.order(self._live()):
            claim = job.attempts.claim_map(vm_id)
            if isinstance(claim, TaskAttempt):
                return job, claim
            if wait is None:
                wait = claim
        return wait

    def _claim_reduce(
        self, vm_id: str,
    ) -> Optional[Tuple[MapReduceJob, ReduceTask]]:
        for job in self.scheduler.order(self._live()):
            if not job.reducers_may_start.triggered:
                continue  # slowstart gate still closed
            queue = job.reduce_queues[vm_id]
            if queue:
                return job, queue.popleft()
        return None

    def _launched(self, job: MapReduceJob, kind: str, vm_id: str,
                  task_id: int) -> None:
        if job.first_launch is None:
            job.first_launch = self.env.now
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "sched.task_assigned",
                job=job.tag, kind=kind, vm=vm_id, task=task_id,
            )

    def _map_worker(self, vm_id: str):
        while True:
            claim = self._claim_map(vm_id)
            if isinstance(claim, Event):
                yield claim
                continue
            if claim is not None:
                job, attempt = claim
                job.running_maps += 1
                self._launched(job, "map", vm_id, attempt.task.task_id)
                yield self.env.process(
                    map_task_proc(job, attempt.task, attempt)
                )
                job.attempts.map_attempt_done(attempt)
                job.running_maps -= 1
                self._task_done(job)
                continue
            if not self._arrivals_open and not any(
                job.pool.remaining() > 0 for job in self.jobs
            ):
                return
            yield self._sleep()

    def _reduce_worker(self, vm_id: str):
        while True:
            claim = self._claim_reduce(vm_id)
            if claim is not None:
                job, task = claim
                job.running_reduces += 1
                self._launched(job, "reduce", vm_id, task.reducer_idx)
                yield from self._run_reduce(job, task)
                job.running_reduces -= 1
                job.reduces_finished += 1
                self._task_done(job)
                continue
            if not self._arrivals_open and not any(
                job.has_unclaimed_reduces() for job in self.jobs
            ):
                return
            yield self._sleep()

    def _run_reduce(self, job: MapReduceJob, task: ReduceTask):
        mgr = job.attempts
        attempt = mgr.start_reduce(task)
        if attempt is None:
            # Fault-free path: exactly one execution.
            yield self.env.process(reduce_task_proc(job, task))
            return
        while attempt is not None:
            yield self.env.process(
                reduce_task_proc(job, attempt.task, attempt)
            )
            attempt = mgr.reduce_attempt_done(attempt)

    def _task_done(self, job: MapReduceJob) -> None:
        self._maybe_finish(job)
        self._notify()
        self._notify_phase()

    def _maybe_finish(self, job: MapReduceJob) -> None:
        if job.finished:
            return
        if job.maps_complete and job.reduces_finished >= len(job.reduce_tasks):
            job.finished = True
            job.end_time = self.env.now
            self.n_finished += 1
            latency = job.end_time - job.submit_time
            if self.trace is not None:
                self.trace.publish(
                    self.env.now, "sched.job_done",
                    job=job.tag, tenant=job.tenant, latency=latency,
                )
                self.trace.publish(
                    self.env.now, "tenant.job_latency",
                    tenant=job.tenant, latency=latency,
                )

    # -- phase-majority switching ----------------------------------------------------
    def _desired_pair(self, current: SchedulerPair) -> SchedulerPair:
        live = self._live()
        if not live:
            return current  # idle gaps keep whatever is loaded
        mapping = sum(1 for job in live if not job.maps_complete)
        if mapping * 2 >= len(live):
            return self.switch_plan.map_pair
        return self.switch_plan.tail_pair

    def _switch_monitor(self):
        current = self.cluster.config.initial_pair
        last_switch: Optional[float] = None
        while True:
            if not self._arrivals_open and self.n_finished >= len(self.arrivals):
                return
            desired = self._desired_pair(current)
            if desired != current:
                if (last_switch is not None
                        and self.env.now - last_switch < MIN_DWELL):
                    yield self.env.timeout(
                        MIN_DWELL - (self.env.now - last_switch)
                    )
                    continue
                yield self.cluster.set_pair(desired)
                current = desired
                last_switch = self.env.now
                continue
            yield self._phase_sleep()
