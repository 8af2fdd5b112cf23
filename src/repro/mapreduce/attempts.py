"""Task attempts and JobTracker-side recovery.

Fault-free Hadoop runs one attempt per task; under faults the
JobTracker retries failed attempts on other TaskTrackers (bounded by
``mapred.*.max.attempts``) and launches *speculative* backup attempts
for stragglers, killing the loser when either finishes.  This module
adds exactly that control plane:

* :class:`TaskAttempt` — one execution of a task.  Task generators
  consult it at cooperative checkpoints (chunk/spill/fetch/output
  boundaries) and abort when the attempt has been killed or has hit
  its pre-drawn failure point; the winner claims success exactly once.
* :class:`AttemptManager` — per-job bookkeeping: hands attempts to
  slot workers, requeues failures with re-placement (a retry avoids
  the VM it just failed on), rehomes queued work away from crashed
  VMs, and runs the straggler monitor for speculative execution.

The manager is always present but *inert* without an active fault
plan: no RNG streams are drawn, no events are created, and the claim
path reduces to the plain ``TaskPool.take`` the fault-free scheduler
always used — keeping fault-free runs bit-identical.

Failure points are drawn per ``(task, attempt)`` from dedicated
``faults.*`` RNG streams keyed by name, so they are independent of
scheduling order and of every pre-existing stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from ..sim.events import Event
from .map_task import MapTask
from .reduce_task import ReduceTask

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan
    from ..sim.core import Environment
    from ..sim.rng import RngStreams
    from ..sim.tracing import TraceBus
    from .jobtracker import MapReduceJob, TaskPool

__all__ = ["TaskAttempt", "AttemptManager"]


class TaskAttempt:
    """One execution attempt of a map or reduce task."""

    __slots__ = (
        "task",
        "number",
        "speculative",
        "fail_at",
        "killed",
        "succeeded",
        "failed",
        "started_at",
    )

    def __init__(self, task, number: int = 0, speculative: bool = False,
                 fail_at: Optional[float] = None, started_at: float = 0.0):
        self.task = task
        self.number = number
        self.speculative = speculative
        #: Progress fraction at which this attempt fails, or None.
        self.fail_at = fail_at
        self.killed = False
        self.succeeded = False
        self.failed = False
        self.started_at = started_at

    @property
    def is_map(self) -> bool:
        return isinstance(self.task, MapTask)

    @property
    def vm_id(self) -> str:
        return self.task.vm_id

    def should_abort(self, progress: float) -> bool:
        """Checkpoint predicate called by the task generators.

        ``progress`` is a monotone fraction in [0, 1] of the attempt's
        work; the pre-drawn failure point makes failures land mid-task
        rather than only at the start.
        """
        if self.killed:
            return True
        if self.fail_at is not None and progress >= self.fail_at:
            self.failed = True
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "m" if self.is_map else "r"
        tid = self.task.task_id if self.is_map else self.task.reducer_idx
        spec = "s" if self.speculative else ""
        return f"<Attempt {kind}{tid}.{self.number}{spec} on {self.vm_id}>"


class _MapState:
    """Recovery bookkeeping for one map task."""

    __slots__ = ("done", "attempts", "failures", "running", "queued",
                 "speculated")

    def __init__(self) -> None:
        self.done = False
        self.attempts = 0
        self.failures = 0
        self.running: List[TaskAttempt] = []
        self.queued = 0
        self.speculated = False


class AttemptManager:
    """Per-job attempt lifecycle: placement, retry, speculation."""

    def __init__(
        self,
        env: "Environment",
        job: "MapReduceJob",
        pool: "TaskPool",
        plan: Optional["FaultPlan"] = None,
        rng: Optional["RngStreams"] = None,
        trace: Optional["TraceBus"] = None,
    ):
        self.env = env
        self.job = job
        self.pool = pool
        self.plan = plan
        self.trace = trace
        self._rng = rng
        #: Recovery machinery active?  False keeps the fault-free fast
        #: path: claim == pool.take, no events, no stats.
        self.enabled = plan is not None and plan.needs_recovery
        self.stats: Dict[str, int] = {}
        if not self.enabled:
            return
        self._tasks = plan.tasks
        self._spec = plan.speculation
        self._map_state: Dict[int, _MapState] = {}
        #: Requeued work: (MapTask, attempt_number, speculative, avoid_vm).
        self._retry_queue: Deque[tuple] = deque()
        self._crashed_vms: set = set()
        self._work_event: Event = env.event()
        self._map_durations: List[float] = []
        self._running_reduces: List[TaskAttempt] = []
        self.stats = {
            "map_attempts": 0,
            "map_retries": 0,
            "map_speculative": 0,
            "map_killed": 0,
            "map_failures": 0,
            "reduce_attempts": 0,
            "reduce_retries": 0,
            "reduce_killed": 0,
        }
        if self._spec.enabled:
            env.process(self._straggler_monitor())

    # -- map placement ------------------------------------------------------------
    def claim_map(self, vm_id: str):
        """Next unit of map work for a slot worker on ``vm_id``.

        Returns a :class:`TaskAttempt` to run, an :class:`Event` to
        wait on (work may still appear), or None (the worker may exit).
        """
        if not self.enabled:
            task = self.pool.take(vm_id)
            return TaskAttempt(task) if task is not None else None
        if vm_id in self._crashed_vms:
            return None
        entry = self._take_retry(vm_id)
        if entry is not None:
            task, number, speculative, _ = entry
            return self._start_map(
                MapTask(task.task_id, task.block, vm_id), number, speculative
            )
        task = self.pool.take(vm_id)
        if task is not None:
            return self._start_map(task, 0, False)
        if self.job.maps_finished >= self.job.n_maps:
            return None
        # Tasks may still fail, crash off their VM, or turn speculative:
        # wait for the manager to produce more work.
        return self._work_event

    def _take_retry(self, vm_id: str):
        """Pop the first requeued entry placeable on ``vm_id``."""
        for i, entry in enumerate(self._retry_queue):
            avoid = entry[3]
            if avoid == vm_id and self._n_alive() > 1:
                continue  # re-place away from where it just failed
            del self._retry_queue[i]
            return entry
        return None

    def _start_map(self, task: MapTask, number: int,
                   speculative: bool) -> TaskAttempt:
        attempt = TaskAttempt(
            task,
            number,
            speculative,
            fail_at=self._draw_fail_at("map", task.task_id, number,
                                       self._tasks.map_fail_prob),
            started_at=self.env.now,
        )
        state = self._map_state.setdefault(task.task_id, _MapState())
        state.attempts += 1
        state.running.append(attempt)
        if state.queued > 0:
            state.queued -= 1
        self.stats["map_attempts"] += 1
        if speculative:
            self.stats["map_speculative"] += 1
        return attempt

    def map_attempt_done(self, attempt: TaskAttempt) -> None:
        """A map slot worker finished running ``attempt`` (any outcome)."""
        if not self.enabled:
            return
        state = self._map_state[attempt.task.task_id]
        state.running.remove(attempt)
        if attempt.succeeded:
            state.done = True
            self._map_durations.append(self.env.now - attempt.started_at)
            # First finisher wins: rivals abort at their next checkpoint.
            for rival in state.running:
                rival.killed = True
            self._wake()
            return
        if state.done:
            # Lost the race with a sibling attempt.
            self.stats["map_killed"] += 1
            return
        if attempt.failed:
            state.failures += 1
            self.stats["map_failures"] += 1
        else:
            self.stats["map_killed"] += 1
        # Requeue unless a sibling attempt is still running or queued.
        if not state.running and state.queued == 0:
            self._requeue_map(attempt)

    def _requeue_map(self, attempt: TaskAttempt) -> None:
        state = self._map_state[attempt.task.task_id]
        number = attempt.number + 1
        state.queued += 1
        self._retry_queue.append(
            (attempt.task, number, attempt.speculative, attempt.vm_id)
        )
        self.stats["map_retries"] += 1
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "task.retry", kind="map",
                task_id=attempt.task.task_id, attempt=number,
                failed_on=attempt.vm_id,
            )
        self._wake()

    def claim_success(self, attempt: TaskAttempt) -> bool:
        """Register exactly one winner per task (called by task procs)."""
        if not self.enabled:
            attempt.succeeded = True
            return True
        if attempt.killed:
            return False
        if attempt.is_map:
            state = self._map_state[attempt.task.task_id]
            if state.done:
                return False
        attempt.succeeded = True
        return True

    # -- reduce placement ---------------------------------------------------------
    def start_reduce(self, task: ReduceTask) -> Optional[TaskAttempt]:
        """First attempt for a reduce task; None on the fault-free path."""
        if not self.enabled:
            return None
        self.stats["reduce_attempts"] += 1
        attempt = TaskAttempt(
            task,
            0,
            fail_at=self._draw_fail_at("reduce", task.reducer_idx, 0,
                                       self._tasks.reduce_fail_prob),
            started_at=self.env.now,
        )
        self._running_reduces.append(attempt)
        return attempt

    def reduce_attempt_done(self, attempt: TaskAttempt) -> Optional[TaskAttempt]:
        """Next attempt for a finished reduce attempt, or None if done."""
        if attempt in self._running_reduces:
            self._running_reduces.remove(attempt)
        if attempt.succeeded:
            return None
        if attempt.failed:
            self.stats["reduce_retries"] += 1
        else:
            self.stats["reduce_killed"] += 1
        number = attempt.number + 1
        task = attempt.task
        new_vm = self._replace_reduce_vm(task.vm_id)
        if new_vm != task.vm_id:
            task = replace(task, vm_id=new_vm)
        if self.trace is not None:
            self.trace.publish(
                self.env.now, "task.retry", kind="reduce",
                task_id=attempt.task.reducer_idx, attempt=number,
                failed_on=attempt.task.vm_id,
            )
        self.stats["reduce_attempts"] += 1
        retry = TaskAttempt(
            task,
            number,
            fail_at=self._draw_fail_at("reduce", task.reducer_idx, number,
                                       self._tasks.reduce_fail_prob),
            started_at=self.env.now,
        )
        self._running_reduces.append(retry)
        return retry

    def _replace_reduce_vm(self, failed_vm: str) -> str:
        """Deterministically re-place a reduce retry off ``failed_vm``."""
        alive = [vm.vm_id for vm in self.job.cluster.vms
                 if vm.vm_id not in self._crashed_vms]
        if not alive:
            return failed_vm
        candidates = [v for v in alive if v != failed_vm] or alive
        # Rotate by attempt volume so serial retries spread out.
        return candidates[self.stats["reduce_retries"] % len(candidates)]

    # -- crash handling ------------------------------------------------------------
    def on_vm_crashed(self, vm_id: str) -> None:
        """The TaskTracker on ``vm_id`` died: kill and rehome its work."""
        if not self.enabled:
            return
        self._crashed_vms.add(vm_id)
        # Kill running attempts placed there (they abort at the next
        # checkpoint; a kill does not count against max_attempts).
        for state in self._map_state.values():
            for attempt in state.running:
                if attempt.vm_id == vm_id:
                    attempt.killed = True
        for attempt in self._running_reduces:
            if attempt.vm_id == vm_id:
                attempt.killed = True
        # Rehome this VM's still-queued data-local tasks.
        for task in self.pool.evict(vm_id):
            state = self._map_state.setdefault(task.task_id, _MapState())
            state.queued += 1
            self._retry_queue.append((task, 0, False, vm_id))
        self._wake()

    def vm_alive(self, vm_id: str) -> bool:
        return not self.enabled or vm_id not in self._crashed_vms

    # -- speculation ---------------------------------------------------------------
    def _straggler_monitor(self):
        """Periodic scan for map attempts running far past the mean."""
        job = self.job
        spec = self._spec
        while job.maps_finished < job.n_maps:
            yield self.env.timeout(spec.check_interval_s)
            if job.maps_finished >= job.n_maps:
                return
            if job.maps_finished < spec.min_finished_fraction * job.n_maps:
                continue
            if self.pool.remaining() > 0 or self._retry_queue:
                continue  # slots have real work; don't burn them on backups
            if not self._map_durations:
                continue
            mean = sum(self._map_durations) / len(self._map_durations)
            threshold = spec.slowdown_threshold * mean
            for state in self._map_state.values():
                if state.done or state.speculated or state.queued:
                    continue
                if len(state.running) != 1:
                    continue
                attempt = state.running[0]
                if self.env.now - attempt.started_at <= threshold:
                    continue
                state.speculated = True
                state.queued += 1
                self._retry_queue.append(
                    (attempt.task, attempt.number + 1, True, attempt.vm_id)
                )
                if self.trace is not None:
                    self.trace.publish(
                        self.env.now, "task.speculative",
                        task_id=attempt.task.task_id,
                        running_on=attempt.vm_id,
                        elapsed=self.env.now - attempt.started_at,
                        mean=mean,
                    )
                self._wake()

    # -- internals -----------------------------------------------------------------
    def _draw_fail_at(self, kind: str, task_id: int, number: int,
                      prob: float) -> Optional[float]:
        """Pre-draw this attempt's failure point (None = succeeds).

        The final allowed attempt never fails (see
        :class:`~repro.faults.plan.TaskFaults`): kills from crashes or
        lost speculation races do not count against the bound.
        """
        if prob <= 0 or self._rng is None:
            return None
        if number >= self._tasks.max_attempts - 1:
            return None
        g = self._rng.stream(f"faults.{kind}{task_id}.a{number}")
        if g.random() >= prob:
            return None
        return float(g.random())

    def _n_alive(self) -> int:
        return len(self.job.cluster.vms) - len(self._crashed_vms)

    def _wake(self) -> None:
        """Release workers parked on the work event."""
        if not self._work_event.triggered:
            self._work_event.succeed()
            self._work_event = self.env.event()

    def fault_stats(self) -> Dict[str, int]:
        """Counters for :attr:`JobResult.fault_stats` (empty when inert)."""
        return dict(self.stats)
