"""Block-device queues: admission, dispatch loop, elevator switching.

Two concrete queues share the :class:`ElevatorQueue` machinery:

* :class:`DiskDevice` — the bottom of the stack; "serving" a request
  means occupying the (single) spindle for its modelled service time.
* :class:`repro.virt.vdisk.VirtualBlockDevice` — a guest's view; serving
  means forwarding through the bounded blkfront/blkback ring to Dom0.

Both implement the 2.6-era *elevator switch* protocol the paper
exploits: when the elevator is replaced, the old one is drained — its
queued requests move to a plain FIFO dispatch list and new arrivals
bypass scheduling entirely until the backlog clears.  During that
window the device effectively degrades to noop and the new elevator
starts cold; both effects contribute to the measured switching cost
(paper Fig. 5).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from ..iosched.base import DispatchDecision, IOScheduler
from ..sim.events import PENDING, AnyOf, Event, Timeout
from .model import ServiceTimeModel
from .request import BlockRequest
from .stats import DeviceStats

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus

__all__ = ["ElevatorQueue", "DiskDevice"]

#: Fixed control-plane latency of one sysfs elevator write (seconds).
SWITCH_CONTROL_LATENCY = 0.050


class ElevatorQueue(abc.ABC):
    """Shared queue machinery: submit, dispatch loop, hot switch."""

    #: Backend kind label carried in ``disk.submit`` records so reports
    #: can tell HDDs, SSDs, and guest vdisks apart.
    kind = "disk"

    def __init__(
        self,
        env: "Environment",
        scheduler: IOScheduler,
        name: str,
        trace: Optional["TraceBus"] = None,
    ):
        self.env = env
        self.scheduler = scheduler
        self.name = name
        self.trace = trace

        #: The dispatch FIFO of a switch: the old elevator's drained
        #: requests in its policy order, then arrivals during the switch,
        #: which bypass scheduling (``ELVSWITCH``) and are served
        #: noop-style until the new elevator is in place.
        self._drain_fifo: Deque[BlockRequest] = deque()
        #: rids of old-elevator requests the switch must see complete.
        self._drain_watch: set = set()
        self._switching = False
        self._switch_waiters: List[Event] = []
        self.switch_count = 0
        #: Requests submitted and not yet completed, merged ones included
        #: (the queue depth the online controller prices a switch by).
        self.unfinished = 0
        #: True while dispatch is administratively frozen (VM pause).
        self._paused = False

        self._wakeup: Event = env.event()
        self._proc = env.process(self._run())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<{self.__class__.__name__} {self.name} "
            f"sched={self.scheduler.name} queued={self.queue_depth}>"
        )

    # -- abstract service --------------------------------------------------------
    @abc.abstractmethod
    def _serve(self, request: BlockRequest):
        """Generator that performs (or forwards) the request."""

    @abc.abstractmethod
    def _outstanding(self) -> int:
        """Requests dispatched but not yet completed."""

    @property
    @abc.abstractmethod
    def _can_dispatch(self) -> bool:
        """Whether the service path can take another request now."""

    # -- public API ----------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests queued (scheduler + switch FIFO), excluding outstanding."""
        return self.scheduler.pending + len(self._drain_fifo)

    @property
    def idle(self) -> bool:
        return self._outstanding() == 0 and self.queue_depth == 0

    def submit(self, request: BlockRequest) -> Event:
        """Queue a request; returns its completion event."""
        now = self.env._now
        request.queue_time = now
        if request.submit_time is None:
            request.submit_time = now
        request.completion = Event(self.env)
        if self._switching:
            # ELVSWITCH bypass: straight onto the dispatch FIFO,
            # unsorted and unmerged.
            self._drain_fifo.append(request)
        else:
            self.scheduler.add_request(request, now)
        self.unfinished += 1
        if self.trace is not None:
            self.trace.publish(
                now,
                "disk.submit",
                device=self.name,
                kind=self.kind,
                rid=request.rid,
                op=request.op.value,
                lba=request.lba,
                nsectors=request.nsectors,
                process=request.process_id,
            )
        self._kick()
        return request.completion

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        """Stop dispatching new requests (fault injection: VM pause).

        Requests already in service (or in the backend ring) drain
        normally; arrivals keep queueing and are admitted on
        :meth:`resume`.  Idempotent.
        """
        self._paused = True

    def resume(self) -> None:
        """Restart the dispatch loop after :meth:`pause`."""
        if not self._paused:
            return
        self._paused = False
        self._kick()

    def switch_scheduler(self, factory: Callable[[], IOScheduler]) -> Event:
        """Replace the elevator; returns an event fired when installed.

        Follows the 2.6 protocol: mark the queue as switching, move the
        old elevator's requests to the FIFO dispatch list, wait for the
        whole backlog (plus anything outstanding) to drain, then build
        the new elevator.  A same-to-same switch pays the same price —
        the paper notes re-writing the current scheduler name is not
        free, and neither is it here.
        """
        done = self.env.event()
        self.env.process(self._switch_proc(factory, done))
        return done

    # -- switch internals --------------------------------------------------------------
    def _switch_proc(self, factory: Callable[[], IOScheduler], done: Event):
        # Switches serialize (sysfs store is locked in the kernel).
        while self._switching:
            waiter = self.env.event()
            self._switch_waiters.append(waiter)
            yield waiter

        self._switching = True
        self.switch_count += 1
        start = self.env.now
        # sysfs write + elevator teardown bookkeeping.
        yield self.env.timeout(SWITCH_CONTROL_LATENCY)

        # Drain: the old elevator's queue empties onto the FIFO list in
        # the old policy's dispatch order.
        drained = self._drain_scheduler_in_policy_order(self.env.now)
        self._drain_fifo.extend(drained)
        self._drain_watch = {r.rid for r in drained}
        self._kick()

        # Wait until the old elevator's backlog has cleared the device
        # (2.6 waits for the drained requests to finish; requests that
        # arrive meanwhile flow via the bypass FIFO and do not extend
        # the wait).
        while self._drain_watch:
            waiter = self.env.event()
            self._switch_waiters.append(waiter)
            yield waiter

        # The fresh elevator starts cold: empty merge hash, no
        # anticipation history, fresh CFQ slices.
        self.scheduler = factory()
        self._switching = False
        if self.trace is not None:
            self.trace.publish(
                self.env.now,
                "disk.switched",
                device=self.name,
                scheduler=self.scheduler.name,
                stall=self.env.now - start,
            )
        done.succeed(self.env.now - start)
        self._notify_switch_waiters()
        self._kick()

    def _drain_scheduler_in_policy_order(self, now: float) -> List[BlockRequest]:
        """Pull everything out of the old elevator in its dispatch order.

        The drain preserves the old policy's ordering for requests it
        had already sorted, which is why draining a noop queue full of
        interleaved writes is slower end-to-end than draining a sorted
        one.  Idle holds (anticipation, slice idling) are skipped by
        advancing a pseudo-clock to the hold deadline — the drain does
        not wait.
        """
        ordered: List[BlockRequest] = []
        t = now
        guard = self.scheduler.pending * 8 + 64
        while self.scheduler.pending > 0 and guard > 0:
            guard -= 1
            decision = self.scheduler.next_request(t)
            if decision.request is not None:
                ordered.append(decision.request)
            elif decision.wait_until is not None and decision.wait_until > t:
                t = decision.wait_until
            else:
                break
        if self.scheduler.pending > 0:
            # Policy refused to dispatch (shouldn't happen) — force drain.
            ordered.extend(self.scheduler.drain())
        return ordered

    def _notify_switch_waiters(self) -> None:
        waiters, self._switch_waiters = self._switch_waiters, []
        for waiter in waiters:
            waiter.succeed()

    # -- dispatch loop ------------------------------------------------------------------
    def _kick(self) -> None:
        wakeup = self._wakeup
        if wakeup._value is PENDING:
            wakeup.succeed()

    def _run(self):
        env = self.env
        while True:
            if self._paused or not self._can_dispatch:
                # Paused, or service path saturated (spindle busy /
                # ring full).
                self._wakeup = Event(env)
                yield self._wakeup
                continue
            if self._drain_fifo:
                decision = DispatchDecision(request=self._drain_fifo.popleft())
            elif self._switching:
                # The old elevator dispatches nothing during a switch.
                decision = DispatchDecision()
            else:
                decision = self.scheduler.next_request(env._now)
            request = decision.request
            wait_until = decision.wait_until
            if request is not None:
                yield from self._serve(request)
            elif wait_until is not None and wait_until > env._now:
                # Anticipation / slice idling: hold unless a new request
                # arrives first.
                self._wakeup = Event(env)
                hold = Timeout(env, wait_until - env._now)
                yield AnyOf(env, [self._wakeup, hold])
            elif wait_until is not None:
                continue  # hold already expired; ask again
            else:
                self._wakeup = Event(env)
                yield self._wakeup

    def _completed(self, request: BlockRequest) -> None:
        """Common completion path: notify scheduler, waiters, tracing."""
        now = self.env._now
        request.complete_time = now
        if not self._switching:
            self.scheduler.on_complete(request, now)
        self.unfinished -= len(request.all_rids()) if request.merged_children else 1
        if self.trace is not None:
            self.trace.publish(
                now,
                "disk.complete",
                device=self.name,
                rid=request.rid,
                op=request.op.value,
                nbytes=request.nbytes,
                process=request.process_id,
                # Requests absorbed by elevator merging complete here
                # too; listing them lets auditors prove every submitted
                # rid completes exactly once.
                merged_rids=request.all_rids()[1:],
            )
        _fire_completions(request, request)
        if self._switching:
            self._drain_watch.discard(request.rid)
            self._notify_switch_waiters()
        self._kick()


def _fire_completions(request: BlockRequest, value: BlockRequest) -> None:
    """Trigger the completion of ``request`` and of every request merged
    into it, in that order, each with ``value``, and unbind each one.

    A fired event keeps ``value`` and nothing keeps the event, so a
    completed request and its events hold no reference cycle: they are
    freed by reference counting, not left to the cyclic collector.
    """
    completion = request.completion
    if completion is not None:
        request.completion = None
        completion.succeed(value)
    for child in request.merged_children:
        _fire_completions(child, value)


class DiskDevice(ElevatorQueue):
    """A single-spindle block device with a pluggable elevator."""

    kind = "hdd"

    def __init__(
        self,
        env: "Environment",
        scheduler: IOScheduler,
        model: ServiceTimeModel,
        name: str = "sda",
        trace: Optional["TraceBus"] = None,
        stats: Optional[DeviceStats] = None,
    ):
        self.model = model
        self.stats = stats or DeviceStats()
        self.in_flight: Optional[BlockRequest] = None
        #: Fault-injection knobs: multiplicative service-time slowdown
        #: and additive per-request latency.  The defaults (×1.0, +0.0)
        #: leave modelled service times bit-identical.
        self.service_scale = 1.0
        self.extra_latency = 0.0
        super().__init__(env, scheduler, name, trace)

    # -- ElevatorQueue hooks -----------------------------------------------------
    def _outstanding(self) -> int:
        return 0 if self.in_flight is None else 1

    @property
    def _can_dispatch(self) -> bool:
        return self.in_flight is None

    def _serve(self, request: BlockRequest):
        env = self.env
        self.in_flight = request
        request.dispatch_time = env._now
        breakdown = self.model.service(request)
        service_time = breakdown.total * self.service_scale + self.extra_latency
        yield Timeout(env, service_time)
        self.in_flight = None
        request.complete_time = env._now  # stats need it before _completed
        if self.trace is not None:
            # Service breakdown is only known at the spindle; vdisks
            # forward, so this topic is Dom0-device-only by design.
            self.trace.publish(
                env.now,
                "disk.service",
                device=self.name,
                rid=request.rid,
                op=request.op.value,
                service=service_time,
                seek=breakdown.seek,
                rotation=breakdown.rotation,
                transfer=breakdown.transfer,
            )
        self.stats.on_complete(request, service_time)
        self._completed(request)
