"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-graph design (as popularised by
SimPy): an :class:`Event` moves through three states — *pending* (created
but not yet triggered), *triggered* (scheduled on the environment's event
heap with a value or an exception) and *processed* (its callbacks have
run).  Simulation processes (see :mod:`repro.sim.process`) suspend by
yielding events and are resumed when those events are processed.

Only the pieces needed by the repro stack are implemented, but they are
implemented completely: value/exception propagation, composite
conditions (``AllOf``/``AnyOf``) and process interruption.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .core import Environment

__all__ = [
    "PENDING",
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Interrupt",
    "StopProcess",
    "Timeout",
]

#: Sentinel for an event that has not been triggered yet.
PENDING = object()

#: Scheduling priorities.  Urgent events (process interrupts) run before
#: normal events scheduled for the same timestamp.
URGENT = 0
NORMAL = 1

#: Heap entries are ``(time, key, event)`` where ``key`` packs the
#: priority above the insertion counter (eids stay far below 2**52), so
#: ordering is (time, priority, eid) with one tuple element less to
#: allocate and compare per scheduled event.
KEY_SHIFT = 52
NORMAL_KEY = NORMAL << KEY_SHIFT


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    The interrupt ``cause`` is available both as ``exc.cause`` and as
    ``exc.args[0]``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """Arbitrary object passed to :meth:`Process.interrupt`."""
        return self.args[0]


class StopProcess(Exception):
    """Raised by :func:`repro.sim.process.Process.exit` to return early."""

    def __init__(self, value: Any = None):
        super().__init__(value)

    @property
    def value(self) -> Any:
        return self.args[0]


class Event:
    """An event that may happen at some point in simulated time.

    Callbacks are callables taking the event itself; they run when the
    environment pops the event off the heap.  After that the event is
    *processed* and its :attr:`value` is final.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked when the event is processed.  ``None`` once
        #: the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{self.__class__.__name__} {self._describe()} at {id(self):#x}>"

    def _describe(self) -> str:
        if self._value is PENDING:
            return "pending"
        state = "ok" if self._ok else "failed"
        return f"triggered/{state} value={self._value!r}"

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, NORMAL_KEY | eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this
        event.  If no process waits on it, the environment raises it at
        the next step unless :meth:`defused` is set.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, NORMAL_KEY | eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the environment won't raise."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also false for NaN
            raise ValueError(f"delay must be a non-negative number, got {delay}")
        # Timeouts are the kernel's hottest allocation: initialise the
        # Event slots and push onto the heap directly instead of paying
        # super().__init__ plus env.schedule per yield.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, NORMAL_KEY | eid, self))

    def _describe(self) -> str:
        return f"delay={self.delay}"


class Condition(Event):
    """Composite event over several sub-events.

    Triggers when ``evaluate(events, count)`` returns true, where
    ``count`` is the number of sub-events already processed.  The value
    is a dict mapping each *processed* sub-event to its value, in the
    order the events were given.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events: List[Event] = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        # Evaluate immediately in case all sub-events already happened.
        if self._evaluate(self._events, sum(1 for e in self._events if e.processed)):
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.processed:
                self._on_sub_event(event)
            else:
                event.callbacks.append(self._on_sub_event)

    def _collect(self) -> dict:
        # Only sub-events whose callbacks already ran belong to the value:
        # an AnyOf over (t=1, t=3) must not report the t=3 timeout, even
        # though Timeout instances are "triggered" from birth.
        return {e: e._value for e in self._events if e.processed and e._ok}

    def _on_sub_event(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Triggers when all of ``events`` have triggered successfully."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers as soon as any of ``events`` has triggered."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
