"""The simulation environment: clock, event heap, and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from .events import KEY_SHIFT, NORMAL, NORMAL_KEY, Event, Timeout
from .process import Process

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "start_event_census",
    "finish_event_census",
]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""


#: When a census is active, every Environment constructed registers
#: itself here so callers (the bench harness) can total the events
#: processed across all environments a run created.
_census: Optional[List["Environment"]] = None


def start_event_census() -> None:
    """Begin collecting environments for an event count (bench harness)."""
    global _census
    _census = []


def finish_event_census() -> int:
    """Stop the census; return total events processed by all collected
    environments since their construction."""
    global _census
    envs, _census = _census, None
    return sum(env.events_processed for env in envs or ())


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in *seconds*.  Events scheduled for the same time
    are ordered by priority then insertion order, which makes runs fully
    deterministic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Heap of ``(time, priority<<KEY_SHIFT | eid, event)`` entries.
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0
        #: Events processed (heap pops) over this environment's lifetime.
        self.events_processed = 0
        if _census is not None:
            _census.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Environment t={self._now:.6f} pending={len(self._queue)}>"

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that triggers at the absolute time ``when``.

        ``timeout(when - now)`` fires at ``now + (when - now)``, which
        floating point does not always round back to ``when``; this
        fires at exactly ``when``.
        """
        if not when >= self._now:
            raise ValueError(f"when={when} is not a time at or after now={self._now}")
        event = Event(self)
        event._value = value
        self._eid = eid = self._eid + 1
        heappush(self._queue, (when, NORMAL_KEY | eid, event))
        return event

    def reserve_order(self) -> int:
        """Use up one insertion slot now; return its ``NORMAL`` heap key.

        The key is the one a ``NORMAL`` event created now would get.  An
        event later scheduled under it (:meth:`timeout_reserved`) runs
        among same-time events exactly where it would have run had it
        been created at the reservation, so a component may decide at
        the end of an instant what it would have scheduled earlier in it.
        """
        self._eid = eid = self._eid + 1
        return NORMAL_KEY | eid

    def timeout_reserved(self, delay: float, key: int) -> Event:
        """Create an event ``delay`` seconds from now under a reserved ``key``.

        ``key`` comes from :meth:`reserve_order`; each key is for one event.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be a non-negative number, got {delay}")
        event = Event(self)
        event._value = None
        heappush(self._queue, (self._now + delay, key, event))
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put ``event`` on the heap ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"delay must be a non-negative number, got {delay}")
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, (priority << KEY_SHIFT) | eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event on the heap."""
        try:
            self._now, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.events_processed += 1

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure crashes the simulation: nothing waited
            # on this event, so silently dropping it would hide bugs.
            raise event._value

    # -- run loop ------------------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the heap is empty), a number
        (run until that simulated time) or an :class:`Event` (run until
        it is processed; its value is returned).
        """
        at_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                at_event = until
                if at_event.callbacks is None:
                    # Already processed.
                    return at_event.value
                at_event.callbacks.append(self._stop_at)
            else:
                at = float(until)
                if not at >= self._now:
                    raise ValueError(f"until={at} is not a time at or after now={self._now}")
                stopper = Event(self)
                stopper._ok = True
                stopper._value = None
                stopper.callbacks.append(self._stop_at)
                self.schedule(stopper, NORMAL, at - self._now)

        # The hot loop: step() inlined so each event costs one heap pop
        # and its callbacks, without a Python method call per event.
        queue = self._queue
        pop = heappop
        events = self.events_processed
        try:
            while True:
                try:
                    self._now, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                events += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation:
            if at_event is not None:
                if not at_event.ok:
                    raise at_event.value
                return at_event.value
            return None
        except EmptySchedule:
            if at_event is not None and not at_event.triggered:
                raise RuntimeError(
                    f"simulation ran out of events before {at_event!r} triggered"
                ) from None
            return None
        finally:
            self.events_processed = events

    @staticmethod
    def _stop_at(event: Event) -> None:
        raise StopSimulation(event)
