"""A processor-sharing CPU model.

Virtual CPUs run several Map/Reduce tasks concurrently; the kernel's
scheduler gives each runnable thread an equal share.  Rather than
simulating quantum-by-quantum, this model recomputes completion times
analytically whenever the set of running jobs changes (the standard
event-driven treatment of an egalitarian processor-sharing queue),
which is both exact and far cheaper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["ProcessorSharingCPU", "CPUJob"]


class CPUJob(Event):
    """Completion event for a unit of work submitted to a CPU."""

    __slots__ = ("work", "remaining", "label")

    def __init__(self, env: "Environment", work: float, label: Any = None):
        super().__init__(env)
        self.work = float(work)
        self.remaining = float(work)
        self.label = label


class ProcessorSharingCPU:
    """An egalitarian processor-sharing server.

    ``capacity`` is in abstract work units per second; a job of ``work``
    units alone on the CPU takes ``work / capacity`` seconds, and *n*
    concurrent jobs each proceed at ``capacity / n``.
    """

    def __init__(self, env: "Environment", capacity: float = 1.0, name: str = "cpu"):
        if not 0 < capacity < math.inf:
            raise ValueError(f"capacity must be positive and finite, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._jobs: Dict[int, CPUJob] = {}
        self._jid = 0
        self._last_update = env.now
        self._generation = 0
        self._paused = False
        #: Total work completed (for utilisation accounting).
        self.completed_work = 0.0

    @property
    def load(self) -> int:
        """Number of jobs currently sharing the CPU."""
        return len(self._jobs)

    def execute(self, work: float, label: Any = None) -> CPUJob:
        """Submit ``work`` units; the returned event fires on completion.

        Zero-work jobs complete immediately (at the next event step).
        """
        if not 0 <= work < math.inf:
            raise ValueError(f"work must be non-negative and finite, got {work}")
        job = CPUJob(self.env, work, label)
        if work == 0:
            job.succeed()
            return job
        self._advance()
        self._jid += 1
        self._jobs[self._jid] = job
        self._reschedule()
        return job

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        """Freeze the CPU: running jobs stop accruing progress.

        Models a hypervisor-level VM pause — the vCPU is descheduled,
        so in-flight work neither completes nor advances until
        :meth:`resume`.  Jobs submitted while paused queue up and start
        sharing the CPU on resume.
        """
        if self._paused:
            return
        self._advance()
        self._paused = True
        # Invalidate any scheduled completion wakeups.
        self._generation += 1

    def resume(self) -> None:
        """Unfreeze the CPU; progress accrual restarts from now."""
        if not self._paused:
            return
        self._paused = False
        self._last_update = self.env.now
        self._reschedule()

    # -- internals -----------------------------------------------------------
    def _advance(self) -> None:
        """Charge elapsed progress to every running job."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if self._paused or dt <= 0 or not self._jobs:
            return
        rate = self.capacity / len(self._jobs)
        done = dt * rate
        for job in self._jobs.values():
            job.remaining -= done
            # Guard against accumulation error; completions are handled in
            # _reschedule via the wakeup event.
            if job.remaining < 0:
                job.remaining = 0.0

    def _reschedule(self) -> None:
        """Schedule a wakeup at the earliest next completion."""
        self._generation += 1
        if self._paused or not self._jobs:
            return
        gen = self._generation
        rate = self.capacity / len(self._jobs)
        min_remaining = min(job.remaining for job in self._jobs.values())
        delay = min_remaining / rate
        wakeup = self.env.timeout(delay)
        wakeup.callbacks.append(lambda _ev, gen=gen: self._on_wakeup(gen))

    def _on_wakeup(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a later arrival/completion
        self._advance()
        eps = 1e-12
        finished = [jid for jid, job in self._jobs.items() if job.remaining <= eps]
        for jid in finished:
            job = self._jobs.pop(jid)
            self.completed_work += job.work
            job.succeed()
        self._reschedule()
