"""Max-min fair flow-level network model.

Shuffle traffic is modelled at flow granularity: a transfer occupies a
set of links (source NIC egress, destination NIC ingress) and all
concurrent flows share link capacity max-min fairly (progressive
filling).  Rates are recomputed once per simulated instant in which a
flow starts or finishes, and the next completion is scheduled
analytically — the same event-driven technique as the processor-sharing
CPU.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = ["Link", "Flow", "FlowNetwork"]


class Link:
    """A unidirectional capacity constraint (bytes/second)."""

    __slots__ = ("name", "capacity", "flows", "_epoch", "_residual", "_count")

    def __init__(self, name: str, capacity: float):
        if not 0 < capacity < math.inf:
            raise ValueError(
                f"link {name}: capacity must be positive and finite, got {capacity}")
        self.name = name
        self.capacity = capacity
        # Scratch used by FlowNetwork._reallocate_and_schedule, valid
        # only within the reallocation epoch stamped on ``_epoch``.
        self._epoch = 0
        self._residual = 0.0
        self._count = 0
        # Insertion-ordered (dict keys, hashed by identity) so iteration
        # order — and hence float accumulation order — is a function of
        # the run alone.
        self.flows: Dict["Flow", None] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Link {self.name} {self.capacity:.0f}B/s flows={len(self.flows)}>"


class Flow:
    """One in-progress transfer across a fixed set of links."""

    __slots__ = ("links", "remaining", "nbytes", "rate", "done", "label",
                 "start_time", "_epoch")

    def __init__(self, links: Tuple[Link, ...], nbytes: float, done: Event,
                 label: Any, start_time: float):
        self.links = links
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = done
        self.label = label
        self.start_time = start_time
        # Epoch stamp: marks the flow rate-assigned during a
        # reallocation pass (see FlowNetwork._reallocate_and_schedule).
        self._epoch = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Flow {self.label!r} left={self.remaining:.0f}B @{self.rate:.0f}B/s>"


class FlowNetwork:
    """The flow scheduler: max-min fair rates, analytic completions.

    Every flow start or finish only invalidates the current rates; one
    solve event per simulated instant recomputes them after all of that
    instant's changes.  The wakeup it schedules takes the heap key
    reserved at the instant's last change, which is where an eager
    re-solve at every change would have put it, so runs are the same
    event for event.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._flows: Dict[Flow, None] = {}
        self._last_update = env.now
        self._generation = 0
        self._epoch = 0
        #: Heap key for the next wakeup, reserved at the last change.
        self._wakeup_key = 0
        self._solve_pending = False
        self.completed_flows = 0
        self.bytes_transferred = 0.0

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, links: List[Link], nbytes: float, label: Any = None) -> Event:
        """Start a transfer; the returned event fires at completion.

        Zero-byte transfers complete immediately.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be non-negative and finite, got {nbytes}")
        if not links:
            raise ValueError("a flow needs at least one link")
        done = Event(self.env)
        if nbytes == 0:
            done.succeed(0.0)
            return done
        self._advance()
        flow = Flow(tuple(links), nbytes, done, label, self.env._now)
        self._flows[flow] = None
        for link in flow.links:
            link.flows[flow] = None
        self._invalidate()
        return done

    # -- internals --------------------------------------------------------------
    def _invalidate(self) -> None:
        """The flow set changed: stale the wakeup, solve once this instant."""
        self._generation += 1
        if not self._flows:
            return
        env = self.env
        self._wakeup_key = env.reserve_order()
        if not self._solve_pending:
            self._solve_pending = True
            solve = env.event()
            solve.callbacks.append(self._on_solve)
            solve.succeed()

    def _on_solve(self, _event: Event) -> None:
        self._solve_pending = False
        self._reallocate_and_schedule()

    def _advance(self) -> None:
        """Charge elapsed progress to every active flow."""
        now = self.env._now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        for flow in self._flows:
            flow.remaining -= dt * flow.rate
            if flow.remaining < 0:
                flow.remaining = 0.0

    def _reallocate_and_schedule(self) -> None:
        """Progressive filling, then schedule the earliest completion."""
        self._generation += 1
        if not self._flows:
            return

        # Fast path: a lone flow gets the capacity of its tightest link
        # (progressive filling with one flow divides each capacity by 1,
        # which is exact, then takes the first strict minimum — min()
        # over the links in order is the identical result).
        if len(self._flows) == 1:
            (flow,) = self._flows
            flow.rate = rate = min(link.capacity for link in flow.links)
            eta = flow.remaining / rate
            gen = self._generation
            wakeup = self.env.timeout_reserved(eta if eta > 1e-9 else 1e-9,
                                               self._wakeup_key)
            wakeup.callbacks.append(lambda _ev, gen=gen: self._on_wakeup(gen))
            return

        # -- max-min rates (progressive filling on link scratch slots) ------------
        # Residual capacity and unassigned-flow counts live directly on
        # the Link objects for the duration of one epoch.  Bottleneck
        # candidates are scanned in first-encounter order and members in
        # ``link.flows`` order; both match the order of ``self._flows``
        # exactly as the old index-list build did, so rates come out in
        # the identical sequence of float operations.
        flows_dict = self._flows
        epoch = self._epoch = self._epoch + 1
        links: List[Link] = []
        for flow in flows_dict:
            for link in flow.links:
                if link._epoch != epoch:
                    link._epoch = epoch
                    link._residual = link.capacity
                    link._count = 1
                    links.append(link)
                else:
                    link._count += 1

        remaining = len(flows_dict)
        inf = float("inf")
        while remaining:
            # Fair share on each link among its unassigned flows.
            best_share = inf
            bottleneck = None
            for link in links:
                count = link._count
                if count == 0:
                    continue
                share = link._residual / count
                if share < best_share:
                    best_share, bottleneck = share, link
            if bottleneck is None:  # pragma: no cover - defensive
                break
            for flow in bottleneck.flows:
                if flow._epoch == epoch:
                    continue  # already assigned this pass
                flow._epoch = epoch
                flow.rate = best_share
                remaining -= 1
                for link in flow.links:
                    left = link._residual - best_share
                    link._residual = left if left > 0.0 else 0.0
                    link._count -= 1

        # -- next completion ------------------------------------------------------
        gen = self._generation
        soonest = inf
        for f in flows_dict:
            rate = f.rate
            if rate > 0:
                eta = f.remaining / rate
                if eta < soonest:
                    soonest = eta
        if soonest == inf:  # pragma: no cover - defensive
            return
        # Clamp below: a residual so small that now+soonest == now in
        # float would wake us at the same timestamp with zero progress,
        # spinning forever.  One nanosecond is far below any modelled
        # effect and guarantees the clock moves.
        wakeup = self.env.timeout_reserved(max(soonest, 1e-9), self._wakeup_key)
        wakeup.callbacks.append(lambda _ev, gen=gen: self._on_wakeup(gen))

    def _on_wakeup(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded
        self._advance()
        finished = [
            f for f in self._flows if f.remaining <= 1e-6 + 1e-12 * f.nbytes
        ]
        for flow in finished:
            del self._flows[flow]
            for link in flow.links:
                link.flows.pop(flow, None)
            self.completed_flows += 1
            self.bytes_transferred += flow.nbytes
            flow.done.succeed(self.env.now - flow.start_time)
        self._invalidate()
