"""The online adaptive controller: live signals → boundaries → switches.

Unlike the offline path (the ``_switcher`` behind
:func:`repro.api.run_job`), which is handed the job's own phase-boundary events,
this controller learns the boundaries the way a real daemon would —
from the trace topics the simulation already publishes:

* ``job.map_finished`` — map progress; ``done == total`` marks the
  map→tail boundary (published *before* the job's internal
  ``maps_done_event`` fires, so detection lands at the same simulated
  instant as the oracle event);
* ``shuffle.fetch`` — live shuffle residual; ``remaining == 0`` marks
  the shuffle→reduce boundary on three-phase plans;
* ``disk.submit``/``disk.complete`` — folded into per-device
  queue-depth gauges by :class:`~repro.obs.metrics.TraceMetrics`, the
  state the switch-cost estimate reads.

Trace subscription is schedule-neutral (no simulated time, no RNG), so
attaching the controller without ever switching leaves the job's
payload bit-identical to an uncontrolled run — the anchor property of
``tests/ctrl``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from ..virt.pair import SchedulerPair
from .config import CtrlConfig
from .policies import ControllerPolicy, Observation

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus, TraceRecord
    from ..virt.cluster import VirtualCluster

__all__ = ["OnlineAdaptiveController", "BOUNDARY_NAMES", "SIGNAL_TOPICS"]

#: Boundary names in firing order (index = phase the boundary opens - 1).
BOUNDARY_NAMES = ("maps_done", "shuffle_done")

#: Topics the controller's metrics bridge must fold (queue depth).
SIGNAL_TOPICS = ("disk.submit", "disk.complete")


class OnlineAdaptiveController:
    """Detects phase boundaries from the trace bus and switches pairs.

    One controller serves one single-job run.  Construction subscribes
    the boundary detectors and launches the decision process; after
    ``env.run`` completes, :meth:`report` returns the JSON-able record
    of everything the controller saw and did.
    """

    def __init__(
        self,
        env: "Environment",
        cluster: "VirtualCluster",
        bus: "TraceBus",
        registry: "MetricsRegistry",
        policy: ControllerPolicy,
        config: CtrlConfig,
        n_phases: int = 2,
    ):
        self.env = env
        self.cluster = cluster
        self.bus = bus
        self.registry = registry
        self.policy = policy
        self.config = config
        self.n_phases = n_phases
        self.switch_stall = 0.0
        self.detections: List[Dict[str, Any]] = []
        self.decisions: List[Dict[str, Any]] = []
        self.switches: List[Dict[str, Any]] = []
        #: Effective pair label per phase, grown as phases open.
        self.plan: List[str] = [config.initial]
        self._current = config.initial
        self._boundaries = [env.event() for _ in range(n_phases - 1)]
        bus.subscribe("job.map_finished", self._on_map_finished)
        if n_phases >= 3:
            bus.subscribe("shuffle.fetch", self._on_shuffle_fetch)
        self._proc = env.process(self._run())

    # -- live signal handlers -----------------------------------------------------
    def _on_map_finished(self, record: "TraceRecord") -> None:
        p = record.payload
        if p.get("total") and p.get("done", 0) >= p["total"]:
            self._boundary(0, record.time)

    def _on_shuffle_fetch(self, record: "TraceRecord") -> None:
        if record.payload.get("remaining") == 0:
            self._boundary(1, record.time)

    def _boundary(self, index: int, time: float) -> None:
        if index >= len(self._boundaries):
            return
        event = self._boundaries[index]
        if event.triggered:
            return
        self.detections.append({
            "boundary": BOUNDARY_NAMES[index],
            "phase": index + 1,
            "time": time,
        })
        self.bus.publish(time, "ctrl.phase",
                         boundary=BOUNDARY_NAMES[index], phase=index + 1)
        event.succeed(time)

    # -- state reads --------------------------------------------------------------
    def queue_depth(self) -> float:
        """Outstanding requests summed over every physical disk queue."""
        gauges = self.registry.gauges("disk.queue_depth")
        return float(sum(g.value for g in gauges.values()))

    def estimate_switch_cost(self) -> float:
        """Cost of switching *now*: control latency + queue drain.

        The drain term makes the estimate state-dependent, mirroring the
        measured Fig. 5 behaviour (switching under a deep queue stalls
        until in-flight requests complete).
        """
        return (self.cluster.config.switch_control_latency
                + self.queue_depth() * self.config.drain_cost_per_request)

    # -- the decision loop --------------------------------------------------------
    def _run(self):
        for index in range(self.n_phases - 1):
            yield self._boundaries[index]
            if self.config.dwell > 0:
                yield self.env.timeout(self.config.dwell)
            phase = index + 1
            obs = Observation(
                time=self.env.now,
                phase=phase,
                current=self._current,
                queue_depth=self.queue_depth(),
                est_cost=self.estimate_switch_cost(),
            )
            decision = self.policy.decide(obs)
            self.decisions.append({
                "phase": phase,
                "time": obs.time,
                "current": obs.current,
                "target": decision.target,
                "reason": decision.reason,
                "queue_depth": obs.queue_depth,
                "est_cost": decision.est_cost,
                "explore": decision.explore,
            })
            self.bus.publish(self.env.now, "ctrl.decision",
                             policy=self.policy.name, phase=phase,
                             target=decision.target,
                             est_cost=decision.est_cost,
                             explore=decision.explore)
            if decision.target is not None and decision.target != self._current:
                pair = SchedulerPair.parse(decision.target)
                start = self.env.now
                yield self.cluster.set_pair(pair)
                stall = self.env.now - start
                self.switch_stall += stall
                self._current = decision.target
                self.switches.append({
                    "phase": phase,
                    "pair": decision.target,
                    "time": start,
                    "stall": stall,
                })
                self.bus.publish(self.env.now, "ctrl.switch", phase=phase,
                                 pair=decision.target, stall=stall)
            self.plan.append(self._current)

    def report(self) -> Dict[str, Any]:
        """JSON-able record of this run's control activity."""
        plan = list(self.plan)
        # Boundaries that never fired (e.g. the job ended first) leave
        # the plan short; the installed pair simply carried through.
        while len(plan) < self.n_phases:
            plan.append(self._current)
        return {
            "policy": self.policy.name,
            "initial": self.config.initial,
            "plan": plan,
            "detections": list(self.detections),
            "decisions": list(self.decisions),
            "switches": list(self.switches),
            "n_switches": len(self.switches),
            "switch_stall": self.switch_stall,
        }
