"""The online adaptive controller: job boundaries → decisions → switches.

The controller reads the simulation the way a daemon reads Hadoop's job
progress and the block layer's queue counters:

* boundaries are the started job's ``maps_done_event`` (map → tail) and,
  on three-phase plans, ``shuffle_done_event`` (shuffle → reduce).  A
  detection records the event's value, the instant the boundary fired,
  even when the controller wakes later (a shuffle boundary can fire
  while the first switch is still draining);
* queue depth sums every host disk's and VM vdisk's unfinished-request
  count, the state the switch-cost estimate reads (paper Fig. 5).

Neither read costs simulated time or draws randomness, so a controller
that never switches leaves the payload bit-identical to an uncontrolled
run — the anchor property of ``tests/ctrl``.  With a trace bus attached
the controller publishes ``ctrl.*`` records; it never reads the bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from ..disk.device import SWITCH_CONTROL_LATENCY
from ..virt.pair import SchedulerPair
from .config import CtrlConfig
from .policies import ControllerPolicy, Observation

if TYPE_CHECKING:  # pragma: no cover
    from ..mapreduce.jobtracker import MapReduceJob

__all__ = ["OnlineAdaptiveController", "BOUNDARY_NAMES"]

#: Boundary names in firing order (index = phase the boundary opens - 1).
BOUNDARY_NAMES = ("maps_done", "shuffle_done")

#: Estimated drain cost per queued request (seconds): the
#: state-dependent part of the switch-cost estimate (paper Fig. 5:
#: switching under a deep queue stalls longer).
DRAIN_COST_PER_REQUEST = 0.004


class OnlineAdaptiveController:
    """Waits on a started job's phase boundaries and switches pairs.

    One controller serves one single-job run.  Construct it after
    ``job.start()`` (the boundary events exist from then on); it
    launches its decision process at once.  After ``env.run`` completes,
    :meth:`report` returns the JSON-able record of everything the
    controller saw and did.
    """

    def __init__(
        self,
        job: "MapReduceJob",
        policy: ControllerPolicy,
        config: CtrlConfig,
        n_phases: int = 2,
    ):
        self.env = job.env
        self.cluster = job.cluster
        self.bus = job.trace
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
        self._boundaries = [job.maps_done_event,
                            job.shuffle_done_event][:n_phases - 1]
        self._proc = self.env.process(self._run())

    # -- state reads --------------------------------------------------------------
    def queue_depth(self) -> float:
        """Unfinished requests summed over every host disk and VM vdisk."""
        cluster = self.cluster
        return float(sum(host.disk.unfinished for host in cluster.hosts)
                     + sum(vm.vdisk.unfinished for vm in cluster.vms))

    def estimate_switch_cost(self) -> float:
        """Cost of switching *now*: control latency + queue drain.

        The drain term makes the estimate state-dependent, mirroring the
        measured Fig. 5 behaviour (switching under a deep queue stalls
        until in-flight requests complete).
        """
        return (SWITCH_CONTROL_LATENCY
                + self.queue_depth() * DRAIN_COST_PER_REQUEST)

    # -- the decision loop --------------------------------------------------------
    def _run(self):
        bus = self.bus
        for index, boundary in enumerate(self._boundaries):
            fired_at = yield boundary
            phase = index + 1
            self.detections.append({
                "boundary": BOUNDARY_NAMES[index],
                "phase": phase,
                "time": fired_at,
            })
            if bus is not None:
                bus.publish(fired_at, "ctrl.phase",
                            boundary=BOUNDARY_NAMES[index], phase=phase)
            if self.config.dwell > 0:
                yield self.env.timeout(self.config.dwell)
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
            if bus is not None:
                bus.publish(self.env.now, "ctrl.decision",
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
                if bus is not None:
                    bus.publish(self.env.now, "ctrl.switch", phase=phase,
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
