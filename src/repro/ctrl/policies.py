"""Controller policies, looked up by name in ``POLICIES``.

A policy is the pure decision core of the online controller: given an
:class:`Observation` at a detected phase boundary it returns a
:class:`Decision` (switch to a target pair, or hold).  The controller
owns everything stateful around it — signal plumbing, dwell, the actual
switch — so policies stay unit-testable without a simulation.

Three policies ship:

* ``greedy`` — executes the offline (Algorithm 1) plan verbatim,
  cost-blind: the paper's heuristic as an online baseline;
* ``hysteresis`` — same plan, but charges the state-dependent switch
  cost (scaled by ``cost_factor``) against ``cost_budget`` and holds
  when switching is too expensive right now;
* ``bandit`` — contextual ε-greedy over tail-phase pairs, keyed by the
  workload/fault/scale features the sweep runner fans out; its learned
  state threads through :class:`~repro.ctrl.config.CtrlConfig` so runs
  stay pure functions of ``(config, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from .config import CtrlConfig

__all__ = [
    "Observation",
    "Decision",
    "ControllerPolicy",
    "GreedyPolicy",
    "HysteresisPolicy",
    "BanditPolicy",
    "POLICIES",
    "policy_names",
    "resolve_policy",
    "make_policy",
]

def policy_names() -> List[str]:
    """Policy names, sorted (for error messages and help)."""
    return sorted(POLICIES)


def resolve_policy(name: str) -> Type["ControllerPolicy"]:
    """Look up a policy class; unknown names fail with the full menu."""
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown controller policy {name!r}; choose from "
            f"{policy_names()}"
        ) from None


def make_policy(config: CtrlConfig, rng=None) -> "ControllerPolicy":
    """Instantiate the policy ``config`` names."""
    if config.policy is None:
        raise ValueError("config.policy is None (no controller configured)")
    return resolve_policy(config.policy)(config, rng=rng)


@dataclass(frozen=True)
class Observation:
    """What the controller knows at one detected phase boundary."""

    #: Simulated time of the decision point.
    time: float
    #: Index of the phase now starting (1 = post-map tail).
    phase: int
    #: Two-letter label of the currently installed pair.
    current: str
    #: Total outstanding requests across every physical disk queue.
    queue_depth: float
    #: Estimated cost of switching *now* (seconds): control latency
    #: plus a per-queued-request drain charge.  Unscaled — policies
    #: apply ``cost_factor`` themselves.
    est_cost: float


@dataclass(frozen=True)
class Decision:
    """A policy's verdict at one boundary."""

    #: Pair label to switch to, or ``None`` to hold.
    target: Optional[str]
    #: Human-readable rationale (stable strings; lands in payloads).
    reason: str
    #: The unscaled cost estimate the policy saw (finite; payload-safe).
    est_cost: float = 0.0
    #: True when the choice was exploratory (bandit only).
    explore: bool = False


class ControllerPolicy:
    """Base class: one decision per detected boundary, optional learning."""

    name = "?"

    def __init__(self, config: CtrlConfig, rng=None):
        self.config = config
        self.rng = rng

    def decide(self, obs: Observation) -> Decision:
        raise NotImplementedError

    def learn(self, duration: float) -> None:
        """Fold the finished job's duration into learned state (no-op
        for stateless policies)."""

    def export_state(self) -> Tuple[Tuple[str, str, int, float], ...]:
        """Learned state rows to thread into the next run's config."""
        return ()

    def _plan_target(self, obs: Observation) -> Optional[str]:
        plan = self.config.phase_pairs
        if obs.phase >= len(plan):
            return None
        target = plan[obs.phase]
        return None if target == obs.current else target


class GreedyPolicy(ControllerPolicy):
    """Execute the offline plan verbatim, ignoring switch costs.

    This is the paper's Algorithm 1 pick replayed online: whatever pair
    the plan names for the phase being entered, switch to it.  Serves
    as the regret baseline every cost-aware policy must at least tie on
    the fault-free single-job case.
    """

    name = "greedy"

    def decide(self, obs: Observation) -> Decision:
        target = self._plan_target(obs)
        if target is None:
            return Decision(None, "plan keeps the current pair",
                            est_cost=obs.est_cost)
        return Decision(target, "offline plan", est_cost=obs.est_cost)


class HysteresisPolicy(ControllerPolicy):
    """Cost-aware plan follower: switch only when it is cheap enough.

    The charged cost is ``est_cost * cost_factor``; the switch happens
    iff the charge fits within ``cost_budget``.  ``cost_factor=inf``
    therefore degenerates to the static baseline — the anchor of the
    metamorphic tests — and inflating the factor can only ever *remove*
    switches.
    """

    name = "hysteresis"

    def decide(self, obs: Observation) -> Decision:
        target = self._plan_target(obs)
        if target is None:
            return Decision(None, "plan keeps the current pair",
                            est_cost=obs.est_cost)
        charged = obs.est_cost * self.config.cost_factor
        if charged > self.config.cost_budget:
            return Decision(None, "charged switch cost exceeds budget",
                            est_cost=obs.est_cost)
        return Decision(target, "charged switch cost within budget",
                        est_cost=obs.est_cost)


class BanditPolicy(ControllerPolicy):
    """Contextual ε-greedy over tail-phase pairs.

    One decision per job, at the map→tail boundary: pick an arm (a pair
    label) for the rest of the job.  The context key is rendered from
    ``config.features``; per-``(context, arm)`` pull counts and mean
    durations arrive via ``config.state`` and leave via
    :meth:`export_state`, so learning happens *between* runs and each
    run stays pure.

    With ``epsilon > 0`` (training) untried arms are pulled first, then
    ε-greedy exploration kicks in.  With ``epsilon == 0`` (evaluation)
    the policy exploits the best *sampled* mean only — since per-seed
    runs are deterministic, the evaluation regret is the minimum over
    sampled arms and can only shrink as training covers more arms.
    """

    name = "bandit"

    def __init__(self, config: CtrlConfig, rng=None):
        super().__init__(config, rng=rng)
        self.context = config.context
        self._values: Dict[Tuple[str, str], Tuple[int, float]] = {
            (ctx, arm): (count, mean)
            for ctx, arm, count, mean in config.state
        }
        #: Arm chosen this run (set by the first tail-boundary decide).
        self.chosen: Optional[str] = None

    def decide(self, obs: Observation) -> Decision:
        if obs.phase != 1 or self.chosen is not None:
            return Decision(None, "bandit acts at the map boundary only",
                            est_cost=obs.est_cost)
        arms = self.config.arms
        tried = [a for a in arms if (self.context, a) in self._values]
        untried = [a for a in arms if (self.context, a) not in self._values]
        explore = False
        if self.config.epsilon > 0 and self.rng is not None \
                and float(self.rng.random()) < self.config.epsilon:
            arm = arms[int(self.rng.integers(len(arms)))]
            explore = True
            reason = "epsilon exploration"
        elif self.config.epsilon > 0 and untried:
            arm = untried[0]
            explore = True
            reason = "first pull of an untried arm"
        elif tried:
            arm = min(tried,
                      key=lambda a: self._values[(self.context, a)][1])
            reason = "exploit lowest sampled mean duration"
        else:
            arm = arms[0]
            reason = "no samples for this context; default arm"
        self.chosen = arm
        if arm == obs.current:
            return Decision(None, reason + " (already installed)",
                            est_cost=obs.est_cost, explore=explore)
        return Decision(arm, reason, est_cost=obs.est_cost, explore=explore)

    def learn(self, duration: float) -> None:
        if self.chosen is None:
            return
        key = (self.context, self.chosen)
        count, mean = self._values.get(key, (0, 0.0))
        count += 1
        mean += (duration - mean) / count
        self._values[key] = (count, mean)

    def export_state(self) -> Tuple[Tuple[str, str, int, float], ...]:
        return tuple(sorted(
            (ctx, arm, count, mean)
            for (ctx, arm), (count, mean) in self._values.items()
        ))


#: Policy name -> policy class.  Never mutated, so cache-key validation
#: (:class:`~repro.ctrl.config.CtrlConfig` runs on the
#: ``spec_key``/``to_spec`` path) may read it under the CACHE001 lint.
POLICIES: Dict[str, Type[ControllerPolicy]] = {
    cls.name: cls for cls in (GreedyPolicy, HysteresisPolicy, BanditPolicy)
}
