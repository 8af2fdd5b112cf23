"""Controller configuration: pure data, safe inside cache keys.

:class:`CtrlConfig` is the frozen description of one online-control
setup — which policy runs, what plan it targets, how switch costs are
charged, and the bandit's learned state.  Every field is a primitive or
a tuple of primitives so :func:`repro.runner.spec.canonical` hashes it
without surprises, and equal configs share sweep cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..virt.pair import SchedulerPair

__all__ = ["CtrlConfig", "DEFAULT_ARMS"]

#: Candidate tail pairs the bandit chooses between, by two-letter label.
#: ``ad`` is the paper's shuffle/reduce pick; the rest span the
#: anticipatory/CFQ/deadline corners Algorithm 1 searches over.
DEFAULT_ARMS: Tuple[str, ...] = ("ad", "cc", "dd", "ac")


def _check_label(label: str, source: str) -> str:
    """Validate a two-letter pair label and return its canonical form."""
    try:
        return SchedulerPair.parse(label).label
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{source}: {exc}") from None


@dataclass(frozen=True)
class CtrlConfig:
    """One online-control setup (policy + knobs + learned state).

    ``policy=None`` means *no controller*: the run executes the static
    ``initial`` pair end to end, giving the bit-exact baseline the
    metamorphic tests compare against.
    """

    #: Registered policy name (greedy/hysteresis/bandit) or ``None``.
    policy: Optional[str] = None
    #: Pair installed at job start, as a two-letter label.
    initial: str = "cc"
    #: Target pair label per phase (index 0 = the map phase, which must
    #: equal ``initial``).  Greedy and hysteresis follow this plan and
    #: require it; the bandit ignores it.
    phase_pairs: Tuple[str, ...] = ()
    #: Seconds to keep observing after a detected boundary before
    #: deciding (hysteresis dwell; 0 = decide at the boundary).
    dwell: float = 0.0
    #: Multiplier on the estimated switch cost before it is compared to
    #: ``cost_budget``.  ``float("inf")`` forbids switching outright.
    cost_factor: float = 1.0
    #: Maximum charged switch cost (seconds) hysteresis will accept.
    cost_budget: float = 5.0
    #: Bandit exploration rate in [0, 1]; 0 = pure exploitation.
    epsilon: float = 0.1
    #: Bandit arms: candidate tail-phase pair labels.
    arms: Tuple[str, ...] = DEFAULT_ARMS
    #: Context features as sorted ``(key, value)`` pairs — the
    #: workload/fault/scale coordinates the sweep runner fans out.
    features: Tuple[Tuple[str, str], ...] = ()
    #: Learned bandit state threaded between runs: rows of
    #: ``(context, arm, pull_count, mean_duration)``.
    state: Tuple[Tuple[str, str, int, float], ...] = ()
    #: Background co-tenant sequential-write volume (bytes; 0 = none) —
    #: the multi-job interference condition of fig-ctrl.
    interference_bytes: int = 0

    def __post_init__(self) -> None:
        if self.policy is not None:
            # Imported here: policies.py imports this module for types.
            from .policies import resolve_policy

            resolve_policy(self.policy)
        object.__setattr__(self, "initial",
                           _check_label(self.initial, "initial"))
        object.__setattr__(self, "phase_pairs", tuple(
            _check_label(p, "phase_pairs") for p in self.phase_pairs))
        object.__setattr__(self, "arms", tuple(
            _check_label(a, "arms") for a in self.arms))
        if self.policy in ("greedy", "hysteresis") and \
                self.phase_pairs[:1] != (self.initial,):
            raise ValueError(
                f"{self.policy} needs phase_pairs starting with the map "
                f"phase's pair initial={self.initial!r}, got "
                f"{self.phase_pairs!r}")
        # ``not x >= 0`` also rejects NaN, which every comparison in
        # the policies would read as False; inf stays valid (a
        # cost_factor of inf never switches).
        for name, value in (("dwell", self.dwell),
                            ("cost_factor", self.cost_factor),
                            ("cost_budget", self.cost_budget)):
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0 <= self.epsilon <= 1:
            raise ValueError(
                f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.interference_bytes < 0:
            raise ValueError("interference_bytes must be >= 0")
        object.__setattr__(self, "features",
                           tuple(sorted(tuple(map(str, kv))
                                        for kv in self.features)))
        object.__setattr__(self, "state", tuple(
            (str(ctx), str(arm), int(count), float(mean))
            for ctx, arm, count, mean in self.state))

    def with_(self, **changes) -> "CtrlConfig":
        return replace(self, **changes)

    @property
    def context(self) -> str:
        """The bandit context key rendered from ``features``."""
        if not self.features:
            return "default"
        return "|".join(f"{k}={v}" for k, v in self.features)
