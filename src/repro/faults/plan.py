"""Declarative fault plans.

A :class:`FaultPlan` is part of a run's identity: ``faulty_job`` specs
carry ``(TestbedConfig, Solution, FaultPlan)`` as their config, so the
plan participates in the sweep runner's content-addressed cache keys
exactly like every other configuration dataclass.  All fields are
primitives for that reason (see :func:`repro.runner.spec.canonical`).

The all-default plan is inert: :attr:`FaultPlan.is_active` is False,
no injector processes are spawned, no RNG streams are drawn, and a job
run is bit-identical to one that never heard of faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "DiskFaults",
    "VmFaults",
    "TaskFaults",
    "SpeculationConfig",
    "FaultPlan",
    "NO_FAULTS",
]


def _check_finite(name: str, value: float, low: float) -> None:
    """Reject ``value`` unless ``low <= value < inf`` (so NaN too).

    A NaN or infinite knob would otherwise pass every range check and
    surface deep in a run, or silently switch an injector off.
    """
    if not low <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= {low}, got {value}")


@dataclass(frozen=True)
class DiskFaults:
    """Episodic Dom0 disk degradation (hot spare rebuilds, noisy
    neighbours on shared storage, SMART remaps).

    While an episode is active every request served by the host disk
    takes ``slow_factor`` times its modelled service time plus
    ``spike_latency_s`` of extra per-request latency.
    """

    #: Mean seconds between episodes per host (exponential); 0 = off.
    slow_interval_s: float = 0.0
    #: Service-time multiplier during an episode.
    slow_factor: float = 1.0
    #: Mean episode length in seconds (exponential).
    slow_duration_s: float = 0.0
    #: Additive per-request latency during an episode.
    spike_latency_s: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("slow_interval_s", self.slow_interval_s, 0.0)
        _check_finite("slow_factor", self.slow_factor, 1.0)
        _check_finite("slow_duration_s", self.slow_duration_s, 0.0)
        _check_finite("spike_latency_s", self.spike_latency_s, 0.0)

    @property
    def active(self) -> bool:
        return self.slow_interval_s > 0 and self.slow_duration_s > 0 and (
            self.slow_factor > 1.0 or self.spike_latency_s > 0
        )


@dataclass(frozen=True)
class VmFaults:
    """Guest-level disturbances: finite pauses and TaskTracker crashes.

    A *pause* freezes the VM's vCPU and its virtual disk dispatch for a
    while (Xen ``xm pause``-style); outstanding backend I/O drains.  A
    *crash* models the TaskTracker process dying: running attempts on
    the VM are killed, no new work is placed there, but the guest's
    storage stays readable so already-served map outputs survive (the
    common Hadoop failure mode; a full disk loss is out of scope).
    """

    #: Mean seconds between pauses per VM (exponential); 0 = off.
    pause_interval_s: float = 0.0
    #: Mean pause length in seconds (exponential).
    pause_duration_s: float = 0.0
    #: Probability that a given VM crashes during the crash window.
    crash_prob: float = 0.0
    #: Crash times are uniform over ``[0, crash_window_s)``.
    crash_window_s: float = 0.0
    #: Hard cap on crashed VMs per run (keeps the cluster schedulable).
    max_crashes: int = 1

    def __post_init__(self) -> None:
        _check_finite("pause_interval_s", self.pause_interval_s, 0.0)
        _check_finite("pause_duration_s", self.pause_duration_s, 0.0)
        if not 0 <= self.crash_prob <= 1:
            raise ValueError("crash_prob must be in [0, 1]")
        _check_finite("crash_window_s", self.crash_window_s, 0.0)
        if self.max_crashes < 0:
            raise ValueError("max_crashes must be non-negative")

    @property
    def pauses_active(self) -> bool:
        return self.pause_interval_s > 0 and self.pause_duration_s > 0

    @property
    def crashes_active(self) -> bool:
        return self.crash_prob > 0 and self.crash_window_s > 0 and self.max_crashes > 0

    @property
    def active(self) -> bool:
        return self.pauses_active or self.crashes_active


@dataclass(frozen=True)
class TaskFaults:
    """Per-attempt task failures (bad records, JVM OOMs, lost leases).

    Each attempt fails with the configured probability at a uniformly
    drawn progress point; the JobTracker retries it elsewhere, up to
    ``max_attempts`` total attempts per task.  The final allowed
    attempt never draws a failure — the simulated job always completes,
    matching the paper's measured (successful) runs — so
    ``max_attempts`` bounds the retry storm rather than aborting jobs.
    """

    map_fail_prob: float = 0.0
    reduce_fail_prob: float = 0.0
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.map_fail_prob <= 1 or not 0 <= self.reduce_fail_prob <= 1:
            raise ValueError("failure probabilities must be in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def active(self) -> bool:
        return (self.map_fail_prob > 0 or self.reduce_fail_prob > 0) and (
            self.max_attempts > 1
        )


@dataclass(frozen=True)
class SpeculationConfig:
    """Hadoop-style speculative execution for straggling map attempts.

    When the pending-task pool is dry, a map attempt running longer
    than ``slowdown_threshold`` times the mean successful map duration
    gets a backup attempt on a different VM; the first attempt to
    finish wins and the loser is killed at its next checkpoint.
    """

    enabled: bool = False
    slowdown_threshold: float = 1.5
    #: Fraction of maps that must have finished before speculating.
    min_finished_fraction: float = 0.5
    #: Straggler-scan period in simulated seconds.
    check_interval_s: float = 5.0

    def __post_init__(self) -> None:
        _check_finite("slowdown_threshold", self.slowdown_threshold, 1.0)
        if not 0 <= self.min_finished_fraction <= 1:
            raise ValueError("min_finished_fraction must be in [0, 1]")
        if not 0 < self.check_interval_s < math.inf:
            raise ValueError("check_interval_s must be finite and > 0, "
                             f"got {self.check_interval_s}")


@dataclass(frozen=True)
class FaultPlan:
    """The complete fault configuration of one run."""

    disk: DiskFaults = field(default_factory=DiskFaults)
    vms: VmFaults = field(default_factory=VmFaults)
    tasks: TaskFaults = field(default_factory=TaskFaults)
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)

    @property
    def is_active(self) -> bool:
        """Whether this plan perturbs a run at all."""
        return (
            self.disk.active
            or self.vms.active
            or self.tasks.active
            or self.speculation.enabled
        )

    @property
    def needs_recovery(self) -> bool:
        """Whether the JobTracker must track retries/backup attempts."""
        return self.tasks.active or self.vms.crashes_active or self.speculation.enabled

    def with_(self, **changes) -> "FaultPlan":
        return replace(self, **changes)


#: The inert plan: no injection, no recovery bookkeeping, bit-identical
#: job results to a run without any fault machinery.
NO_FAULTS = FaultPlan()
