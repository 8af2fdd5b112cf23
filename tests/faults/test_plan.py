"""Unit tests for fault plans and presets."""

import pytest

from repro.faults import (
    NO_FAULTS,
    PRESETS,
    DiskFaults,
    FaultPlan,
    SpeculationConfig,
    TaskFaults,
    VmFaults,
    get_preset,
)


def test_default_plan_is_inert():
    plan = FaultPlan()
    assert not plan.is_active
    assert not plan.needs_recovery
    assert plan is not NO_FAULTS  # equal content, distinct instance is fine
    assert plan == NO_FAULTS


def test_activity_flags():
    assert DiskFaults(slow_interval_s=10, slow_factor=2.0,
                      slow_duration_s=1).active
    assert not DiskFaults().active
    assert VmFaults(pause_interval_s=10, pause_duration_s=1).pauses_active
    assert VmFaults(crash_prob=0.5, crash_window_s=10).crashes_active
    assert not VmFaults().active


def test_needs_recovery_only_for_task_level_faults():
    # Disk slow-downs and pauses perturb timing but need no retry logic.
    env_only = FaultPlan(
        disk=DiskFaults(slow_interval_s=10, slow_factor=2.0,
                        slow_duration_s=1),
        vms=VmFaults(pause_interval_s=10, pause_duration_s=1),
    )
    assert env_only.is_active
    assert not env_only.needs_recovery
    # Crashes, task failures, and speculation do.
    assert FaultPlan(tasks=TaskFaults(map_fail_prob=0.1)).needs_recovery
    assert FaultPlan(
        vms=VmFaults(crash_prob=0.1, crash_window_s=5)
    ).needs_recovery
    assert FaultPlan(
        speculation=SpeculationConfig(enabled=True)
    ).needs_recovery


def test_with_returns_modified_copy():
    plan = NO_FAULTS.with_(tasks=TaskFaults(map_fail_prob=0.2))
    assert plan.tasks.map_fail_prob == 0.2
    assert NO_FAULTS.tasks.map_fail_prob == 0.0


NAN, INF = float("nan"), float("inf")


# NaN and inf used to pass: a NaN slow_factor or spike latency raised
# deep inside a faulty run, and a NaN pause_interval_s switched pauses off.
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(slow_interval_s=-1),
        dict(slow_factor=0.5),
        dict(slow_duration_s=-1),
        dict(spike_latency_s=-1),
        dict(slow_interval_s=NAN),
        dict(slow_factor=NAN),
        dict(slow_factor=INF),
        dict(slow_duration_s=INF),
        dict(spike_latency_s=NAN),
    ],
)
def test_disk_fault_validation(kwargs):
    [field] = kwargs
    with pytest.raises(ValueError, match=field):
        DiskFaults(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(crash_prob=1.5),
        dict(crash_prob=-0.1),
        dict(pause_interval_s=-1),
        dict(max_crashes=-1),
        dict(pause_interval_s=NAN),
        dict(pause_duration_s=INF),
        dict(crash_prob=NAN),
        dict(crash_window_s=NAN),
    ],
)
def test_vm_fault_validation(kwargs):
    [field] = kwargs
    with pytest.raises(ValueError, match=field):
        VmFaults(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(slowdown_threshold=0.5),
        dict(slowdown_threshold=NAN),
        dict(min_finished_fraction=NAN),
        dict(check_interval_s=0),
        dict(check_interval_s=NAN),
        dict(check_interval_s=INF),
    ],
)
def test_speculation_validation(kwargs):
    [field] = kwargs
    with pytest.raises(ValueError, match=field):
        SpeculationConfig(**kwargs)


def test_task_fault_validation():
    with pytest.raises(ValueError):
        TaskFaults(map_fail_prob=2.0)
    with pytest.raises(ValueError):
        TaskFaults(max_attempts=0)


def test_presets_registry():
    assert set(PRESETS) == {"none", "light", "heavy"}
    assert get_preset("none") == NO_FAULTS
    assert get_preset("light").is_active
    assert get_preset("heavy").needs_recovery
    with pytest.raises(KeyError):
        get_preset("apocalyptic")


def test_preset_plans_are_hash_stable():
    # Plans feed content-addressed cache keys: equal plans, equal specs.
    assert get_preset("light") == get_preset("light")
    assert get_preset("light") != get_preset("heavy")
