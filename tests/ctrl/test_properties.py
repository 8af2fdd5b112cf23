"""Controller properties: boundary detection, signals, metamorphics.

The load-bearing assertions are the bit-exact identities: an online
greedy run equals the ``job`` kind's run of the same offline plan (which
``run_job`` lowers to the same greedy controller), and a never-switching
controller equals the uncontrolled ``job`` kind.  They anchor everything
the regret oracle assumes — a policy's trajectory for plan *P* IS the
static run of *P*.  The queue depth the controller prices switches by
is pinned against the trace-derived ``disk.queue_depth`` gauges.
"""

import json

import pytest

from repro.api import assemble_cluster, assemble_job, scaled_testbed
from repro.core.solution import Solution
from repro.ctrl import BOUNDARY_NAMES, CtrlConfig, OnlineAdaptiveController
from repro.ctrl.policies import (
    BanditPolicy,
    GreedyPolicy,
    HysteresisPolicy,
    Observation,
    make_policy,
    policy_names,
    resolve_policy,
)
from repro.disk import SWITCH_CONTROL_LATENCY
from repro.obs.metrics import TraceMetrics
from repro.runner import RunSpec, SweepRunner, execute_spec
from repro.sim.tracing import TraceBus
from repro.virt.pair import SchedulerPair
from repro.workloads.profiles import SORT

from .conftest import controlled_spec, run_controlled, small_testbed

GREEDY = CtrlConfig(policy="greedy", initial="ad", phase_pairs=("ad", "cc"))


def _strip_ctrl(payload):
    return {k: v for k, v in payload.items() if k != "ctrl"}


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


# -- pure policy units (no simulation) -----------------------------------------------


def _obs(phase=1, current="ad", est_cost=0.1):
    return Observation(time=5.0, phase=phase, current=current,
                       queue_depth=4.0, est_cost=est_cost)


def test_registry_names_the_three_policies():
    assert policy_names() == ["bandit", "greedy", "hysteresis"]
    assert resolve_policy("greedy") is GreedyPolicy
    with pytest.raises(ValueError) as exc:
        resolve_policy("nope")
    assert "'bandit', 'greedy', 'hysteresis'" in str(exc.value)


def test_plan_following_policies_need_a_plan_that_starts_on_initial():
    for policy in ("greedy", "hysteresis"):
        with pytest.raises(ValueError, match=r"initial='cc', got \(\)"):
            CtrlConfig(policy=policy, initial="cc")
        # Used to drop the map pair silently: zero switches, cc -> cc.
        with pytest.raises(ValueError, match="initial='cc'"):
            CtrlConfig(policy=policy, initial="cc", phase_pairs=("ad", "cc"))
    # The bandit ignores the plan.
    CtrlConfig(policy="bandit", initial="cc", phase_pairs=("ad", "cc"))


@pytest.mark.parametrize("knob", ["dwell", "cost_factor", "cost_budget"])
def test_nan_knobs_are_rejected_naming_the_field(knob):
    # A NaN dwell ran like dwell 0; a NaN factor or budget let
    # hysteresis switch "within budget".
    with pytest.raises(ValueError, match=knob):
        CtrlConfig(policy="hysteresis", initial="cc",
                   phase_pairs=("cc", "ad"), **{knob: float("nan")})


def test_infinite_cost_factor_stays_valid():
    # The documented "never switch" setting.
    CtrlConfig(policy="hysteresis", initial="cc", phase_pairs=("cc", "ad"),
               cost_factor=float("inf"))


def test_greedy_follows_the_plan_and_holds_when_it_matches():
    policy = make_policy(GREEDY)
    assert policy.decide(_obs(current="ad")).target == "cc"
    assert policy.decide(_obs(current="cc")).target is None


def test_hysteresis_holds_when_the_charged_cost_exceeds_budget():
    config = GREEDY.with_(policy="hysteresis", cost_factor=10.0,
                          cost_budget=0.5)
    policy = HysteresisPolicy(config)
    assert policy.decide(_obs(est_cost=0.04)).target == "cc"  # 0.4 <= 0.5
    assert policy.decide(_obs(est_cost=0.06)).target is None  # 0.6 > 0.5


def test_bandit_exploits_the_lowest_sampled_mean_when_greedy():
    config = CtrlConfig(
        policy="bandit", initial="ad", arms=("ad", "cc"), epsilon=0.0,
        state=(("default", "ad", 1, 9.0), ("default", "cc", 1, 7.0)),
    )
    policy = BanditPolicy(config)
    decision = policy.decide(_obs(current="ad"))
    assert decision.target == "cc"
    assert not decision.explore
    # One decision per job: later boundaries hold.
    assert policy.decide(_obs(phase=2, current="cc")).target is None


def test_bandit_state_round_trips_through_config_rows():
    config = CtrlConfig(policy="bandit", initial="ad", arms=("ad", "cc"),
                        epsilon=0.0,
                        state=(("default", "ad", 2, 8.25),))
    policy = BanditPolicy(config)
    policy.decide(_obs(current="cc"))
    policy.learn(8.0)
    rows = policy.export_state()
    # Feeding the exported rows back yields the same values table.
    again = BanditPolicy(config.with_(state=rows))
    assert again._values == policy._values


# -- boundary detection --------------------------------------------------------------


def test_boundaries_fire_exactly_once_in_order_on_three_phases():
    ctrl = CtrlConfig(policy="greedy", initial="ad",
                      phase_pairs=("ad", "cc", "dd"))
    payload = run_controlled(ctrl, n_phases=3)
    detections = payload["ctrl"]["detections"]
    assert [d["boundary"] for d in detections] == list(BOUNDARY_NAMES)
    assert [d["phase"] for d in detections] == [1, 2]
    times = [d["time"] for d in detections]
    assert times == sorted(times) and times[0] > 0
    assert payload["ctrl"]["plan"] == ["ad", "cc", "dd"]
    assert payload["ctrl"]["n_switches"] == 2


def test_two_phase_runs_detect_only_the_map_boundary():
    payload = run_controlled(GREEDY)
    assert [d["boundary"] for d in payload["ctrl"]["detections"]] \
        == ["maps_done"]
    assert payload["ctrl"]["plan"] == ["ad", "cc"]
    assert payload["ctrl"]["n_switches"] == 1
    assert payload["ctrl"]["switch_stall"] >= 0


# -- the queue-depth signal ----------------------------------------------------------


@pytest.mark.parametrize("storage", ["hdd", "ssd"])
def test_device_counts_equal_the_trace_queue_depth_gauges(storage):
    """Across a whole cluster, each host disk's and VM vdisk's
    unfinished count equals the gauge a TraceMetrics fold derives from
    disk.submit/disk.complete, at every such record, through a mid-run
    cc -> ad switch (merges: tests/disk/test_device.py)."""
    testbed = scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                             storage=storage)
    bus = TraceBus()
    bus.record_topic("disk.*")
    bus.retain_records = False
    job = assemble_job(testbed.cluster, testbed.job, seed=0, trace=bus)
    cluster = job.cluster
    devices = {host.disk.name: host.disk for host in cluster.hosts}
    devices.update({vm.vdisk.name: vm.vdisk for vm in cluster.vms})
    assert len(devices) == len(cluster.hosts) + len(cluster.vms)
    fold = TraceMetrics()
    bus.add_sink(fold.handle)
    checked, mismatches = [0], []

    def check(record):
        if record.topic not in ("disk.submit", "disk.complete"):
            return
        name = record.payload["device"]
        gauge = fold.registry.gauge("disk.queue_depth", device=name).value
        if devices[name].unfinished != gauge:
            mismatches.append((record.time, record.topic, name))
        checked[0] += 1

    bus.add_sink(check)
    proc = job.start()

    def switch():
        yield job.maps_done_event
        yield cluster.set_pair(SchedulerPair.parse("ad"))

    job.env.process(switch())
    job.env.run(until=proc)
    assert mismatches == []
    assert checked[0] > 0
    assert cluster.current_pair.label == "ad"


@pytest.mark.parametrize("storage", ["hdd", "ssd"])
def test_idle_switch_cost_estimate_equals_an_idle_switch_stall(storage):
    """With nothing queued the estimate is the control latency alone,
    which is exactly what a cluster-wide switch on an idle cluster
    stalls (every device pays it concurrently, with nothing to drain)."""
    testbed = scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                             storage=storage)
    job = assemble_job(testbed.cluster, testbed.job, seed=0)
    job.start()  # no I/O is submitted before the clock runs
    ctrl = CtrlConfig(policy="greedy", initial="cc", phase_pairs=("cc", "ad"))
    controller = OnlineAdaptiveController(job, make_policy(ctrl), ctrl)
    assert controller.queue_depth() == 0.0
    estimate = controller.estimate_switch_cost()

    env, cluster = assemble_cluster(testbed.cluster, seed=0)
    done = cluster.set_pair(SchedulerPair.parse("ad"))
    env.run(until=done)
    assert estimate == env.now == SWITCH_CONTROL_LATENCY


# -- determinism across execution paths ----------------------------------------------


def test_controlled_payloads_identical_serial_parallel_cached(tmp_path):
    specs = [controlled_spec(GREEDY, seed=seed) for seed in (0, 1, 2)]
    with SweepRunner(jobs=1, cache_dir=tmp_path / "a") as serial:
        res_serial = serial.run_specs(specs)
    with SweepRunner(jobs=2, cache_dir=tmp_path / "b") as par:
        res_parallel = par.run_specs(specs)
    with SweepRunner(jobs=1, cache_dir=tmp_path / "a") as warm:
        res_cached = warm.run_specs(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
    # Byte-identical, detections and decisions included.
    assert _dumps(res_serial) == _dumps(res_parallel) == _dumps(res_cached)


# -- hysteresis metamorphics ---------------------------------------------------------


def test_inflating_the_charged_switch_cost_never_adds_switches():
    counts = []
    for factor in (0.0, 1.0, 1e6, float("inf")):
        ctrl = GREEDY.with_(policy="hysteresis", cost_factor=factor)
        counts.append(run_controlled(ctrl)["ctrl"]["n_switches"])
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 1  # free switching follows the plan
    assert counts[-1] == 0  # infinite cost forbids switching outright


def test_infinite_cost_hysteresis_is_the_static_baseline_bit_exactly():
    frozen = run_controlled(GREEDY.with_(policy="hysteresis",
                                         cost_factor=float("inf")))
    static = run_controlled(CtrlConfig(policy=None, initial="ad"))
    assert frozen["ctrl"]["n_switches"] == 0
    assert static["ctrl"]["policy"] == "static"
    assert _dumps(_strip_ctrl(frozen)) == _dumps(_strip_ctrl(static))


# -- the anchor identities -----------------------------------------------------------


def test_unconfigured_controller_matches_the_job_kind_bit_exactly():
    testbed = small_testbed()
    static = run_controlled(CtrlConfig(policy=None, initial="ad"))
    solution = Solution.uniform(SchedulerPair.parse("ad"), testbed.n_phases)
    job = execute_spec(RunSpec(kind="job", seed=0,
                               config=(testbed, solution)))
    assert _dumps(_strip_ctrl(static)) == _dumps(job)


def test_online_greedy_switch_matches_the_offline_switcher_bit_exactly():
    testbed = small_testbed()
    greedy = run_controlled(GREEDY)
    solution = Solution.of([SchedulerPair.parse("ad"),
                            SchedulerPair.parse("cc")])
    offline = execute_spec(RunSpec(kind="job", seed=0,
                                   config=(testbed, solution)))
    assert greedy["ctrl"]["n_switches"] == 1
    assert _dumps(_strip_ctrl(greedy)) == _dumps(offline)


# -- bandit state threading ----------------------------------------------------------


def test_bandit_state_threads_between_runs_and_stays_json_able():
    train = CtrlConfig(policy="bandit", initial="ad", arms=("ad", "cc"),
                       epsilon=0.05)
    first = run_controlled(train)
    rows = tuple(tuple(row) for row in first["ctrl"]["state"])
    assert rows, "the training run must learn something"
    json.dumps(first)  # the whole payload survives the cache codec
    evaluate = train.with_(epsilon=0.0, state=rows)
    second = run_controlled(evaluate)
    # Pure exploitation never explores.
    assert all(not d["explore"] for d in second["ctrl"]["decisions"])
