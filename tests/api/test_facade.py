"""The ``repro.api`` facade: defaults, determinism, and parity.

The facade must be a veneer, not a fork: a ``Scenario`` lowers to the
same :class:`RunSpec` (same cache key), and :func:`simulate` produces
the same payload, as the :func:`run_job`/``execute_spec`` paths it
wraps.
"""

import json

import pytest

from repro.api import (
    DEFAULT_SCALE,
    ControlledScenario,
    MultiJobScenario,
    RunResult,
    Scenario,
    assemble_job,
    run_job,
    scaled_cluster,
    scaled_job,
    scaled_testbed,
    simulate,
    sweep,
)
from repro.core.solution import Solution
from repro.mapreduce import MB
from repro.runner.adapter import SweepJobRunner
from repro.runner.kinds import encode_job_result, execute_spec, _reset_run_ids
from repro.runner.spec import spec_key
from repro.virt.cluster import ClusterConfig
from repro.virt.pair import DEFAULT_PAIR, SchedulerPair
from repro.workloads import SORT

#: Small enough to simulate in well under a second.
TINY = dict(workload="sort", scale=0.05, hosts=2, vms_per_host=2)


def canon(payload):
    return json.dumps(payload, sort_keys=True)


# -- scenario defaults ----------------------------------------------------------------


def test_scenario_defaults():
    sc = Scenario()
    assert sc.workload == "sort"
    assert sc.job_spec is SORT
    assert sc.scale == DEFAULT_SCALE
    assert (sc.hosts, sc.vms_per_host, sc.n_phases) == (4, 4, 2)
    assert sc.solution() == Solution.uniform(DEFAULT_PAIR, 2)
    spec = sc.to_spec(seed=3)
    assert spec.kind == "job" and spec.seed == 3
    testbed, solution = spec.config
    assert testbed.seeds == (3,)
    assert solution == sc.solution()


def test_scenario_accepts_strings_and_objects():
    by_str = Scenario(workload="sort", pair="ad")
    by_obj = Scenario(workload=SORT,
                      pair=SchedulerPair("anticipatory", "deadline"))
    assert by_str.job_spec is by_obj.job_spec
    assert by_str.solution() == by_obj.solution()


def test_scenario_plan_overrides_pair():
    plan = Solution((DEFAULT_PAIR, SchedulerPair.parse("ad")))
    sc = Scenario(pair="nn", plan=plan)
    assert sc.solution() is plan


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(scale=0.0)
    with pytest.raises(ValueError):
        Scenario(scale=1.5)
    with pytest.raises(ValueError):
        Scenario(plan=Solution.uniform(DEFAULT_PAIR, 3), n_phases=2)


def test_negative_seed_is_rejected_naming_the_field():
    # Used to fail deep in numpy ("expected non-negative integer").
    with pytest.raises(ValueError, match="seed"):
        ClusterConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        ClusterConfig().with_(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        simulate(Scenario(**TINY), seed=-1)
    # A float seed was truncated: 1.5 returned seed 1's payload.
    with pytest.raises(ValueError, match="seed"):
        simulate(Scenario(**TINY), seed=1.5)


@pytest.mark.parametrize("bad, named", [
    (dict(hosts=True), "hosts"),
    (dict(vms_per_host=2.0), "vms_per_host"),
    (dict(seed=1.5), "seed"),
    (dict(seed=False), "seed"),
])
def test_cluster_config_counts_and_seed_must_be_ints(bad, named):
    with pytest.raises(ValueError, match=named):
        ClusterConfig(**bad)


#: (bad facade field, text the error must name).  Each used to construct
#: and fail only in to_spec() or the run; hosts/vms_per_host=0 failed in
#: the shuffle plan or the hypervisor, a float count in the cluster
#: build, and bytes_per_vm <= 0 ran a job of one 1 MiB block per VM.
BAD_FACADE_FIELDS = [
    (dict(pair="zz"), "zz"),
    (dict(workload="nope"), "nope"),
    (dict(n_phases=4), "n_phases"),
    (dict(hosts=0), "hosts"),
    (dict(vms_per_host=0), "vms_per_host"),
    (dict(bytes_per_vm=0), "bytes_per_vm"),
    (dict(bytes_per_vm=-5), "bytes_per_vm"),
    (dict(hosts=1.5), "hosts"),
    (dict(vms_per_host=2.5), "vms_per_host"),
    (dict(n_phases=2.0), "n_phases"),
    (dict(bytes_per_vm=3.5 * MB), "bytes_per_vm"),
]


@pytest.mark.parametrize("bad, named", BAD_FACADE_FIELDS)
def test_scenario_rejects_at_construction(bad, named):
    with pytest.raises((ValueError, KeyError), match=named):
        Scenario(**bad)


@pytest.mark.parametrize("bad, named", BAD_FACADE_FIELDS[1:])
def test_controlled_scenario_rejects_at_construction(bad, named):
    with pytest.raises((ValueError, KeyError), match=named):
        ControlledScenario(**bad)


def test_scenario_with_():
    sc = Scenario(**TINY)
    assert sc.with_(pair="ad").pair == "ad"
    assert sc.with_(pair="ad").scale == sc.scale


# -- determinism and parity with the hand-wired paths ---------------------------------


def test_simulate_is_seed_deterministic():
    sc = Scenario(**TINY)
    a = simulate(sc, seed=0)
    b = simulate(sc, seed=0)
    other = simulate(sc, seed=1)
    assert canon(a.payload) == canon(b.payload)
    assert canon(a.payload) != canon(other.payload)
    assert a.events == b.events > 0
    assert a.duration > 0 and a.wall_s > 0 and a.events_per_s > 0


def test_simulate_matches_direct_jobrunner():
    sc = Scenario(**TINY)
    res = simulate(sc, seed=0)

    _reset_run_ids()
    result, stall = run_job(
        scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2, seeds=(0,)),
        Solution.uniform(DEFAULT_PAIR, 2), 0,
    )
    assert canon(res.payload) == canon(encode_job_result(result, stall))
    assert res.switch_stall == stall
    assert res.duration == result.duration


def test_sweep_parity_with_execute_spec(tmp_path):
    sc = Scenario(**TINY)
    expected = json.loads(canon(execute_spec(sc.to_spec(0))))

    [payloads] = sweep(sc, seeds=(0,), jobs=1, use_cache=True,
                       cache_dir=str(tmp_path / "cache"))
    assert canon(payloads[0]) == canon(expected)
    # Replay from the on-disk cache: still identical.
    [replayed] = sweep(sc, seeds=(0,), jobs=1, use_cache=True,
                       cache_dir=str(tmp_path / "cache"))
    assert canon(replayed[0]) == canon(expected)


def test_scenario_spec_key_matches_experiment_suite():
    # Same configuration => same content-addressed cache key as the
    # specs the experiment suite has always built.
    sc = Scenario(**TINY)
    testbed = scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                             seeds=(0,))
    suite_spec = SweepJobRunner(testbed, sweep=object()).specs_for(
        Solution.uniform(DEFAULT_PAIR, 2)
    )[0]
    assert spec_key(sc.to_spec(0)) == spec_key(suite_spec)


def test_faulty_scenario_lowers_to_faulty_job_kind():
    from repro.faults import NO_FAULTS

    sc = Scenario(**TINY, faults=NO_FAULTS)
    spec = sc.to_spec(0)
    assert spec.kind == "faulty_job"
    assert spec.config[2] is NO_FAULTS
    res = simulate(sc, seed=0)
    assert res.payload["faults"] == {}


def test_sweep_rejects_runner_kwargs_with_runner():
    with pytest.raises(TypeError):
        sweep(Scenario(**TINY), runner=object(), jobs=2)


class KeyRunner:
    """Stands in for a SweepRunner: returns each spec's cache key."""

    def run_specs(self, specs):
        return [spec_key(spec) for spec in specs]


@pytest.mark.parametrize("facade", [
    ControlledScenario(scale=0.02, hosts=1, vms_per_host=2),
    MultiJobScenario(scale=0.02, hosts=1, vms_per_host=2),
], ids=["controlled", "multi_job"])
def test_sweep_takes_one_facade_of_any_kind(facade):
    # Only a lone Scenario used to be wrapped; any other facade was
    # iterated and failed with "object is not iterable".
    expected = [[spec_key(facade.to_spec(0)), spec_key(facade.to_spec(1))]]
    assert sweep(facade, seeds=(0, 1), runner=KeyRunner()) == expected
    assert sweep([facade], seeds=(0, 1), runner=KeyRunner()) == expected


# -- assembly helpers -----------------------------------------------------------------


def test_assemble_job_wires_the_full_stack():
    job = assemble_job(
        scaled_cluster(0.05, hosts=1, vms_per_host=2),
        scaled_job(SORT, 0.05),
        seed=7,
    )
    assert job.cluster.env is job.env
    assert job.topology.env is job.env
    assert job.namenode.cluster is job.cluster
    # The cluster was re-seeded.
    assert job.cluster.config.seed == 7


def test_package_root_exports_the_facade():
    import repro

    assert repro.Scenario is Scenario
    assert repro.simulate is simulate
    assert repro.sweep is sweep
    assert repro.RunResult is RunResult


def test_multi_job_scenario_lowers_to_multi_job_kind():
    from repro.api import MultiJobScenario
    from repro.mapreduce.multijob import MultiJobConfig, SwitchPlan

    scn = MultiJobScenario(workload="sort", scale=0.05, hosts=2,
                           vms_per_host=2, n_jobs=3, arrival_rate=1.0)
    spec = scn.to_spec(seed=3)
    assert spec.kind == "multi_job"
    assert spec.seed == 3
    assert isinstance(spec.config, MultiJobConfig)
    assert spec.config.cluster.hosts == 2
    assert spec.config.arrivals.n_jobs == 3
    # Pure lowering: equal scenarios share a cache key.
    assert spec_key(spec) == spec_key(scn.to_spec(seed=3))

    switched = scn.with_(switch=("ad", "cc"))
    plan = switched.to_spec(0).config.switch_plan
    assert isinstance(plan, SwitchPlan)
    assert spec_key(switched.to_spec(0)) != spec_key(spec)


def test_multi_job_scenario_pair_sets_initial_elevators():
    from repro.api import MultiJobScenario

    scn = MultiJobScenario(scale=0.05, hosts=2, vms_per_host=2, pair="ad")
    cfg = scn.to_spec(0).config
    assert cfg.cluster.initial_pair == SchedulerPair.parse("ad")


def test_package_root_exports_multi_job_scenario():
    import repro

    assert repro.MultiJobScenario is not None
    assert "MultiJobScenario" in repro.__all__
