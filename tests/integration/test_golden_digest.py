"""Golden-digest regression test for simulation determinism.

One small sort job has a checked-in SHA-256 of its canonical JSON
payload.  The digest must be reproduced bit-for-bit by every execution
path the sweep runner offers — serial, parallel worker processes, and
the on-disk cache — and by a ``faulty_job`` run under the inert fault
plan (the fault subsystem's zero-overhead guarantee).

If a change alters simulation behaviour *intentionally*, regenerate the
digest with the snippet in ``expected_digest``'s docstring and say so in
the commit message; an unintentional digest change here means a
determinism or bit-identity regression.
"""

import hashlib
import json

import pytest

from repro.core.solution import Solution
from repro.api import scaled_testbed
from repro.faults import NO_FAULTS
from repro.runner import RunSpec, SweepRunner
from repro.virt.pair import DEFAULT_PAIR, SchedulerPair
from repro.workloads.profiles import SORT

#: sha256 of the canonical JSON payload of GOLDEN_SPEC, regenerate via:
#:   PYTHONPATH=src python -c "from tests.integration.test_golden_digest \
#:       import run_and_digest; print(run_and_digest())"
#: Regenerated for the exact-partition-extent shuffle fix (v1.3.0): at
#: scale 0.05 the block size (3355443 B) is not a multiple of the 8
#: reducers, so per-reducer fetch extents legitimately shifted from
#: int-truncated uniform reads to exact offset-difference extents.
GOLDEN_DIGEST = (
    "10b4b5602f71dd082a4ad5f89a4363a91cc5f22051dbdb43ea17d0c4a01f9743"
)


def golden_config():
    # Everything explicit: the digest must not depend on environment
    # defaults like $REPRO_SCALE.
    testbed = scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                             seeds=(0,))
    return testbed, Solution.uniform(DEFAULT_PAIR, 2)


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_and_digest(**sweep_kwargs):
    testbed, solution = golden_config()
    spec = RunSpec(kind="job", seed=0, config=(testbed, solution))
    sweep_kwargs.setdefault("use_cache", False)
    with SweepRunner(**sweep_kwargs) as sweep:
        [payload] = sweep.run_specs([spec])
    return digest(payload)


def test_serial_run_matches_golden_digest():
    assert run_and_digest(jobs=1) == GOLDEN_DIGEST


def test_parallel_run_matches_golden_digest():
    # Worker processes re-import everything; divergence here means the
    # simulation depends on interpreter state that does not survive
    # pickling/re-import.
    assert run_and_digest(jobs=2) == GOLDEN_DIGEST


def test_cached_replay_matches_golden_digest(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run_and_digest(jobs=1, cache_dir=cache_dir, use_cache=True)
    replay = run_and_digest(jobs=1, cache_dir=cache_dir, use_cache=True)
    assert first == GOLDEN_DIGEST
    assert replay == GOLDEN_DIGEST


def test_inert_fault_plan_matches_golden_digest():
    # faulty_job with NO_FAULTS must produce the job payload exactly,
    # plus an empty "faults" ledger: recovery machinery costs nothing
    # when disabled.
    testbed, solution = golden_config()
    spec = RunSpec(kind="faulty_job", seed=0,
                   config=(testbed, solution, NO_FAULTS))
    with SweepRunner(jobs=1, use_cache=False) as sweep:
        [payload] = sweep.run_specs([spec])
    assert payload.pop("faults") == {}
    assert digest(payload) == GOLDEN_DIGEST


#: Payload pins for the run kinds and plan shapes the digests above do
#: not reach: switching ``job`` plans (2- and 3-phase, with and without
#: a no-switch slot), a switching faulty job, a switching chain, the
#: instrumented/knockout/reactive sorts, controlled jobs under every
#: policy (a 3-phase greedy run whose shuffle boundary fires while the
#: first switch is still draining, a bandit with seeded state, a dwelling
#: hysteresis run on SSDs with faults, a static run with co-tenant
#: interference), a dd run that switches mid-flight, and a three-job
#: ``multi_job`` stream under every job scheduler, a cluster-scope
#: switch plan and SSDs.  All on the 2x2 testbed at scale 0.05, except
#: the two ``job_4x4`` pins: perfbench's ``pair_sweep`` job at scale
#: 1/32 on 4 hosts x 4 VMs, whose 16 shuffle routes carry up to 160
#: live flows (the 2x2 pins never pass a handful); and
#: ``online_sort_switching``, a scale-0.1 sort long enough for the
#: reactive controller's 2 s windows to switch each host on its own
#: (at t=6.0, h0 to (CFQ, DL) and h1 to (AS, DL)); the scale-0.05
#: ``online_sort`` job ends before it ever decides.
PINNED_DIGESTS = {
    "job_cc_ad":
        "d0b2f7dc22899b4d634b7dd5f456618b88a85a1242167f23137c839022521730",
    "job_cc_ad_dd":
        "2f517a69875c81950adff61d47c0f40552dda83b6d554ce31d0efaf75fa9d54a",
    "chain_switching":
        "67a85497e52f65b752fd705d3af3a53ca0a1e7650c2bc5b1f5cd823f30e3a197",
    "instrumented_job":
        "069a073f79e03e46b443ff88f26aba931976d7f14534e8ddbc5fd7030f654e92",
    "sort_custom_zero_anticipation":
        "41938e06d032e0857f08ebdfda63a9154b0aa93e027a887077a0ddc757672ee2",
    "online_sort":
        "e0825ba863c4a5c6d694149f3dfe6acb7804cd81de433b33a2a492fa1ba768c2",
    "online_sort_switching":
        "a712a2c1c0c95fa364597abd9ddeb88cdb241d771f1d656ba841ffb34c5ccb67",
    "controlled_job_hysteresis_light_interference":
        "bb560313b95bc5c859884561e9dd06b991d467e9487112838d1ead6326306dad",
    "dd_mid_run_switch":
        "c1a41eb2e2addbec8773c8c1ba0c6b3c1c9bab1e4b4fdb3bcc021a0231203b03",
    "controlled_job_greedy_3phase":
        "901e732bc2146e01ca06710705f16e059902cb314561e900b154ca1178c72d92",
    "controlled_job_bandit_seeded_state":
        "7c4cc10c1f96832f4c716563bf2c4bf065e3bf2fa39afc8c4032683d20e37211",
    "controlled_job_hysteresis_ssd_light_dwell":
        "8b9097a90c445f36b89a302eaeab3c8df1a1660c8fe9fb1d96e32ad01058347d",
    "controlled_job_static_interference":
        "03318367c119763c5f6ab4176843b55feb67b75729adbf879c356892c9813f16",
    "faulty_job_cc_ad_light":
        "080e5553f60d257edf211d5c1d73fcc4896c28ae0b9d51870992c0ccd71166af",
    "job_cc_none_dd":
        "2553ea9744c358cdeb6180e44f77680b21056b37442300ba63cb2f1ccabb5d5e",
    "multi_job_fifo":
        "8f167eb150f11f3aee9be711cf79c0e7e3b64ea160de6c4bc2c826dcbb66bacd",
    "multi_job_fair":
        "4ec4ab07015b385d5adf8f38b17d0603b9cd13298337a7a4d7a0a6577afd5f01",
    "multi_job_capacity":
        "e6dcc146f50a423b60542c8a8eb3ad132cd1a20df35ee069410aaf3d7cdbf1c9",
    "multi_job_sjf":
        "4be00fc8c1ad1ff47bc268285a71677a403fddcc97f17b47bac7c8b8ec17fc01",
    "multi_job_switch_ad_cc":
        "cae1df01f8ffcede39f53a9e11f9079718f54b58a79e90b3d7bba1a6a2a47d58",
    "multi_job_ssd":
        "3a82edc34c412a463a8bc04ecd54887e0f602c05a498811f0eaa66504568f8a8",
    "job_4x4_na_seed0":
        "c4eae6b8aa29dd20750e6ac552c165fbee5e0c72c7956dfb01dd98745e8ce320",
    "job_4x4_cn_seed1":
        "4425cf5cb6db629b62426b86c0eb410ff9ada803dbd53abf4d44a57f1a27ab58",
}


def multi_job_config(**overrides):
    from repro.api import MultiJobScenario

    return MultiJobScenario(
        workload="sort", scale=0.05, hosts=2, vms_per_host=2, n_jobs=3,
        arrival_rate=1.0, **overrides,
    ).multi_job_config()


def pair_sweep_job(pair, seed):
    """perfbench's ``pair_sweep`` job for one pair, as a pin entry."""
    testbed = scaled_testbed(SORT, scale=0.03125, hosts=4, vms_per_host=4,
                             seeds=(seed,))
    return ("job", (testbed, Solution.uniform(SchedulerPair.parse(pair), 2)),
            seed)


def pinned_spec(name):
    from repro.core.chains import ChainConfig
    from repro.ctrl import CtrlConfig
    from repro.faults import get_preset

    testbed, _ = golden_config()
    cluster, job = testbed.cluster, testbed.job
    cc, ac, ad, dd = (SchedulerPair.parse(s) for s in ("cc", "ac", "ad", "dd"))
    online = scaled_testbed(SORT, scale=0.1, hosts=2, vms_per_host=2,
                            seeds=(0,))
    configs = {
        "job_cc_ad": ("job", (testbed, Solution((cc, ad)))),
        "job_cc_ad_dd": ("job", (testbed.with_(n_phases=3),
                                 Solution((cc, ad, dd)))),
        "chain_switching": ("chain", (
            ChainConfig(cluster=cluster, jobs=(job, job), seeds=(0,)),
            Solution((cc, ad, None, dd)),
        )),
        "instrumented_job": ("instrumented_job",
                             (cluster.with_(initial_pair=ac), job)),
        "sort_custom_zero_anticipation": (
            "sort_custom", (cluster.with_(initial_pair=ac), job, True)),
        "online_sort": ("online_sort", (cluster, job)),
        "online_sort_switching": ("online_sort", (online.cluster,
                                                  online.job)),
        "controlled_job_hysteresis_light_interference": ("controlled_job", (
            testbed,
            CtrlConfig(policy="hysteresis", phase_pairs=("cc", "ad"),
                       interference_bytes=16 * 1024 * 1024),
            get_preset("light"),
        )),
        "dd_mid_run_switch": ("dd", (cluster.with_(hosts=1), 8 * 1024 * 1024,
                                     cc, ad, 0.1)),
        "controlled_job_greedy_3phase": ("controlled_job", (
            testbed.with_(n_phases=3),
            CtrlConfig(policy="greedy", initial="cc",
                       phase_pairs=("cc", "ad", "dd")),
            None,
        )),
        "controlled_job_bandit_seeded_state": ("controlled_job", (
            testbed,
            CtrlConfig(policy="bandit", initial="cc", arms=("ad", "cc", "dd"),
                       epsilon=0.5, state=(("default", "ad", 1, 9.0),
                                           ("default", "dd", 2, 8.0))),
            None,
        )),
        # One decision, one switch and one map retry; with dwell=2.0 the
        # job would end before the controller decides.
        "controlled_job_hysteresis_ssd_light_dwell": ("controlled_job", (
            scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                           seeds=(0,), storage="ssd"),
            CtrlConfig(policy="hysteresis", initial="cc",
                       phase_pairs=("cc", "ad"), dwell=0.2),
            get_preset("light"),
        )),
        "controlled_job_static_interference": ("controlled_job", (
            testbed,
            CtrlConfig(initial="ad", interference_bytes=16 * 1024 * 1024),
            None,
        )),
        "faulty_job_cc_ad_light": ("faulty_job", (
            testbed, Solution((cc, ad)), get_preset("light"))),
        "job_cc_none_dd": ("job", (testbed.with_(n_phases=3),
                                   Solution((cc, None, dd)))),
        "multi_job_fifo": ("multi_job", multi_job_config()),
        "multi_job_fair": ("multi_job", multi_job_config(scheduler="fair")),
        "multi_job_capacity": ("multi_job",
                               multi_job_config(scheduler="capacity")),
        "multi_job_sjf": ("multi_job", multi_job_config(scheduler="sjf")),
        "multi_job_switch_ad_cc": ("multi_job",
                                   multi_job_config(switch=("ad", "cc"))),
        "multi_job_ssd": ("multi_job", multi_job_config(storage="ssd")),
        "job_4x4_na_seed0": pair_sweep_job("na", 0),
        "job_4x4_cn_seed1": pair_sweep_job("cn", 1),
    }
    kind, config, *seed = configs[name]
    return RunSpec(kind=kind, seed=seed[0] if seed else 0, config=config,
                   label=f"pin {name}")


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_pinned_run_kinds_match_golden_digests(name):
    with SweepRunner(jobs=1, use_cache=False) as sweep:
        [payload] = sweep.run_specs([pinned_spec(name)])
    assert digest(payload) == PINNED_DIGESTS[name], name


def test_digest_is_sensitive_to_the_payload():
    # Guard the guard: a digest that ignores payload changes would make
    # every test above vacuous.
    assert digest({"a": 1}) != digest({"a": 2})


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(run_and_digest())
