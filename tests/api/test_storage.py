"""Storage selection through the facade: bit-identity, determinism.

The registry redesign must be invisible on the default path: an
all-HDD run's payload is pinned byte-for-byte against digests computed
on the pre-registry revision, across every run kind and three seeds.
The SSD path must be deterministic (serial == parallel == cached) and
conserve pages end to end.
"""

import hashlib
import json
import warnings

import pytest

from repro.api import (
    ControlledScenario,
    MultiJobScenario,
    Scenario,
    UnknownStorageError,
)
from repro.faults.plan import DiskFaults, FaultPlan
from repro.faults.presets import get_preset
from repro.runner import SweepRunner

#: The 2x2 sort testbed every digest below was measured on.
TINY = dict(workload="sort", scale=0.05, hosts=2, vms_per_host=2)

#: sha256 of the canonical-JSON payload per (kind, seed), computed on
#: the revision *before* the storage-backend registry landed.  These
#: are the bit-identity contract: default-hdd runs must never move.
PRE_REGISTRY_DIGESTS = {
    ("job", 0):
        "10b4b5602f71dd082a4ad5f89a4363a91cc5f22051dbdb43ea17d0c4a01f9743",
    ("job", 1):
        "99b04833650d82ac915e7068e3cc8c2c1d02b52c8b80b69811888ee5d12533b7",
    ("job", 2):
        "abff5695bc04208afa6fc37e78ebc522943868ab7c5b5ecf756e26f42f60c2b4",
    ("faulty_job", 0):
        "cfe12c8ea8238c357d346547f948bdb25838b9edc7136e90eed8d583befbe889",
    ("faulty_job", 1):
        "c283509312ecd527d8d824d2e8440f7044ea71c844a471f6f47293b69eeb75e7",
    ("faulty_job", 2):
        "5f4c1b8815b8e005dc88c7b488332af103472489a1b401535ff10bb4ca235dd7",
    ("controlled_job", 0):
        "1f7f1757f4644e60ab123f3e91cdf59f0e0aea543dc8f745948b63a869823eb8",
    ("controlled_job", 1):
        "1b5a46fc28ce54a3e02995a45c3829e4974fae090f1d0a55dc01e4324d88d76f",
    ("controlled_job", 2):
        "ea60d2ae5a9e10c45f1875ccec32014deb19b17f94655b72850361be8513999c",
}


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def scenarios_for(kind):
    if kind == "job":
        return Scenario(**TINY)
    if kind == "faulty_job":
        return Scenario(**TINY, faults=get_preset("light"))
    # The pinned runs executed cc -> cc: the ("ad", "cc") plan written
    # here before never matched the default initial "cc" and was dropped
    # silently (a ValueError now).
    return ControlledScenario(**TINY, controller="greedy",
                              phase_pairs=("cc", "cc"))


# -- bit-identity of the default hdd path ---------------------------------------------


@pytest.mark.parametrize("kind", ["job", "faulty_job", "controlled_job"])
def test_hdd_payloads_bit_identical_to_pre_registry(kind):
    scenario = scenarios_for(kind)
    assert scenario.storage == "hdd"
    specs = [scenario.to_spec(seed) for seed in (0, 1, 2)]
    with warnings.catch_warnings():
        # The internal path must not touch anything deprecated.
        warnings.simplefilter("error", DeprecationWarning)
        with SweepRunner(jobs=1, use_cache=False) as runner:
            payloads = runner.run_specs(specs)
    for spec, payload in zip(specs, payloads):
        assert digest(payload) == PRE_REGISTRY_DIGESTS[(kind, spec.seed)], \
            f"{kind} seed={spec.seed} drifted from the pre-registry payload"
        # All-HDD clusters report no storage stats at all — that key's
        # absence is what keeps the digests above reachable.
        assert "storage" not in payload


# -- ssd determinism ------------------------------------------------------------------


def test_ssd_run_deterministic_serial_parallel_cached(tmp_path):
    spec = Scenario(**TINY, storage="ssd").to_spec(0)
    with SweepRunner(jobs=1, use_cache=False) as runner:
        [serial] = runner.run_specs([spec])
    with SweepRunner(jobs=2, use_cache=False) as runner:
        [parallel] = runner.run_specs([spec])
    with SweepRunner(jobs=1, cache_dir=str(tmp_path)) as runner:
        [first] = runner.run_specs([spec])
    with SweepRunner(jobs=1, cache_dir=str(tmp_path)) as runner:
        [cached] = runner.run_specs([spec])
    assert digest(serial) == digest(parallel) == digest(first) == \
        digest(cached)


def test_ssd_payload_reports_ftl_stats():
    spec = Scenario(**TINY, storage="ssd").to_spec(0)
    with SweepRunner(jobs=1, use_cache=False) as runner:
        [payload] = runner.run_specs([spec])
    storage = payload["storage"]
    assert sorted(storage) == ["h0.sda", "h1.sda"]
    for stats in storage.values():
        assert stats["kind"] == "ssd"
        assert stats["write_amp"] >= 1.0
        # Conservation, end to end: programs = flushes + GC moves.
        assert stats["nand_programs"] == \
            stats["host_pages"] + stats["gc_moved_pages"]


def test_hybrid_reports_ssd_stats_for_odd_hosts_only():
    spec = Scenario(**TINY, storage="hybrid").to_spec(0)
    with SweepRunner(jobs=1, use_cache=False) as runner:
        [payload] = runner.run_specs([spec])
    assert sorted(payload["storage"]) == ["h1.sda"]


#: The presets' slow-disk episodes are minutes apart, longer than the
#: TINY job, so a denser plan makes sure flash is rescaled mid-run.
SLOW_FLASH = FaultPlan(disk=DiskFaults(
    slow_interval_s=0.5, slow_factor=4.0, slow_duration_s=0.3,
    spike_latency_s=0.002,
))


@pytest.mark.parametrize("storage", ["ssd", "hybrid"])
@pytest.mark.parametrize("plan", ["light", "heavy", "slow-flash"])
def test_faults_compose_with_flash(storage, plan, monkeypatch):
    """Faults on flash: the FTL still conserves pages, programs still
    balance, and runs stay pure (serial == parallel)."""
    from repro.disk import SsdDevice
    from repro.runner.kinds import execute_spec

    built = []
    init = SsdDevice.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SsdDevice, "__init__", recording_init)
    faults = SLOW_FLASH if plan == "slow-flash" else get_preset(plan)
    spec = Scenario(**TINY, storage=storage, faults=faults).to_spec(0)
    assert spec.kind == "faulty_job"
    payload = json.loads(json.dumps(execute_spec(spec), sort_keys=True))
    if plan == "slow-flash":
        assert payload["faults"]["disk_slow_episodes"] > 0
    assert len(built) == (2 if storage == "ssd" else 1)
    for dev in built:
        dev.check_conservation()
    assert len(payload["storage"]) == len(built)
    for stats in payload["storage"].values():
        assert stats["nand_programs"] == \
            stats["host_pages"] + stats["gc_moved_pages"]
    monkeypatch.undo()
    with SweepRunner(jobs=1, use_cache=False) as runner:
        [serial] = runner.run_specs([spec])
    with SweepRunner(jobs=2, use_cache=False) as runner:
        [parallel] = runner.run_specs([spec])
    assert digest(serial) == digest(parallel) == digest(payload)


# -- validation and lowering ----------------------------------------------------------


def test_unknown_storage_rejected_listing_backends():
    for ctor in (
        lambda: Scenario(storage="bogus"),
        lambda: MultiJobScenario(storage="bogus"),
        lambda: ControlledScenario(storage="bogus"),
    ):
        with pytest.raises(UnknownStorageError) as exc:
            ctor()
        assert "bogus" in str(exc.value)
        assert "hdd" in str(exc.value)
    # It's a ValueError, so the CLI's existing guard catches it too.
    with pytest.raises(ValueError):
        Scenario(storage="bogus")


def test_storage_lowers_through_to_spec():
    spec = Scenario(**TINY, storage="ssd").to_spec(0)
    testbed, _ = spec.config
    assert testbed.cluster.storage == "ssd"


def test_storage_changes_the_cache_key():
    hdd = Scenario(**TINY).to_spec(0)
    ssd = Scenario(**TINY, storage="ssd").to_spec(0)
    from repro.runner.spec import spec_key

    assert spec_key(hdd) != spec_key(ssd)
