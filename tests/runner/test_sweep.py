"""SweepRunner: determinism across execution paths, caching, stats."""

import json

import pytest

from repro.api import run_job, scaled_cluster, scaled_testbed
from repro.core.solution import Solution
from repro.runner import (
    ResultCache,
    RunSpec,
    SweepJobRunner,
    SweepRunner,
    default_jobs,
    spec_key,
)
from repro.virt.pair import DEFAULT_PAIR, SchedulerPair
from repro.workloads.ddwrite import MB
from repro.workloads.profiles import SORT


def _dd_specs(n_pairs=3, seeds=(0, 1), nbytes=int(8 * MB)):
    cluster = scaled_cluster(0.02, hosts=1)
    pairs = [SchedulerPair.parse(s) for s in ("cc", "ad", "dd", "nc")][:n_pairs]
    return [
        RunSpec(kind="dd", seed=seed, config=(cluster, nbytes, pair, None, None))
        for pair in pairs
        for seed in seeds
    ]


def test_serial_parallel_and_cached_results_identical(tmp_path):
    specs = _dd_specs()
    with SweepRunner(jobs=1, cache_dir=tmp_path / "a") as serial:
        res_serial = serial.run_specs(specs)
    with SweepRunner(jobs=2, cache_dir=tmp_path / "b") as par:
        res_parallel = par.run_specs(specs)
    with SweepRunner(jobs=1, cache_dir=tmp_path / "a") as warm:
        res_cached = warm.run_specs(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
    assert res_serial == res_parallel == res_cached
    # Bit-identical, not merely approximately equal.
    assert json.dumps(res_serial, sort_keys=True) == json.dumps(
        res_parallel, sort_keys=True
    )


def test_duplicate_specs_in_one_batch_execute_once(tmp_path):
    spec = _dd_specs(n_pairs=1, seeds=(0,))[0]
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        results = sweep.run_specs([spec, spec, spec])
        assert sweep.stats.executed == 1
    assert results[0] == results[1] == results[2]


def test_memo_serves_repeats_within_a_runner(tmp_path):
    specs = _dd_specs(n_pairs=1)
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        first = sweep.run_specs(specs)
        second = sweep.run_specs(specs)
        assert first == second
        assert sweep.stats.executed == len(specs)
        assert sweep.stats.memo_hits == len(specs)


def test_spec_change_invalidates_cache(tmp_path):
    base = _dd_specs(n_pairs=1, seeds=(0,))[0]
    bigger = _dd_specs(n_pairs=1, seeds=(0,), nbytes=int(9 * MB))[0]
    assert spec_key(base) != spec_key(bigger)
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        sweep.run_spec(base)
        assert sweep.stats.executed == 1
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        sweep.run_spec(bigger)
        assert sweep.stats.executed == 1
        assert sweep.stats.cache_hits == 0


def test_corrupted_cache_entry_falls_back_to_execution(tmp_path):
    spec = _dd_specs(n_pairs=1, seeds=(0,))[0]
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        original = sweep.run_spec(spec)
    ResultCache(tmp_path).path_for(spec_key(spec)).write_text(
        "{truncated", encoding="utf-8"
    )
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        again = sweep.run_spec(spec)
        assert sweep.stats.executed == 1
        assert sweep.stats.cache_hits == 0
    assert again == original


def test_no_cache_skips_disk_but_keeps_memo(tmp_path):
    specs = _dd_specs(n_pairs=1, seeds=(0,))
    with SweepRunner(jobs=1, cache_dir=tmp_path, use_cache=False) as sweep:
        sweep.run_specs(specs)
        sweep.run_specs(specs)
        assert sweep.stats.executed == 1
        assert sweep.stats.memo_hits == 1
        # Every uncached execution is counted as a bypass...
        assert sweep.stats.bypassed == 1
        assert "cache bypassed 1" in sweep.stats.summary()
        assert sweep.cache_stats() == {
            "hits": 0, "misses": 0, "bytes_read": 0, "bytes_written": 0,
            "bypassed": 1,
        }
        assert "bypassed 1" in sweep.profile_summary()
    assert list(tmp_path.rglob("*.json")) == []


def test_cached_runs_report_no_bypasses(tmp_path):
    specs = _dd_specs(n_pairs=1, seeds=(0,))
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        sweep.run_specs(specs)
        assert sweep.stats.bypassed == 0
        # ...and the summary keeps its stable prefix when none happen.
        assert "bypassed" not in sweep.stats.summary()
        stats = sweep.cache_stats()
        assert stats["misses"] == 1 and stats["bypassed"] == 0
        assert stats["bytes_written"] > 0
        assert "bypassed" not in sweep.profile_summary()


def test_stats_snapshot_and_since(tmp_path):
    specs = _dd_specs(n_pairs=2, seeds=(0,))
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        before = sweep.stats.snapshot()
        sweep.run_specs(specs)
        delta = sweep.stats.since(before)
    assert delta.executed == len(specs)
    assert "simulations executed 2" in delta.summary()


def test_adapter_matches_direct_job_runner_exactly(tmp_path):
    config = scaled_testbed(SORT, scale=0.02, seeds=(0,))
    direct, stall = run_job(config, Solution.uniform(DEFAULT_PAIR, 2), 0)
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        adapted = SweepJobRunner(config, sweep).run_uniform(DEFAULT_PAIR)
    assert adapted.mean_duration == direct.duration
    assert [r.phases for r in adapted.results] == [direct.phases]
    assert adapted.switch_stalls == [stall]


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() >= 1


def test_jobs_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        SweepRunner(jobs=0, cache_dir=tmp_path)
