"""Sweep profile: the runner ledger's timings and its ``profile:`` lines.

``SweepRunner.profile_summary()`` renders what the CLI prints after a
sweep from one ledger, :class:`~repro.runner.SweepStats`: batch and
spec counts, lookup/execute/busy seconds, worker utilization, and the
disk cache's traffic.
"""

from dataclasses import fields

from repro.runner import RunSpec, SweepRunner, SweepStats
from repro.runner.kinds import register


@register("profile_echo")
def _echo(config, seed):
    return {"seed": seed}


def echo(n):
    return RunSpec(kind="profile_echo", seed=n)


def summary(stats, jobs=1):
    with SweepRunner(jobs=jobs, use_cache=False) as sweep:
        sweep.stats = stats
        return sweep.profile_summary()


def test_profiler_aggregates_batches():
    with SweepRunner(jobs=1, use_cache=False) as sweep:
        sweep.run_specs([echo(0), echo(1), echo(0)])
        sweep.run_specs([echo(1)])
        stats = sweep.stats
        assert (stats.batches, stats.specs) == (2, 4)
        assert (stats.executed, stats.memo_hits) == (2, 1)
        assert stats.lookup_seconds >= 0
        assert stats.execute_seconds >= stats.run_seconds > 0
        first = sweep.profile_summary().splitlines()[0]
    assert first.startswith("profile: 2 batches, 4 specs (2 executed), lookup ")
    # 3.0 busy seconds over a 2-worker, 2.0s execute window: 75%.
    text = summary(SweepStats(execute_seconds=2.0, run_seconds=3.0), jobs=2)
    assert "profile: workers 2, busy 3.00s, utilization 75%" in text


def test_profiler_utilization_clamps_and_handles_idle():
    assert "utilization 0%" in summary(SweepStats())
    busy = SweepStats(execute_seconds=1.0, run_seconds=5.0)
    assert "utilization 100%" in summary(busy)


def test_profiler_snapshot_and_summary_include_cache(tmp_path):
    # snapshot() and since() cover every field, the timings included.
    stats = SweepStats(**{f.name: 2 for f in fields(SweepStats)})
    snap = stats.snapshot()
    assert snap == stats and snap is not stats
    stats.execute_seconds += 1.5
    assert stats.since(snap) == SweepStats(execute_seconds=1.5)

    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        sweep.run_specs([echo(0)])
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        sweep.run_specs([echo(0), echo(1)])
        lines = sweep.profile_summary().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("profile: cache hits 1, misses 1, read ")
    assert "bypassed" not in lines[2]
    # Without a disk cache the line reports zeros plus the bypasses.
    with SweepRunner(jobs=1, use_cache=False) as sweep:
        sweep.run_specs([echo(0)])
        assert sweep.profile_summary().splitlines()[2] == (
            "profile: cache hits 0, misses 0, read 0 B, wrote 0 B, bypassed 1"
        )


def test_sweep_runner_records_profile_and_cache_traffic(tmp_path):
    from tests.integration.test_golden_digest import golden_config

    testbed, solution = golden_config()
    spec = RunSpec(kind="job", seed=0, config=(testbed, solution))
    with SweepRunner(jobs=1, cache_dir=tmp_path / "cache") as sweep:
        sweep.run_specs([spec, spec])
        stats = sweep.stats
        assert stats.batches == 1
        assert stats.specs == 2
        assert stats.executed == 1  # duplicate key simulates once
        assert stats.run_seconds > 0
        summary = sweep.profile_summary()
    assert "profile:" in summary
    assert "workers 1" in summary
    # The executed run was persisted: cache write traffic is non-zero.
    assert "wrote" in summary
    stats = sweep.cache.stats()
    assert stats["bytes_written"] > 0
    assert stats["misses"] >= 1

    # A fresh runner over the same cache dir serves from disk: hits.
    with SweepRunner(jobs=1, cache_dir=tmp_path / "cache") as sweep2:
        sweep2.run_specs([spec])
        assert sweep2.cache.stats()["hits"] == 1
        assert sweep2.stats.executed == 0
