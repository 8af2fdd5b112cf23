"""Unit tests for AdaptiveReport and meta-scheduler caching."""

import pytest

from repro.core import AdaptiveMetaScheduler, AdaptiveReport, Solution
from repro.core.heuristic import ProfiledScores
from repro.virt import SchedulerPair

from .conftest import SEARCH_PAIRS, tiny_testbed

CC, AC, DC, NC = SEARCH_PAIRS


def fake_report(default=100.0, single=90.0, adaptive=80.0) -> AdaptiveReport:
    return AdaptiveReport(
        default_pair=CC,
        default_time=default,
        best_single_pair=AC,
        best_single_time=single,
        adaptive_solution=Solution((AC, DC)),
        adaptive_time=adaptive,
        evaluations=12,
        scores=ProfiledScores(totals={CC: default, AC: single},
                              per_phase={CC: (50, 50), AC: (45, 45)}),
    )


def test_gains_computed_correctly():
    rep = fake_report()
    assert rep.gain_vs_default == pytest.approx(0.2)
    assert rep.gain_vs_best_single == pytest.approx(1 - 80 / 90)


def test_summary_mentions_everything():
    text = fake_report().summary()
    assert "(CFQ, CFQ)" in text
    assert "(AS, CFQ)" in text
    assert "adaptive" in text
    assert "%" in text


def test_meta_scheduler_caches_profile_and_search():
    meta = AdaptiveMetaScheduler(tiny_testbed(), pairs=SEARCH_PAIRS[:2])
    p1 = meta.profile()
    p2 = meta.profile()
    assert p1 is p2
    s1 = meta.optimize()
    s2 = meta.optimize()
    assert s1 is s2


def test_meta_scheduler_report_consistent_with_runner():
    meta = AdaptiveMetaScheduler(tiny_testbed(), pairs=SEARCH_PAIRS[:2])
    rep = meta.report()
    assert rep.adaptive_time <= rep.best_single_time * 1.05
    assert rep.evaluations >= len(SEARCH_PAIRS[:2])
    # The adaptive plan really evaluates to the reported time.
    assert meta.runner.score(rep.adaptive_solution) == pytest.approx(
        rep.adaptive_time
    )


def test_default_runner_is_serial_in_memory_and_matches_sweep(
        tmp_path, monkeypatch):
    from repro.runner import SweepJobRunner, SweepRunner

    monkeypatch.chdir(tmp_path)
    pairs = SEARCH_PAIRS[:2]
    meta = AdaptiveMetaScheduler(tiny_testbed(), pairs=pairs)
    assert meta.runner.sweep.jobs == 1
    rep = meta.report()
    assert not (tmp_path / ".repro-cache").exists()
    assert list(tmp_path.iterdir()) == []
    explicit = SweepJobRunner(tiny_testbed(),
                              SweepRunner(jobs=1, use_cache=False))
    assert AdaptiveMetaScheduler(tiny_testbed(), pairs=pairs,
                                 runner=explicit).report().adaptive_time \
        == rep.adaptive_time


def test_report_includes_default_even_outside_candidates():
    # Candidate set without (CFQ, CFQ): the default baseline must still
    # be measured for the comparison.
    meta = AdaptiveMetaScheduler(tiny_testbed(), pairs=[AC, DC])
    rep = meta.report()
    assert rep.default_pair == CC
    assert rep.default_time > 0
