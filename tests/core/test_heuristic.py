"""Tests for Algorithm 1 and the brute-force baseline.

The heavy lifting runs on a tiny 2x2 testbed with a 4-pair candidate
set so the whole search stays under a minute.
"""

import pytest

from repro.core import (
    BruteForceSearch,
    HeuristicSearch,
    ProfiledScores,
    Solution,
    enumerate_solutions,
    profile_single_pairs,
)
from repro.virt import SchedulerPair

from .conftest import SEARCH_PAIRS, plan_runner, tiny_testbed

CC, AC, DC, NC = SEARCH_PAIRS


@pytest.fixture(scope="module")
def searched():
    """Profile + heuristic + brute force, shared by the module's tests."""
    runner = plan_runner(tiny_testbed())
    scores = profile_single_pairs(runner, SEARCH_PAIRS)
    heuristic = HeuristicSearch(runner, scores, SEARCH_PAIRS).search()
    brute = BruteForceSearch(runner, SEARCH_PAIRS).search()
    return runner, scores, heuristic, brute


# -- ProfiledScores --------------------------------------------------------------


def test_profile_covers_all_pairs(searched):
    _, scores, _, _ = searched
    assert set(scores.totals) == set(SEARCH_PAIRS)
    assert scores.n_phases == 2
    for pair in SEARCH_PAIRS:
        assert sum(scores.per_phase[pair]) == pytest.approx(
            scores.totals[pair], rel=0.01
        )


def test_ranked_for_phase_sorted(searched):
    _, scores, _, _ = searched
    order = scores.ranked_for_phase(0)
    values = [scores.per_phase[p][0] for p in order]
    assert values == sorted(values)


def test_best_single_is_argmin(searched):
    _, scores, _, _ = searched
    pair, value = scores.best_single()
    assert value == min(scores.totals.values())
    assert scores.totals[pair] == value


def test_best_for_remaining_minimizes_tail(searched):
    _, scores, _, _ = searched
    tail_pair = scores.best_for_remaining(1)
    tails = {p: scores.per_phase[p][1] for p in SEARCH_PAIRS}
    assert tails[tail_pair] == min(tails.values())


# -- Heuristic (Algorithm 1) ---------------------------------------------------------


def test_heuristic_returns_runnable_solution(searched):
    runner, _, heuristic, _ = searched
    assert isinstance(heuristic.solution, Solution)
    assert len(heuristic.solution) == 2
    assert heuristic.score == pytest.approx(runner.score(heuristic.solution))


def test_heuristic_respects_px_s_bound(searched):
    _, _, heuristic, _ = searched
    # The paper: running time at most P x S evaluations.
    assert heuristic.evaluations <= 2 * len(SEARCH_PAIRS)


def test_heuristic_beats_or_matches_default(searched):
    _, scores, heuristic, _ = searched
    assert heuristic.score <= scores.totals[CC] * 1.02


def test_heuristic_close_to_brute_force(searched):
    _, _, heuristic, brute = searched
    # Greedy isn't guaranteed optimal; bound its regret.
    assert heuristic.score <= brute.score * 1.15


def test_history_records_evaluations(searched):
    _, _, heuristic, _ = searched
    assert len(heuristic.history) == heuristic.evaluations
    for plan, score in heuristic.history:
        assert isinstance(plan, Solution)
        assert score > 0


def test_phase_count_mismatch_rejected():
    runner2 = plan_runner(tiny_testbed(n_phases=2))
    runner3 = plan_runner(tiny_testbed(n_phases=3))
    scores3 = ProfiledScores(
        totals={CC: 1.0},
        per_phase={CC: (0.4, 0.3, 0.3)},
    )
    with pytest.raises(ValueError):
        HeuristicSearch(runner2, scores3, [CC])


# -- Brute force ------------------------------------------------------------------


def test_enumerate_solutions_counts():
    plans = enumerate_solutions(SEARCH_PAIRS, 2)
    assert len(plans) == len(SEARCH_PAIRS) ** 2
    assert len(set(plans)) == len(plans)
    # Uniform plans appear with the no-switch encoding.
    assert Solution((CC, None)) in plans


def test_enumerate_invalid_phases():
    with pytest.raises(ValueError):
        enumerate_solutions(SEARCH_PAIRS, 0)


def test_brute_force_optimal_within_history(searched):
    _, _, _, brute = searched
    assert brute.score == min(score for _, score in brute.history)
    assert brute.evaluations == len(SEARCH_PAIRS) ** 2


def test_brute_force_at_least_as_good_as_any_single(searched):
    _, scores, _, brute = searched
    assert brute.score <= min(scores.totals.values()) + 1e-9
