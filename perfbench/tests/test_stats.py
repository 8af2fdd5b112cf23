"""Quartile, median and verdict helpers."""

import statistics

import pytest

from perfbench import stats


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0],
    [0.9, 1.1, 1.0, 1.3],
    [5.0, 1.0, 4.0, 2.0, 3.0, 7.5, 6.25],
])
def test_quartiles_are_pythons_exclusive_quantiles(values):
    q1, med, q3 = stats.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert med == stats.median(values) == statistics.median(values)


def test_a_single_value_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_no_values_is_an_error():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([])


def test_summarize_reports_every_field():
    s = stats.summarize([4.0, 1.0, 3.0, 2.0])
    assert s["n"] == 4 and s["min"] == 1.0 and s["max"] == 4.0
    assert s["median"] == 2.5
    assert s["values"] == [4.0, 1.0, 3.0, 2.0]
    assert s["q1"] <= s["median"] <= s["q3"]


BASE = [1.00, 1.01, 0.99, 1.02, 0.98]


@pytest.mark.parametrize("new, better, expected", [
    ([1.00, 1.01, 0.99, 1.00, 1.02], "lower", "within"),
    ([1.20, 1.21, 1.19, 1.22, 1.18], "lower", "worse"),
    ([0.80, 0.81, 0.79, 0.82, 0.78], "lower", "better"),
    # Higher is better: the same numbers flip.
    ([1.20, 1.21, 1.19, 1.22, 1.18], "higher", "better"),
    ([0.80, 0.81, 0.79, 0.82, 0.78], "higher", "worse"),
    # Spread wider than the bound on the new side, overlapping the base.
    ([0.70, 1.50, 0.90, 1.30, 1.00], "lower", "unresolved"),
])
def test_verdicts(new, better, expected):
    assert stats.verdict(BASE, new, better, 0.10) == expected


def test_noisy_but_disjoint_improvement_is_better():
    base = [1.0, 1.5, 2.0, 1.2, 1.8]
    new = [0.5, 0.6, 0.55, 0.58, 0.52]
    assert stats.verdict(base, new, "lower", 0.10) == "better"


def test_zero_bound_compares_exactly():
    assert stats.verdict([0.0], [0.0], "lower", 0.0) == "within"
    assert stats.verdict([0.0], [0.1], "lower", 0.0) == "worse"
    assert stats.verdict([0.2], [0.0], "lower", 0.0) == "better"


def test_verdict_rejects_an_unknown_direction():
    with pytest.raises(ValueError):
        stats.verdict(BASE, BASE, "faster", 0.1)
