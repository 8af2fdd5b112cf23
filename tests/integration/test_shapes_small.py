"""Reduced-scale integration checks of the paper's headline shapes.

The full calibrated checks run in benchmarks/ at REPRO_SCALE; these
compact versions (scale 0.15, a 4-pair subset) guard the mechanisms
that produce them against regressions without slowing the unit suite
much.  Scale 0.15 is the smallest at which the anticipatory-VMM
advantage is comfortably clear of simulation noise: at 0.1 the ac/cc
gap is a knife edge that flips under byte-level changes to fetch
extents (it did when partition extents became exact in v1.3.0), while
0.15/0.2/0.25 all show the paper's ordering with a solid margin.
"""

import pytest

from repro.api import scaled_testbed
from repro.runner import SweepJobRunner, SweepRunner
from repro.virt import SchedulerPair
from repro.workloads import SORT

PAIRS = {name: SchedulerPair.parse(name) for name in ("cc", "ac", "dc", "nc")}


def sort_runner():
    return SweepJobRunner(scaled_testbed(SORT, scale=0.15, seeds=(0,)),
                          SweepRunner(jobs=1, use_cache=False))


@pytest.fixture(scope="module")
def sort_durations():
    runner = sort_runner()
    return {
        name: runner.run_uniform(pair).mean_duration
        for name, pair in PAIRS.items()
    }


def test_noop_vmm_clearly_worst(sort_durations):
    others = [v for k, v in sort_durations.items() if k != "nc"]
    assert sort_durations["nc"] > max(others)
    assert sort_durations["nc"] > min(others) * 1.1


def test_anticipatory_vmm_beats_default(sort_durations):
    assert sort_durations["ac"] < sort_durations["cc"]


def test_deadline_vmm_suffers_deceptive_idleness(sort_durations):
    """DL has no idling: it must trail the AS column on sort."""
    assert sort_durations["dc"] > sort_durations["ac"]


def test_spread_is_meaningful(sort_durations):
    values = list(sort_durations.values())
    assert (max(values) - min(values)) / min(values) > 0.1


def test_multi_pair_plan_at_least_matches_best_single(sort_durations):
    from repro.core import Solution

    runner = sort_runner()
    best_name = min(sort_durations, key=sort_durations.get)
    mixed = Solution.of([PAIRS["cc"], PAIRS[best_name]])
    if mixed.n_switches == 0:
        pytest.skip("default is best at this scale; nothing to mix")
    mixed_score = runner.score(mixed)
    assert mixed_score <= sort_durations[best_name] * 1.05
