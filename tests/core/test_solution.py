"""Unit tests for phase-plan solutions."""

import pytest

from repro.core import Solution
from repro.virt import SchedulerPair

CC = SchedulerPair("cfq", "cfq")
AD = SchedulerPair("anticipatory", "deadline")
DD = SchedulerPair("deadline", "deadline")


def test_uniform_plan_has_no_switches():
    s = Solution.uniform(CC, 3)
    assert len(s) == 3
    assert s.n_switches == 0
    assert s.is_uniform
    assert s.effective() == [CC, CC, CC]


def test_explicit_plan_counts_switches():
    s = Solution((AD, DD, None))
    assert s.n_switches == 1
    assert s.effective() == [AD, DD, DD]


def test_of_collapses_repeats():
    s = Solution.of([AD, AD, DD])
    assert s.assignments == (AD, None, DD)
    assert s.n_switches == 1


def test_of_preserves_alternation():
    s = Solution.of([AD, DD, AD])
    assert s.n_switches == 2
    assert s.effective() == [AD, DD, AD]


def test_first_phase_must_be_concrete():
    with pytest.raises(ValueError):
        Solution((None, AD))
    with pytest.raises(ValueError):
        Solution(())


def test_concrete_slot_repeating_the_installed_pair_is_rejected():
    # "Same pair" is spelled None; a concrete repeat would re-install
    # the elevator, which the greedy controller never does.
    for plan in ((CC, CC), (AD, None, AD), (AD, DD, DD)):
        with pytest.raises(ValueError, match="write None"):
            Solution(plan)
    # Returning to an earlier pair is a real switch.
    assert Solution((AD, DD, AD)).n_switches == 2


def test_str_uses_paper_zero_notation():
    s = Solution((AD, None))
    assert str(s) == "(AS, DL) -> 0"


def test_uniform_invalid_phases():
    with pytest.raises(ValueError):
        Solution.uniform(CC, 0)


def test_solutions_hashable_and_equal():
    assert Solution((AD, None)) == Solution((AD, None))
    assert hash(Solution((AD, None))) == hash(Solution((AD, None)))
    assert Solution((AD, None)) != Solution((AD, DD))
