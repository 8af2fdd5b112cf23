"""Solutions: assignments of scheduler pairs to job phases.

A solution assigns one pair per phase; ``None`` in a slot is the
paper's ``0`` — *no switch*, keep whatever the previous phase used.
Re-installing even the same pair would drain the queues and pay real
cost (paper §IV-B), and the greedy controller that executes every plan
(:func:`repro.api.run_job`) holds instead; so "same pair" has exactly
one spelling, ``None``, and a concrete slot repeating the installed
pair is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..virt.pair import SchedulerPair

__all__ = ["Solution"]


@dataclass(frozen=True)
class Solution:
    """A per-phase plan of scheduler pairs."""

    assignments: Tuple[Optional[SchedulerPair], ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("a solution needs at least one phase")
        if self.assignments[0] is None:
            raise ValueError("phase 1 must name a concrete pair")
        installed = self.assignments[0]
        for phase, assignment in enumerate(self.assignments[1:], start=2):
            if assignment == installed:
                raise ValueError(
                    f"phase {phase} re-assigns the installed pair "
                    f"{assignment}; write None for no switch")
            if assignment is not None:
                installed = assignment

    def __str__(self) -> str:
        parts = ["0" if a is None else str(a) for a in self.assignments]
        return " -> ".join(parts)

    def __len__(self) -> int:
        return len(self.assignments)

    @classmethod
    def uniform(cls, pair: SchedulerPair, n_phases: int) -> "Solution":
        """The single-pair plan: set once, never switch."""
        if n_phases < 1:
            raise ValueError("n_phases must be >= 1")
        return cls((pair,) + (None,) * (n_phases - 1))

    @classmethod
    def of(cls, pairs: Sequence[Optional[SchedulerPair]]) -> "Solution":
        """Build from a sequence, collapsing repeats into no-switches."""
        normalized: List[Optional[SchedulerPair]] = []
        last: Optional[SchedulerPair] = None
        for pair in pairs:
            if pair is None or pair == last:
                normalized.append(None)
            else:
                normalized.append(pair)
                last = pair
        return cls(tuple(normalized))

    def effective(self) -> List[SchedulerPair]:
        """The pair actually installed during each phase."""
        out: List[SchedulerPair] = []
        current: Optional[SchedulerPair] = None
        for assignment in self.assignments:
            if assignment is not None:
                current = assignment
            assert current is not None  # guaranteed by __post_init__
            out.append(current)
        return out

    @property
    def n_switches(self) -> int:
        """Elevator switches the plan performs after the job starts."""
        return sum(1 for a in self.assignments[1:] if a is not None)

    @property
    def is_uniform(self) -> bool:
        return self.n_switches == 0
