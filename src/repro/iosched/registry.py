"""Scheduler registry: names, abbreviations, and factories.

The paper abbreviates the four schedulers CFQ/DL/AS/NP and writes a
scheduler *pair* as (VMM-level, VM-level).  This module is the single
source of truth for those names.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type

from .anticipatory import AnticipatoryScheduler
from .base import IOScheduler
from .cfq import CfqScheduler
from .deadline import DeadlineScheduler
from .noop import NoopScheduler

__all__ = [
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "ABBREVIATIONS",
    "UnknownSchedulerError",
    "abbrev",
    "make_scheduler",
    "resolve_name",
]


class UnknownSchedulerError(KeyError, ValueError):
    """An unregistered scheduler name.

    Subclasses both ``KeyError`` (the registry's historical contract —
    lookups raise it) and ``ValueError`` (what input-validation layers
    like the CLI catch), so neither kind of caller needs special
    casing.  ``str()`` returns the plain message rather than
    ``KeyError``'s quoted repr.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else ""

SCHEDULERS: Dict[str, Type[IOScheduler]] = {
    NoopScheduler.name: NoopScheduler,
    DeadlineScheduler.name: DeadlineScheduler,
    AnticipatoryScheduler.name: AnticipatoryScheduler,
    CfqScheduler.name: CfqScheduler,
}

#: Canonical order used throughout the paper's tables.
SCHEDULER_NAMES: List[str] = ["cfq", "deadline", "anticipatory", "noop"]

ABBREVIATIONS: Dict[str, str] = {
    "cfq": "CFQ",
    "deadline": "DL",
    "anticipatory": "AS",
    "noop": "NP",
}

_ALIASES: Dict[str, str] = {
    "cfq": "cfq",
    "deadline": "deadline",
    "dl": "deadline",
    "anticipatory": "anticipatory",
    "as": "anticipatory",
    "noop": "noop",
    "np": "noop",
    "none": "noop",
}


def resolve_name(name: str) -> str:
    """Map a name or abbreviation (case-insensitive) to the canonical name."""
    canonical = _ALIASES.get(name.strip().lower())
    if canonical is None:
        raise UnknownSchedulerError(
            f"unknown scheduler {name!r}; choose from {sorted(set(_ALIASES))}"
        )
    return canonical


def abbrev(name: str) -> str:
    """Paper-style abbreviation (CFQ/DL/AS/NP) for a scheduler name."""
    return ABBREVIATIONS[resolve_name(name)]


def make_scheduler(name: str) -> IOScheduler:
    """Instantiate a scheduler by (possibly abbreviated) name."""
    return SCHEDULERS[resolve_name(name)]()


def scheduler_factory(name: str) -> Callable[[], IOScheduler]:
    """A zero-argument factory, handy for device construction."""
    return SCHEDULERS[resolve_name(name)]
