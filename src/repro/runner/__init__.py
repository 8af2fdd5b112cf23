"""repro.runner — declarative sweep execution with caching and fan-out.

The experiment layer describes *what* to simulate as lists of
:class:`RunSpec`; :class:`SweepRunner` decides *how* — in-process memo,
on-disk content-addressed cache, or parallel execution across a process
pool.  :class:`SweepJobRunner`/:class:`SweepChainRunner` are the plan runners
the adaptive machinery drives one plan at a time.
"""

from .adapter import SweepChainRunner, SweepJobRunner
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .kinds import KINDS, execute_spec, register
from .spec import RunSpec, canonical, spec_key
from .sweep import (
    SweepRunner,
    SweepStats,
    default_jobs,
    default_runner,
    set_default_runner,
)
from .telemetry import EVENT_KINDS, ProgressRenderer, SweepEvent, describe_spec

__all__ = [
    "DEFAULT_CACHE_DIR",
    "EVENT_KINDS",
    "KINDS",
    "ProgressRenderer",
    "ResultCache",
    "RunSpec",
    "SweepChainRunner",
    "SweepEvent",
    "SweepJobRunner",
    "SweepRunner",
    "SweepStats",
    "canonical",
    "default_jobs",
    "default_runner",
    "describe_spec",
    "execute_spec",
    "register",
    "set_default_runner",
    "spec_key",
]
