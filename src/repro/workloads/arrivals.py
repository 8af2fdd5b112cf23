"""Multi-tenant job arrival streams for the consolidated cluster.

The paper's experiments run one job at a time; a consolidated cluster
sees a *stream* of jobs from several tenants.  This module generates
that stream as pure data: a :class:`ArrivalConfig` describes the
process (a Poisson rate, uniformly drawn tenants, a heavy-tailed
job-size mix) and :func:`generate_arrivals` expands it into concrete
:class:`JobArrival`s using an injected RNG stream, so the schedule is a
deterministic function of ``(config, seed)`` exactly like every other
simulation input.

Nothing here touches the simulator: the multi-job control plane
(:mod:`repro.mapreduce.multijob`) consumes the generated arrivals and
admits jobs at their times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "ArrivalConfig",
    "DEFAULT_SIZE_MIX",
    "JobArrival",
    "SizeClass",
    "generate_arrivals",
]


@dataclass(frozen=True)
class SizeClass:
    """One bucket of the job-size mix.

    ``bytes_factor`` multiplies the template job's per-VM input bytes;
    ``weight`` is the (unnormalised) probability of drawing this class.
    """

    name: str
    weight: float
    bytes_factor: float

    def __post_init__(self) -> None:
        # A NaN weight sends every draw to the last class.
        if not 0 <= self.weight < math.inf:
            raise ValueError(
                f"size-class weight must be finite and non-negative, "
                f"got {self.weight}")
        if not 0 < self.bytes_factor < math.inf:
            raise ValueError(
                f"size-class bytes_factor must be finite and positive, "
                f"got {self.bytes_factor}")


#: A heavy-tailed mix in the spirit of production MapReduce traces:
#: mostly small jobs, a fat tail of big ones.
DEFAULT_SIZE_MIX: Tuple[SizeClass, ...] = (
    SizeClass("small", weight=0.6, bytes_factor=0.5),
    SizeClass("medium", weight=0.3, bytes_factor=1.0),
    SizeClass("large", weight=0.1, bytes_factor=2.0),
)


@dataclass(frozen=True)
class ArrivalConfig:
    """A declarative multi-tenant Poisson arrival process (pure data).

    Interarrival gaps are exponential at ``rate`` jobs per simulated
    second; each job's tenant is drawn uniformly and its size class by
    weight.  Built from dataclasses, tuples, and scalars only, so it
    canonicalises into the sweep cache key unchanged.
    """

    n_jobs: int = 3
    #: Mean arrival rate, jobs per simulated second.
    rate: float = 0.02
    tenants: Tuple[str, ...] = ("tenant-a", "tenant-b")
    size_classes: Tuple[SizeClass, ...] = DEFAULT_SIZE_MIX

    def __post_init__(self) -> None:
        # A float count fails in the generator's range(), a bool passes
        # as 0 or 1.
        if (isinstance(self.n_jobs, bool) or not isinstance(self.n_jobs, int)
                or self.n_jobs < 1):
            raise ValueError(f"n_jobs must be an int >= 1, got {self.n_jobs!r}")
        if not 0 < self.rate < math.inf:
            raise ValueError(
                f"rate must be finite and positive, got {self.rate}")
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        # No class (or only weight-0 ones) leaves nothing to draw.
        weights = [sc.weight for sc in self.size_classes]
        if not sum(weights) > 0:
            raise ValueError(
                f"size-class weights must sum to more than 0, got {weights}")
        names = [sc.name for sc in self.size_classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate size-class names in {names}")


@dataclass(frozen=True)
class JobArrival:
    """One concrete job submission: when, whose, and how big."""

    job_id: int
    time: float
    tenant: str
    size_class: SizeClass


def _weighted_index(weights: List[float], draw: float) -> int:
    """Index of the bucket a uniform ``draw`` in [0, 1) lands in."""
    total = sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w / total
        if draw < acc:
            return i
    return len(weights) - 1  # float round-off: clamp to the last bucket


def generate_arrivals(
    config: ArrivalConfig, rng: np.random.Generator
) -> Tuple[JobArrival, ...]:
    """Expand an :class:`ArrivalConfig` into concrete arrivals.

    ``rng`` must be an injected stream (e.g.
    ``cluster.rng.stream("workload.arrivals")``): this module never
    constructs generators, so the schedule is seed-deterministic.  The
    draw order is fixed — gap, tenant, size per job — making the output
    independent of how callers consume it.
    """
    tenant_weights = [1.0] * len(config.tenants)
    size_weights = [sc.weight for sc in config.size_classes]
    arrivals = []
    now = 0.0
    for job_id in range(config.n_jobs):
        now += float(rng.exponential(1.0 / config.rate))
        tenant = config.tenants[
            _weighted_index(tenant_weights, float(rng.random()))
        ]
        size = config.size_classes[
            _weighted_index(size_weights, float(rng.random()))
        ]
        arrivals.append(
            JobArrival(job_id=job_id, time=now, tenant=tenant, size_class=size)
        )
    return tuple(arrivals)
