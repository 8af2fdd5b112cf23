"""Multi-tenant job arrival streams for the consolidated cluster.

The paper's experiments run one job at a time; a consolidated cluster
sees a *stream* of jobs from several tenants.  This module generates
that stream as pure data: a :class:`ArrivalConfig` describes the
process (Poisson or an explicit trace, a tenant mix, a heavy-tailed
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
    "TraceArrival",
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
class TraceArrival:
    """One explicit entry of a trace-driven arrival schedule."""

    time: float
    tenant: str
    size_class: str = "medium"

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:
            raise ValueError(
                f"trace arrival time must be finite and non-negative, "
                f"got {self.time}")


@dataclass(frozen=True)
class ArrivalConfig:
    """A declarative multi-tenant arrival process (pure data).

    ``kind="poisson"`` draws exponential interarrival gaps at ``rate``
    jobs per simulated second and assigns tenants/size classes by
    weighted draw; ``kind="trace"`` replays the explicit ``trace``
    entries (``n_jobs``/``rate``/weights are ignored).  Built from
    dataclasses, tuples, and scalars only, so it canonicalises into the
    sweep cache key unchanged.
    """

    kind: str = "poisson"
    n_jobs: int = 3
    #: Mean arrival rate, jobs per simulated second (Poisson only).
    rate: float = 0.02
    tenants: Tuple[str, ...] = ("tenant-a", "tenant-b")
    #: Unnormalised per-tenant weights; empty = uniform.
    tenant_weights: Tuple[float, ...] = ()
    size_classes: Tuple[SizeClass, ...] = DEFAULT_SIZE_MIX
    trace: Tuple[TraceArrival, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "trace"):
            raise ValueError(
                f"arrival kind must be 'poisson' or 'trace', got {self.kind!r}"
            )
        if self.kind == "poisson":
            if self.n_jobs < 1:
                raise ValueError("n_jobs must be >= 1")
            if not 0 < self.rate < math.inf:
                raise ValueError(
                    f"rate must be finite and positive, got {self.rate}")
            if not self.tenants:
                raise ValueError("at least one tenant is required")
            if self.tenant_weights and (
                len(self.tenant_weights) != len(self.tenants)
            ):
                raise ValueError(
                    "tenant_weights must match tenants "
                    f"({len(self.tenant_weights)} != {len(self.tenants)})"
                )
            if not all(0 <= w < math.inf for w in self.tenant_weights):
                raise ValueError(
                    f"tenant_weights must be finite and non-negative, got "
                    f"{self.tenant_weights}")
            if not self.size_classes:
                raise ValueError("at least one size class is required")
            names = [sc.name for sc in self.size_classes]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate size-class names in {names}")
        else:
            if not self.trace:
                raise ValueError("trace arrivals need at least one entry")
            times = [entry.time for entry in self.trace]
            if times != sorted(times):
                raise ValueError("trace entries must be time-ordered")
            known = [sc.name for sc in self.size_classes]
            for entry in self.trace:
                if entry.size_class not in known:
                    raise ValueError(
                        f"trace entry names unknown size class "
                        f"{entry.size_class!r} (have {known})"
                    )


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
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
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
    if config.kind == "trace":
        by_name = {sc.name: sc for sc in config.size_classes}
        return tuple(
            JobArrival(job_id=i, time=entry.time, tenant=entry.tenant,
                       size_class=by_name[entry.size_class])
            for i, entry in enumerate(config.trace)
        )

    tenant_weights = list(config.tenant_weights) or [1.0] * len(config.tenants)
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
