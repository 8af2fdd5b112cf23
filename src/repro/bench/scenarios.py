"""Canonical benchmark scenarios: what ``repro bench`` times.

Each scenario is a fixed list of :class:`~repro.runner.spec.RunSpec`s
with every size parameter explicit (``$REPRO_SCALE`` cannot move them),
a *golden digest* of the canonical-JSON payloads — the harness refuses
to report a timing whose results drifted — and the pre-optimisation
baseline measured on the seed revision, so every ``BENCH_*.json``
carries its own speedup denominator.

The five scenarios cover the simulator's distinct hot paths:

* ``sysbench``      — raw two-level block I/O, no MapReduce (Fig. 1);
* ``fig2_single_pair`` — one sort job under (AS, DL), the per-pair
  profiling unit the paper's sweeps repeat 16×3 times (Fig. 2);
* ``sort``          — the reference sort job at the default 0.25 scale
  (Fig. 8); **the regression-gate scenario**;
* ``faulty_job``    — sort under the LIGHT fault plan (fault machinery
  + speculative re-execution on the hot path, Fig. 9);
* ``scale_sweep``   — an 8-host × 4-VM cluster swept over two scales
  (the "big cluster" shape the ROADMAP wants to grow into);
* ``multijob``      — a Poisson stream of three concurrent sort jobs
  over shared slots (the multi-tenant control-plane hot path);
* ``ssd_sort``      — the fig2-shaped sort job on the FTL-based SSD
  backend (write cache, per-channel NAND queues, fig-ssd).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..api import MultiJobScenario, scaled_cluster, scaled_testbed
from ..core.solution import Solution
from ..faults.presets import LIGHT
from ..runner.spec import RunSpec
from ..virt.pair import DEFAULT_PAIR, SchedulerPair
from ..workloads.profiles import SORT

__all__ = ["Baseline", "BenchScenario", "SCENARIOS", "GATE_SCENARIO"]

MB = 1024 * 1024

#: Revision the pre-PR baselines were measured on.
BASELINE_REV = "acc8be8"

#: The scenario whose wall-time speedup is the perf gate.
GATE_SCENARIO = "sort"


@dataclass(frozen=True)
class Baseline:
    """Pre-optimisation measurement (median wall, total events)."""

    wall_s: float
    events: int
    events_per_s: float


@dataclass(frozen=True)
class BenchScenario:
    """One named, digest-pinned timing workload."""

    name: str
    #: Builds the spec list fresh per run (specs hold config objects).
    make_specs: Callable[[], List[RunSpec]]
    #: Timed repetitions (median reported) in full / --quick mode.
    repeats: int
    quick_repeats: int
    #: Warmup runs before timing starts.
    warmup: int
    #: sha256 of the canonical JSON of the payload list; simulation
    #: results must not move when the simulator gets faster.
    expected_digest: str
    baseline: Baseline

    @property
    def in_quick(self) -> bool:
        return self.quick_repeats > 0


def _sysbench() -> List[RunSpec]:
    return [
        RunSpec(
            kind="sysbench",
            seed=0,
            config=(
                scaled_cluster(0.125, hosts=1, vms_per_host=3, seed=0),
                128 * MB, 16, 3,
            ),
            label="bench sysbench",
        )
    ]


def _fig2_single_pair() -> List[RunSpec]:
    return [
        RunSpec(
            kind="job",
            seed=0,
            config=(
                scaled_testbed(SORT, scale=0.125, seeds=(0,)),
                Solution.uniform(SchedulerPair.parse("ad"), 2),
            ),
            label="bench fig2 (AS, DL)",
        )
    ]


def _sort() -> List[RunSpec]:
    return [
        RunSpec(
            kind="job",
            seed=0,
            config=(
                scaled_testbed(SORT, scale=0.25, seeds=(0,)),
                Solution.uniform(DEFAULT_PAIR, 2),
            ),
            label="bench sort",
        )
    ]


def _faulty_job() -> List[RunSpec]:
    return [
        RunSpec(
            kind="faulty_job",
            seed=0,
            config=(
                scaled_testbed(SORT, scale=0.125, hosts=2, vms_per_host=2,
                               seeds=(0,)),
                Solution.uniform(DEFAULT_PAIR, 2),
                LIGHT,
            ),
            label="bench faulty_job",
        )
    ]


def _scale_sweep() -> List[RunSpec]:
    return [
        RunSpec(
            kind="job",
            seed=0,
            config=(
                scaled_testbed(SORT, scale=scale, hosts=8, vms_per_host=4,
                               seeds=(0,)),
                Solution.uniform(DEFAULT_PAIR, 2),
            ),
            label=f"bench scale_sweep {scale}",
        )
        for scale in (0.05, 0.1)
    ]


def _ssd_sort() -> List[RunSpec]:
    return [
        RunSpec(
            kind="job",
            seed=0,
            config=(
                scaled_testbed(SORT, scale=0.125, hosts=2, vms_per_host=2,
                               seeds=(0,), storage="ssd"),
                Solution.uniform(DEFAULT_PAIR, 2),
            ),
            label="bench ssd_sort",
        )
    ]


def _multijob() -> List[RunSpec]:
    return [
        MultiJobScenario(
            workload="sort",
            scale=0.05,
            hosts=2,
            vms_per_host=2,
            scheduler="fifo",
            n_jobs=3,
            arrival_rate=0.2,
            tenants=("tenant-a", "tenant-b"),
            label="bench multijob",
        ).to_spec(seed=0)
    ]


SCENARIOS: Dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            name="sysbench",
            make_specs=_sysbench,
            repeats=5, quick_repeats=3, warmup=1,
            expected_digest=(
                "807588de7f83658619ad156497003d59"
                "414bd87718885651c16f5b98dacf483d"
            ),
            baseline=Baseline(wall_s=0.033869, events=4909,
                              events_per_s=144940.5),
        ),
        BenchScenario(
            name="fig2_single_pair",
            make_specs=_fig2_single_pair,
            repeats=3, quick_repeats=2, warmup=1,
            expected_digest=(
                "6782ee4b657aabb0815958e1d347173f"
                "153e20bb21acd3a8ec0c2d657e9d25ab"
            ),
            baseline=Baseline(wall_s=1.387524, events=108635,
                              events_per_s=78294.1),
        ),
        BenchScenario(
            name="sort",
            make_specs=_sort,
            repeats=5, quick_repeats=3, warmup=1,
            expected_digest=(
                "7ddef559088cb6d537f2f842fa8a4768"
                "4a107a3cd8710e473471e754059658ef"
            ),
            baseline=Baseline(wall_s=2.553349, events=184930,
                              events_per_s=72426.5),
        ),
        BenchScenario(
            name="faulty_job",
            make_specs=_faulty_job,
            repeats=3, quick_repeats=2, warmup=1,
            expected_digest=(
                "4c76ebed07454d3e3494b3baedf149a4"
                "aac941eca5d928e51d33f6d357c478eb"
            ),
            baseline=Baseline(wall_s=0.262164, events=22249,
                              events_per_s=84866.6),
        ),
        # Big-cluster sweep: heavy (≈10 s per rep at the baseline), so
        # it only runs in full mode; --quick skips it.
        BenchScenario(
            name="scale_sweep",
            make_specs=_scale_sweep,
            repeats=3, quick_repeats=0, warmup=0,
            # Digest updated when partition extents became exact (the
            # shuffle partition_bytes fix): at scales 0.05/0.1 the block
            # size is not a multiple of the reducer count, so per-reducer
            # fetch sizes legitimately shifted.  The four power-of-two
            # scenarios above were bit-unchanged by that fix.
            expected_digest=(
                "c06656eeb5b563a428941a9148fd4c92"
                "9786c545dc6697f3769b38584c319f04"
            ),
            baseline=Baseline(wall_s=11.430678, events=462894,
                              events_per_s=40495.8),
        ),
        # FTL hot path: the fig2-shaped sort job on the SSD backend —
        # write-cache admission, per-channel NAND queues, delayed
        # writeback.  New in the storage-backend PR, so its baseline is
        # the first measurement on that revision.
        BenchScenario(
            name="ssd_sort",
            make_specs=_ssd_sort,
            repeats=3, quick_repeats=2, warmup=1,
            expected_digest=(
                "1baaf7e573eee7d9963ae304753c16a5"
                "1955b0c471d5c8776052039de979ab42"
            ),
            baseline=Baseline(wall_s=1.801492, events=491561,
                              events_per_s=272863.3),
        ),
        # Multi-tenant control plane: three overlapping sort jobs on a
        # 2x2 cluster under FIFO.  New in the multi-job PR, so its
        # baseline is the first measurement on that revision.
        BenchScenario(
            name="multijob",
            make_specs=_multijob,
            repeats=3, quick_repeats=2, warmup=1,
            expected_digest=(
                "61760cb1a9cbc7773a7b31b38ec707ec"
                "af828956fa5870dda612926741f4c163"
            ),
            baseline=Baseline(wall_s=0.356022, events=45156,
                              events_per_s=126834.7),
        ),
    )
}
