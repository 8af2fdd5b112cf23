"""The five benchmark workloads.

Each workload is a list of :class:`~repro.runner.spec.RunSpec`s built
from the benchmark's ``--seed`` (every size is explicit, so
``$REPRO_SCALE`` cannot move them), a way to run them, and the golden
digest of their payloads at seed 0.  A sample runs the specs through
``execute_spec`` plus the JSON round-trip the sweep runner applies, so
the digest covers exactly the bytes a cache hit would return.

Why these five (``BENCHMARK.json`` carries the one-line form):

* ``sort_hdd`` -- the paper's reference job on spindles.  Self time is
  spread over sim, iosched, disk, net and virt, and it never reaches the
  SSD or trace-capture code: the no-change control for optimisations of
  either.
* ``sort_ssd`` -- the FTL model.  sim and disk hold nearly all self time
  and it schedules over twice the events of ``sort_hdd``, while net and
  iosched are nearly idle: where an SSD speed-up must show.
* ``sort_traced`` -- the ``--trace-out`` path, with ``obs.capture``
  streaming every topic.  The only workload that publishes trace records
  in bulk, so the only one where cheaper tracing can show.
* ``pair_sweep`` -- four pairs (each elevator once at each level) at a
  tiny scale through ``SweepRunner(jobs=1)``, cold and then warm from
  the on-disk cache.  The only workload that crosses the runner, the
  cache and the JSON layers; fixed per-run assembly costs dominate here.
* ``control_plane`` -- a multi-job FIFO stream of three equal sort
  jobs, a faulty job with retries and an online-controlled job that
  switches once: the MultiJobTracker, attempt/speculation and ctrl
  paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.api import ControlledScenario, MultiJobScenario, scaled_testbed
from repro.core.solution import Solution
from repro.faults.presets import LIGHT
from repro.obs import capture
from repro.runner import kinds
from repro.runner.spec import RunSpec
from repro.runner.sweep import SweepRunner
from repro.virt.pair import DEFAULT_PAIR, SchedulerPair
from repro.workloads.arrivals import SizeClass
from repro.workloads.profiles import SORT

__all__ = ["CheckError", "Workload", "WORKLOADS", "run_direct"]


class CheckError(RuntimeError):
    """A sample ran but its outputs break the workload's invariants."""


#: What a sample hands back: the payload list and workload-specific
#: side information for :attr:`Workload.check`.
SampleResult = Tuple[List[Any], Dict[str, Any]]


@dataclass(frozen=True)
class Workload:
    """One named, digest-pinned benchmark workload."""

    name: str
    #: ``seed -> specs``; called fresh for every sample.
    build: Callable[[int], List[RunSpec]]
    #: ``(specs, scratch_dir) -> (payloads, info)``; the timed region.
    run: Callable[[List[RunSpec], Path], SampleResult]
    #: ``(payloads, info, scratch_dir) -> counts``; runs after timing,
    #: raises :class:`CheckError` on a broken invariant and returns the
    #: exact per-layer counts only this workload can see.
    check: Callable[[List[Any], Dict[str, Any], Path], Dict[str, float]]
    #: sha256 of the canonical JSON of the payload list at seed 0.
    golden: str


def _job(scale: float, hosts: int, vms: int, seed: int, *,
         storage: str = "hdd", pair: SchedulerPair = DEFAULT_PAIR,
         label: str) -> RunSpec:
    return RunSpec(
        kind="job",
        seed=seed,
        config=(
            scaled_testbed(SORT, scale=scale, hosts=hosts, vms_per_host=vms,
                           seeds=(seed,), storage=storage),
            Solution.uniform(pair, 2),
        ),
        label=label,
    )


# -- spec builders ----------------------------------------------------------------------


def _sort_hdd(seed: int) -> List[RunSpec]:
    return [_job(0.125, 4, 4, seed, label="perfbench sort_hdd")]


def _sort_ssd(seed: int) -> List[RunSpec]:
    return [_job(0.0625, 2, 2, seed, storage="ssd",
                 label="perfbench sort_ssd")]


def _sort_traced(seed: int) -> List[RunSpec]:
    return [_job(0.0625, 4, 4, seed, label="perfbench sort_traced")]


#: (VMM, VM) pairs that put each elevator once at each level.
SWEEP_PAIRS = ("na", "ad", "dc", "cn")


def _pair_sweep(seed: int) -> List[RunSpec]:
    return [
        _job(0.03125, 4, 4, seed, pair=SchedulerPair.parse(label),
             label=f"perfbench pair_sweep {label}")
        for label in SWEEP_PAIRS
    ]


def _control_plane(seed: int) -> List[RunSpec]:
    faulty = RunSpec(
        kind="faulty_job",
        seed=seed,
        config=(
            scaled_testbed(SORT, scale=0.125, hosts=2, vms_per_host=2,
                           seeds=(seed,)),
            Solution.uniform(DEFAULT_PAIR, 2),
            LIGHT,
        ),
        label="perfbench control_plane faulty_job",
    )
    return [
        MultiJobScenario(
            workload="sort", scale=0.05, hosts=2, vms_per_host=2,
            scheduler="fifo", n_jobs=3, arrival_rate=1.0,
            # One job size, and arrivals close enough that all three jobs
            # overlap: with the default size mix and sparse arrivals the
            # work per sample swings by over 20% from seed to seed.
            size_mix=(SizeClass("medium", weight=1.0, bytes_factor=1.0),),
            label="perfbench control_plane multi_job",
        ).to_spec(seed=seed),
        faulty,
        ControlledScenario(
            workload="sort", scale=0.125, hosts=2, vms_per_host=2,
            controller="greedy", initial="cc", phase_pairs=("cc", "ad"),
            label="perfbench control_plane controlled_job",
        ).to_spec(seed=seed),
    ]


# -- how a sample runs --------------------------------------------------------------------


def run_direct(specs: List[RunSpec], scratch: Path) -> SampleResult:
    # kinds.execute_spec is looked up per call so that span wrappers
    # installed by the profiled pass see every run.
    return [
        json.loads(json.dumps(kinds.execute_spec(spec), sort_keys=True))
        for spec in specs
    ], {}


def _run_traced(specs: List[RunSpec], scratch: Path) -> SampleResult:
    capture.enable(scratch)
    try:
        return run_direct(specs, scratch)
    finally:
        capture.disable()


def _run_sweep(specs: List[RunSpec], scratch: Path) -> SampleResult:
    cache_dir = scratch / "cache"
    with SweepRunner(jobs=1, cache_dir=cache_dir) as cold_runner:
        cold = cold_runner.run_specs(specs)
    with SweepRunner(jobs=1, cache_dir=cache_dir) as warm_runner:
        warm = warm_runner.run_specs(specs)
    return cold, {
        "warm": warm,
        "cache": [cold_runner.cache_stats(), warm_runner.cache_stats()],
    }


# -- checks -------------------------------------------------------------------------------


def _check_sort(payloads, info, scratch) -> Dict[str, float]:
    """Any seed: a sort moves every input byte through every stage, and
    its phase boundaries come in order."""
    for p in payloads:
        stages = (p["map_output_bytes"], p["shuffle_bytes"],
                  p["reduce_output_bytes"])
        if any(b != p["input_bytes"] for b in stages):
            raise CheckError(f"sort lost bytes: {p['input_bytes']} in, "
                             f"{stages} through map/shuffle/reduce")
        ph = p["phases"]
        if not ph["start"] <= ph["maps_done"] <= ph["shuffle_done"] <= ph["end"]:
            raise CheckError(f"phase boundaries out of order: {ph}")
    return {}


def _check_traced(payloads, info, scratch) -> Dict[str, float]:
    _check_sort(payloads, info, scratch)
    traces = sorted(scratch.glob("*.trace.jsonl"))
    if len(traces) != len(payloads):
        raise CheckError(
            f"capture wrote {len(traces)} traces for {len(payloads)} runs"
        )
    size = sum(path.stat().st_size for path in scratch.iterdir())
    if any(path.stat().st_size == 0 for path in traces):
        raise CheckError("capture wrote an empty trace")
    return {"obs.trace_bytes": size}


def _check_sweep(payloads, info, scratch) -> Dict[str, float]:
    _check_sort(payloads, info, scratch)
    if info["warm"] != payloads:
        raise CheckError("the warm sweep returned other payloads than the cold one")
    cold, warm = info["cache"]
    n = len(payloads)
    if cold["misses"] != n or cold["hits"] != 0:
        raise CheckError(f"cold sweep: {cold['misses']} misses, "
                         f"{cold['hits']} hits for {n} fresh specs")
    if warm["hits"] != n or warm["misses"] != 0:
        raise CheckError(f"warm sweep: {warm['hits']} hits, "
                         f"{warm['misses']} misses for {n} cached specs")
    return {
        "runner.cache_hits": cold["hits"] + warm["hits"],
        "runner.cache_misses": cold["misses"] + warm["misses"],
        "runner.cache_bytes_written":
            cold["bytes_written"] + warm["bytes_written"],
    }


def _check_control_plane(payloads, info, scratch) -> Dict[str, float]:
    multi, faulty, controlled = payloads
    if multi["n_jobs"] != 3 or len(multi["jobs"]) != 3:
        raise CheckError(f"multi_job finished {len(multi['jobs'])} of 3 jobs")
    if "faults" not in faulty:
        raise CheckError("faulty_job payload has no fault counters")
    if controlled["ctrl"]["policy"] != "greedy":
        raise CheckError("controlled_job ran without the greedy controller")
    return {}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sort_hdd", build=_sort_hdd, run=run_direct,
            check=_check_sort,
            golden=(
                "eea122aaf0276a4733e99ff5e779539a"
                "1c34857ce18fb05b8d20591d91dc4784"
            ),
        ),
        Workload(
            name="sort_ssd", build=_sort_ssd, run=run_direct,
            check=_check_sort,
            golden=(
                "4215f52e3926a076988849d5759a6d70"
                "7dc7628faa56548bd2d752c9738d2355"
            ),
        ),
        Workload(
            name="sort_traced", build=_sort_traced, run=_run_traced,
            check=_check_traced,
            golden=(
                "74ffcd24c202464b360224c2fc20f9d4"
                "a57442a2db9a020ce71c2b9b03ebe2fa"
            ),
        ),
        Workload(
            name="pair_sweep", build=_pair_sweep, run=_run_sweep,
            check=_check_sweep,
            golden=(
                "b682374dc55f65600fa8182fbd9daa3c"
                "fb4f041b9d15994ff940b73ab3a4e53d"
            ),
        ),
        Workload(
            name="control_plane", build=_control_plane, run=run_direct,
            check=_check_control_plane,
            golden=(
                "4c2353e33e660abbbf1202c6720424dd"
                "7d3c641c29185035cb989ebfc39c42bd"
            ),
        ),
    )
}
