"""One measurement process: ``python -m perfbench.child TASK_JSON``.

The parent starts a fresh interpreter per task, pins it to one CPU and
reads the single JSON line it prints.  ``TASK_JSON`` holds ``mode``,
``workload``, ``seed``, ``cpu``, ``scratch`` and, for rounds,
``budget_s`` and ``min_samples``.  Modes:

* ``setup`` -- time importing ``repro`` and its CLI, then building the
  workload's specs, and exit;
* ``round`` -- set up, then take timed samples until ``budget_s`` of
  sampling is spent (at least ``min_samples``), and report the walls,
  every sample's payload digest and the process's peak RSS after its
  first sample;
* ``profile`` -- set up, run one untimed sample, one under span wrappers
  and the event census, then one under cProfile, and report the layer
  rollup, the exact counts and the spans;
* ``audit`` -- run every ``repro.bench`` scenario once, untimed, and
  report each payload digest next to its golden one.

Every timed interval (a sample, a set-up) is bracketed by two
:func:`~perfbench.speed.calibrate` calls and reported both in host
seconds and scaled to the reference core speed.

There is no warm-up sample in a round: the first sample of a fresh
process measured no slower than the second, and the parent's first
child compiles the bytecode every later start reuses.

Every sample is checked outside its timed region: the workload's own
invariants, then the digest, which the parent compares.
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench.speed import calibrate, speed_scale


@dataclass
class Sample:
    """One run of a workload's specs: its wall, digest and counts."""

    wall_s: float
    digest: Optional[str]
    payloads: List[Any] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


def setup(workload_name: str, seed: int):
    """Import the user's entry point and build the specs once; returns
    the workload and the host seconds that took."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401  -- what ``python -m repro`` loads

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.build(seed)
    return workload, time.perf_counter() - start


def sample(workload, seed: int, scratch_root: Path, profiler=None) -> Sample:
    """Run the workload once in a fresh scratch directory and check it."""
    from repro.bench.harness import bench_payload_digest

    specs = workload.build(seed)
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    wall = 0.0
    try:
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            payloads, info = workload.run(specs, scratch)
        finally:
            wall = time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
        counts = workload.check(payloads, info, scratch)
        return Sample(wall, bench_payload_digest(payloads), payloads, counts)
    except Exception:  # a failed sample is counted, not fatal
        error = traceback.format_exc()
        print(f"perfbench: {workload.name} sample failed:\n{error}",
              file=sys.stderr)
        return Sample(wall, None, error=error.strip().splitlines()[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(workload, seed: int, budget_s: float, min_samples: int,
              scratch_root: Path) -> Dict[str, Any]:
    """Timed samples for about ``budget_s`` host seconds."""
    samples: List[Sample] = []
    walls: List[float] = []
    host_walls: List[float] = []
    before = calibrate()
    while True:
        s = sample(workload, seed, scratch_root)
        after = calibrate()
        if not samples:
            # The peak of set-up plus one run: later samples can raise
            # it by what the previous run left for the collector.
            rss_mb = peak_rss_mb()
        samples.append(s)
        if s.digest is not None:
            walls.append(s.wall_s * speed_scale(before, after))
            host_walls.append(s.wall_s)
        before = after
        spent = sum(x.wall_s for x in samples)
        # Start another sample only if it should fit in the budget.
        if (len(samples) >= min_samples
                and spent + spent / len(samples) > budget_s):
            break
    return {
        "walls": walls,
        "host_walls": host_walls,
        "digests": [s.digest for s in samples],
        "errors": [s.error for s in samples if s.error],
        "golden": workload.golden,
        "peak_rss_mb": rss_mb,
    }


def span_targets():
    """The public entry points the profiled pass wraps in spans."""
    from repro.runner import kinds, sweep
    from repro.runner.cache import ResultCache
    from repro.sim.core import Environment

    return [
        (kinds, "execute_spec", "execute_spec"),
        # The sweep runner calls its own imported name for execute_spec.
        (sweep, "execute_spec", "execute_spec"),
        (Environment, "run", "Environment.run"),
        (sweep.SweepRunner, "run_specs", "SweepRunner.run_specs"),
        (ResultCache, "get", "ResultCache.get"),
        (ResultCache, "put", "ResultCache.put"),
    ]


def run_profile(workload, seed: int, scratch_root: Path) -> Dict[str, Any]:
    """Warm-up, a span + census sample, then a cProfile sample."""
    import cProfile
    import pstats

    import repro
    from repro.sim.core import finish_event_census, start_event_census

    from perfbench import layers

    samples = [sample(workload, seed, scratch_root)]  # warm-up
    recorder = layers.SpanRecorder()
    start_event_census()
    try:
        with recorder.install(span_targets()):
            traced = sample(workload, seed, scratch_root)
    finally:
        events = finish_event_census()
    samples.append(traced)
    profiler = cProfile.Profile()
    before = calibrate()
    profiled = sample(workload, seed, scratch_root, profiler=profiler)
    scale = speed_scale(before, calibrate())
    samples.append(profiled)

    package_dir = os.path.dirname(repro.__file__)
    stats = pstats.Stats(profiler).stats
    self_s = layers.rollup(
        stats, lambda filename: layers.layer_of(filename, package_dir)
    )
    counts: Dict[str, float] = {
        "sim.events": events,
        "obs.trace_bytes": 0,
        "runner.cache_hits": 0,
        "runner.cache_misses": 0,
        "runner.cache_bytes_written": 0,
    }
    counts.update(layers.call_counts(stats, package_dir))
    counts.update(layers.payload_counts(profiled.payloads or traced.payloads))
    counts.update(traced.counts)
    counts.update(layers.span_times(recorder.spans))
    return {
        "self_s": self_s,
        "counts": counts,
        "profiled_wall_s": profiled.wall_s * scale,
        "spans": recorder.spans,
        "digests": [s.digest for s in samples],
        "errors": [s.error for s in samples if s.error],
        "golden": workload.golden,
    }


def run_audit(scratch_root: Path) -> Dict[str, Any]:
    """Every ``repro.bench`` scenario once, digest against golden."""
    from repro.bench.harness import bench_payload_digest
    from repro.bench.scenarios import SCENARIOS

    from perfbench.workloads import run_direct

    audit = {}
    for name, scenario in sorted(SCENARIOS.items()):
        try:
            payloads, _ = run_direct(scenario.make_specs(), scratch_root)
            digest: Optional[str] = bench_payload_digest(payloads)
        except Exception:  # reported as a failed check, not fatal
            print(f"perfbench: audit {name} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            digest = None
        audit[name] = {"digest": digest, "golden": scenario.expected_digest}
    return {"audit": audit}


def main(argv: List[str]) -> int:
    task = json.loads(argv[0])
    os.sched_setaffinity(0, {task["cpu"]})
    scratch_root = Path(task["scratch"])
    mode = task["mode"]
    if mode == "audit":
        result = run_audit(scratch_root)
    else:
        before = calibrate()
        workload, setup_s = setup(task["workload"], task["seed"])
        result = {"setup_s": setup_s * speed_scale(before, calibrate()),
                  "host_setup_s": setup_s}
        if mode == "round":
            result.update(run_round(workload, task["seed"], task["budget_s"],
                                    task["min_samples"], scratch_root))
        elif mode == "profile":
            result.update(run_profile(workload, task["seed"], scratch_root))
        elif mode != "setup":
            raise ValueError(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
