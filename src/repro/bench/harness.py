"""The timing harness behind ``repro bench``.

For each scenario the harness runs ``warmup`` untimed executions, then
``repeats`` timed ones (reporting the median wall time), then one final
*audited* pass that counts simulation events with the kernel's event
census and digests the canonical-JSON payloads.  A digest that differs
from the scenario's golden digest is a hard failure — a speedup that
changes results is a bug, not a speedup.

Results land in ``BENCH_<rev>.json`` at the repository root::

    {
      "rev": "1a2b3c4",
      "version": "1.2.0",
      "mode": "quick" | "full",
      "baseline_rev": "acc8be8",
      "scenarios": {
        "<name>": {
          "events": 184930,          # per audited pass (deterministic)
          "wall_s": 1.497,           # median of the timed repeats
          "events_per_s": 123466.0,
          "rss_mb": 138.2,           # ru_maxrss after the scenario
          "walls": [...],            # every timed repeat
          "digest": "…",             # == golden, or the run failed
          "baseline": {"wall_s": …, "events": …, "events_per_s": …},
          "speedup": 1.70            # baseline wall_s / wall_s
        }, ...
      }
    }

``--profile NAME`` instead runs one scenario under :mod:`cProfile` and
prints the top of the cumulative-time table — the loop used to find the
hot paths this harness guards.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..runner.kinds import execute_spec
from ..sim.core import finish_event_census, start_event_census
from .scenarios import BASELINE_REV, GATE_SCENARIO, SCENARIOS, BenchScenario

__all__ = [
    "BenchError",
    "ScenarioTiming",
    "bench_payload_digest",
    "main",
    "run_scenario",
    "run_trace_overhead",
    "write_bench_file",
]


class BenchError(RuntimeError):
    """A scenario produced results that differ from its golden digest."""


def bench_payload_digest(payloads: List[Any]) -> str:
    """sha256 over the canonical JSON of a scenario's payload list."""
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ScenarioTiming:
    """One scenario's measured numbers (see the module docstring)."""

    name: str
    events: int
    wall_s: float
    events_per_s: float
    rss_mb: float
    walls: List[float] = field(default_factory=list)
    digest: str = ""
    speedup: float = 0.0

    def to_json(self, scenario: BenchScenario) -> Dict[str, Any]:
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_s": round(self.events_per_s, 1),
            "rss_mb": round(self.rss_mb, 1),
            "walls": [round(w, 6) for w in self.walls],
            "digest": self.digest,
            "baseline": {
                "wall_s": scenario.baseline.wall_s,
                "events": scenario.baseline.events,
                "events_per_s": scenario.baseline.events_per_s,
            },
            "speedup": round(self.speedup, 3),
        }


def _rss_mb() -> float:
    # ru_maxrss is KiB on Linux (bytes on macOS; close enough for a
    # trend line — CI runs Linux).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_once(scenario: BenchScenario) -> List[Any]:
    # The same JSON round-trip the sweep runner applies, so the digest
    # covers exactly the bytes a cache hit would return.
    return [
        json.loads(json.dumps(execute_spec(spec), sort_keys=True))
        for spec in scenario.make_specs()
    ]


def _median(walls: List[float]) -> float:
    walls = sorted(walls)
    mid = len(walls) // 2
    if len(walls) % 2:
        return walls[mid]
    return (walls[mid - 1] + walls[mid]) / 2


def run_scenario(scenario: BenchScenario, repeats: Optional[int] = None,
                 quick: bool = False) -> ScenarioTiming:
    """Time one scenario; raises :class:`BenchError` on digest drift."""
    if repeats is None:
        repeats = scenario.quick_repeats if quick else scenario.repeats
    if repeats < 1:
        raise ValueError(f"{scenario.name}: repeats must be >= 1")

    for _ in range(scenario.warmup):
        _run_once(scenario)

    walls: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for spec in scenario.make_specs():
            execute_spec(spec)
        walls.append(time.perf_counter() - t0)

    # Audited pass: census the event count and digest the payloads.
    # Runs are deterministic, so this pass's events and digest stand
    # for every timed pass above.
    start_event_census()
    payloads = _run_once(scenario)
    events = finish_event_census()
    digest = bench_payload_digest(payloads)
    if digest != scenario.expected_digest:
        raise BenchError(
            f"{scenario.name}: payload digest drifted\n"
            f"  expected {scenario.expected_digest}\n"
            f"  got      {digest}\n"
            "Simulation results changed; either a bit-identity "
            "regression or an intentional behaviour change that must "
            "update the golden digest in repro/bench/scenarios.py."
        )

    wall_s = _median(walls)
    events_per_s = events / wall_s if wall_s > 0 else 0.0
    return ScenarioTiming(
        name=scenario.name,
        events=events,
        wall_s=wall_s,
        events_per_s=events_per_s,
        rss_mb=_rss_mb(),
        walls=walls,
        digest=digest,
        # Wall time, not events/s: a change that removes events must
        # read as the speedup it is.
        speedup=scenario.baseline.wall_s / wall_s if wall_s > 0 else 0.0,
    )


def run_trace_overhead(scenario: BenchScenario,
                       repeats: int = 3) -> Dict[str, Any]:
    """Throughput with tracing off vs on (all topics, streamed to disk).

    Runs the scenario ``repeats`` timed passes untraced and again under
    an active capture (full topic set, artifacts streamed to a
    throwaway directory), auditing the payload digest on both sides —
    tracing that *changes results* is a correctness bug, not overhead.
    Returns the measured numbers; ``traced_ratio`` is traced events/s
    over untraced events/s (1.0 = free, 0.5 = tracing halved
    throughput).
    """
    import tempfile

    from ..obs import capture

    if capture.config_from_env() is not None:
        raise BenchError(
            f"{scenario.name}: capture is already enabled; the overhead "
            "probe needs an untraced baseline (unset REPRO_TRACE_OUT)"
        )

    def timed_walls() -> List[float]:
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for spec in scenario.make_specs():
                execute_spec(spec)
            walls.append(time.perf_counter() - t0)
        return walls

    for _ in range(scenario.warmup):
        _run_once(scenario)
    plain_wall = _median(timed_walls())
    start_event_census()
    plain_digest = bench_payload_digest(_run_once(scenario))
    events = finish_event_census()
    if plain_digest != scenario.expected_digest:
        raise BenchError(
            f"{scenario.name}: untraced payload digest drifted\n"
            f"  expected {scenario.expected_digest}\n"
            f"  got      {plain_digest}"
        )

    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        capture.enable(tmp)
        try:
            traced_wall = _median(timed_walls())
            traced_digest = bench_payload_digest(_run_once(scenario))
        finally:
            capture.disable()
    if traced_digest != scenario.expected_digest:
        raise BenchError(
            f"{scenario.name}: tracing changed the payloads\n"
            f"  expected {scenario.expected_digest}\n"
            f"  got      {traced_digest}\n"
            "Capture must be a pure side channel; a traced run that "
            "produces different results breaks the bit-identity contract."
        )

    untraced_eps = events / plain_wall if plain_wall > 0 else 0.0
    traced_eps = events / traced_wall if traced_wall > 0 else 0.0
    return {
        "scenario": scenario.name,
        "events": events,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "untraced_events_per_s": untraced_eps,
        "traced_events_per_s": traced_eps,
        "traced_ratio": traced_eps / untraced_eps if untraced_eps else 0.0,
    }


# -- output ---------------------------------------------------------------------------


def _repo_root() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if out:
            return out
    except (OSError, subprocess.CalledProcessError):
        pass
    return os.getcwd()


def _rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if out:
            return out
    except (OSError, subprocess.CalledProcessError):
        pass
    return "worktree"


def write_bench_file(timings: List[ScenarioTiming], mode: str,
                     out: Optional[str] = None) -> str:
    """Write ``BENCH_<rev>.json``; returns the path written."""
    from .. import __version__

    if out is None:
        out = os.path.join(_repo_root(), f"BENCH_{_rev()}.json")
    doc = {
        "rev": _rev(),
        "version": __version__,
        "mode": mode,
        "baseline_rev": BASELINE_REV,
        "scenarios": {
            t.name: t.to_json(SCENARIOS[t.name]) for t in timings
        },
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out


def _profile_scenario(scenario: BenchScenario, lines: int = 30) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    _run_once(scenario)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(lines)


# -- CLI ------------------------------------------------------------------------------


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the canonical scenarios and write BENCH_<rev>.json "
        "(golden payload digests are enforced: a timing run whose results "
        "drift fails).",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help=f"subset to run (default: all; quick mode skips heavy ones); "
        f"known: {', '.join(sorted(SCENARIOS))}",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced repeats and no heavy scenarios (for PR CI)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="override the per-scenario repeat count",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON here instead of BENCH_<rev>.json at the "
        "repo root",
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        metavar="RATIO",
        help=f"fail unless the {GATE_SCENARIO} scenario's speedup (its "
        "recorded baseline wall time over the measured one) is at least "
        "RATIO (machine-dependent; only meaningful where the baseline "
        "was measured)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="SCENARIO",
        help="run one scenario under cProfile and print the cumulative-"
        "time table instead of benchmarking",
    )
    parser.add_argument(
        "--trace-overhead",
        type=float,
        default=None,
        metavar="RATIO",
        help=f"instead of benchmarking, measure tracing overhead on the "
        f"selected scenarios (default {GATE_SCENARIO}): fail unless "
        "traced events/s stays at least RATIO x untraced (payload "
        "digests are audited on both sides)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_bench_parser().parse_args(argv)

    if args.profile is not None:
        scenario = SCENARIOS.get(args.profile)
        if scenario is None:
            print(f"repro bench: unknown scenario {args.profile!r} "
                  f"(known: {', '.join(sorted(SCENARIOS))})",
                  file=sys.stderr)
            return 2
        _profile_scenario(scenario)
        return 0

    if args.trace_overhead is not None:
        names = args.scenarios or [GATE_SCENARIO]
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            print(f"repro bench: unknown scenario(s) {', '.join(unknown)} "
                  f"(known: {', '.join(sorted(SCENARIOS))})", file=sys.stderr)
            return 2
        ok = True
        for name in names:
            print(f"  trace-overhead {name}...", file=sys.stderr)
            try:
                probe = run_trace_overhead(SCENARIOS[name])
            except BenchError as exc:
                print(f"repro bench: FAIL: {exc}", file=sys.stderr)
                return 1
            print(
                f"    untraced {probe['untraced_events_per_s']:>9.0f} ev/s  "
                f"traced {probe['traced_events_per_s']:>9.0f} ev/s  "
                f"ratio x{probe['traced_ratio']:.2f}",
                file=sys.stderr,
            )
            if probe["traced_ratio"] < args.trace_overhead:
                print(
                    f"repro bench: FAIL: {name} traced throughput at "
                    f"x{probe['traced_ratio']:.2f} of untraced, below the "
                    f"x{args.trace_overhead:.2f} bound",
                    file=sys.stderr,
                )
                ok = False
        if ok:
            print(f"repro bench: trace overhead ok "
                  f"(bound x{args.trace_overhead:.2f})", file=sys.stderr)
        return 0 if ok else 1

    names = args.scenarios or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"repro bench: unknown scenario(s) {', '.join(unknown)} "
              f"(known: {', '.join(sorted(SCENARIOS))})", file=sys.stderr)
        return 2
    selected = [SCENARIOS[n] for n in names]
    if args.quick and not args.scenarios:
        selected = [s for s in selected if s.in_quick]

    timings: List[ScenarioTiming] = []
    for scenario in selected:
        print(f"  bench {scenario.name}...", file=sys.stderr)
        try:
            timing = run_scenario(scenario, repeats=args.repeats,
                                  quick=args.quick)
        except BenchError as exc:
            print(f"repro bench: FAIL: {exc}", file=sys.stderr)
            return 1
        timings.append(timing)
        print(
            f"    {timing.wall_s:8.3f}s  {timing.events:>8d} events  "
            f"{timing.events_per_s:>9.0f} ev/s  "
            f"x{timing.speedup:.2f} vs baseline",
            file=sys.stderr,
        )

    path = write_bench_file(timings, mode="quick" if args.quick else "full",
                            out=args.out)
    print(path)

    if args.gate is not None:
        gate = next((t for t in timings if t.name == GATE_SCENARIO), None)
        if gate is None:
            print(f"repro bench: --gate needs the {GATE_SCENARIO} scenario "
                  "in the selection", file=sys.stderr)
            return 2
        if gate.speedup < args.gate:
            print(
                f"repro bench: FAIL: {GATE_SCENARIO} at "
                f"x{gate.speedup:.2f} vs baseline, below the "
                f"x{args.gate:.2f} gate",
                file=sys.stderr,
            )
            return 1
        print(f"repro bench: gate ok ({GATE_SCENARIO} "
              f"x{gate.speedup:.2f} >= x{args.gate:.2f})", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - module runner
    sys.exit(main())
