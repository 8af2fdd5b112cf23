"""Command-line runner for the paper experiments.

Usage::

    python -m repro table1 --scale 0.25 --seeds 0,1,2
    python -m repro fig7a --jobs 4
    python -m repro all --scale 0.1 --seeds 0 --cache-dir /tmp/repro
    python -m repro fig8 --seeds 0 --trace-out traces/
    python -m repro report traces/ --chrome-out traces/job.chrome.json
    python -m repro run --controller hysteresis --ctrl-cost-budget 0.5
    python -m repro bench --quick
    python -m repro lint --format json

Each experiment prints the table/series of its paper artifact plus its
PASS/FAIL shape checks.  Simulations fan out over ``--jobs`` worker
processes and are memoised in a content-addressed on-disk cache, so
re-running an experiment with the same configuration replays results
without simulating (``--no-cache`` disables the disk cache).

``--trace-out DIR`` (default ``$REPRO_TRACE_OUT``) records every
simulated run's trace to one file, ``DIR/<run>.trace.jsonl``, and
bypasses the result cache so that every run is traced; ``repro report``
replays those traces into metrics — per-phase durations, per-device
I/O, a phase timeline — and can re-export them as a Chrome/Perfetto
trace.

``repro bench`` times the canonical scenarios against their golden
payload digests and writes ``BENCH_<rev>.json`` (see :mod:`repro.bench`).

``repro lint`` statically checks the source tree against the
reproducibility contract — no wall clock or stray RNG in the simulation
path, trace topics registered, cache keys pure (see
:mod:`repro.analysis`).  Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from typing import List, Optional, Set

from .api import DEFAULT_SCALE, validate_scale
from .experiments import EXPERIMENTS
from .faults import PRESETS
from .mapreduce.multijob import JOB_SCHEDULERS
from .obs import capture
from .obs.report import report_path
from .runner import DEFAULT_CACHE_DIR, ProgressRenderer, SweepEvent, SweepRunner

__all__ = ["main"]


def _parse_seed(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _parse_seeds(raw: str) -> tuple:
    seeds = tuple(_parse_seed(s) for s in raw.split(",") if s != "")
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"seed list {raw!r} is empty; give at least one seed, e.g. "
            "--seeds 0 or --seeds 0,1,2"
        )
    return seeds


def _parse_scale(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"scale must be a float, got {raw!r}") from None
    try:
        return validate_scale(value, source="--scale")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_count(raw: str) -> int:
    # argparse prefixes the flag's name ("argument --hosts: ...").
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an int, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_policy(raw: str) -> str:
    from .ctrl import policy_names

    if raw not in policy_names():
        raise argparse.ArgumentTypeError(
            f"unknown controller policy {raw!r}; choose from "
            f"{', '.join(policy_names())}"
        )
    return raw


def _parse_storage(raw: str) -> str:
    from .disk.backend import UnknownStorageError, resolve_storage

    try:
        return resolve_storage(raw)
    except UnknownStorageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_pair(raw: str) -> str:
    from .iosched.registry import SCHEDULER_NAMES
    from .virt.pair import SchedulerPair

    try:
        return SchedulerPair.parse(raw).label
    except ValueError as exc:
        # UnknownSchedulerError subclasses ValueError, so both a bad
        # label ('zz') and a bad long name ('bfq,cfq') land here with
        # the registry's choices instead of a deep KeyError traceback.
        initials = "".join(name[0] for name in SCHEDULER_NAMES)
        raise argparse.ArgumentTypeError(
            f"{exc}; give a two-letter label over [{initials}] "
            f"(e.g. 'ad') or 'vmm,vm' names from {SCHEDULER_NAMES}"
        ) from None


def _parse_plan(raw: str) -> tuple:
    labels = tuple(_parse_pair(part) for part in raw.split(",") if part.strip())
    if not labels:
        raise argparse.ArgumentTypeError(
            f"plan {raw!r} is empty; give one pair label per phase, "
            "e.g. --plan ad,cc"
        )
    return labels


def _parse_cost(raw: str) -> float:
    try:
        value = float(raw)  # accepts 'inf' (= never switch)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a float (or 'inf'), got {raw!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_topics(raw: str) -> tuple:
    topics = tuple(t.strip() for t in raw.split(",") if t.strip())
    try:
        return capture.check_topics(topics)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's tables and figures in simulation.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper table/figure) or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=_parse_scale,
        default=DEFAULT_SCALE,
        help="data-size scale factor in (0, 1] (1.0 = paper-exact sizes; "
        f"default {DEFAULT_SCALE} or $REPRO_SCALE)",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=(0,),
        help="comma-separated seeds to average over (default: 0)",
    )
    parser.add_argument(
        "--jobs",
        type=_parse_count,
        default=None,
        help="simulation worker processes "
        "(default: $REPRO_JOBS or the CPU count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR),
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (in-process memoisation stays on)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress and timing output (tables and checks only)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live single-line sweep progress on stderr (runs done/total, "
        "cache and memo hits, ETA) instead of one line per finished run",
    )
    parser.add_argument(
        "--faults",
        choices=sorted(PRESETS),
        default=None,
        help="fault-injection preset for experiments that support it "
        "(currently fig9-faults; other figures stay fault-free by "
        "construction)",
    )
    parser.add_argument(
        "--arrivals",
        type=_parse_count,
        default=None,
        metavar="N",
        help="number of jobs in the arrival stream, for experiments that "
        "take one (currently fig-multijob; default 4)",
    )
    parser.add_argument(
        "--scheduler",
        choices=sorted(JOB_SCHEDULERS),
        default=None,
        help="restrict multi-job experiments to one job-level scheduler "
        "(default: compare fifo/fair/sjf)",
    )
    parser.add_argument(
        "--tenants",
        type=_parse_count,
        default=None,
        metavar="N",
        help="number of tenants sharing the cluster in multi-job "
        "experiments (default 2)",
    )
    parser.add_argument(
        "--controller",
        type=_parse_policy,
        default=None,
        metavar="POLICY",
        help="restrict controller experiments to one policy "
        "(currently fig-ctrl; default: compare greedy/hysteresis/bandit)",
    )
    parser.add_argument(
        "--storage",
        type=_parse_storage,
        default=None,
        metavar="BACKEND",
        help="storage backend for experiments that take one "
        "(hdd/ssd/hybrid; currently fig-ssd restricts its "
        "comparison; other figures model the paper's SATA spindles)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=os.environ.get(capture.ENV_TRACE_OUT) or None,
        help="record each simulated run's trace to DIR/<run>.trace.jsonl; "
        "implies fresh simulation, as the result cache is bypassed so "
        f"every run actually traces (default: ${capture.ENV_TRACE_OUT}, "
        "else no capture)",
    )
    parser.add_argument(
        "--trace-topics",
        type=_parse_topics,
        # A string default goes through _parse_topics like a flag value.
        default=os.environ.get(capture.ENV_TRACE_TOPICS, "*"),
        metavar="TOPICS",
        help="comma-separated trace topics or globs to record with "
        "--trace-out, e.g. 'disk.*,job.*' "
        f"(default: ${capture.ENV_TRACE_TOPICS} or '*')",
    )
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render a metrics summary and phase timeline from "
        "trace artifacts recorded with --trace-out.",
    )
    parser.add_argument(
        "trace",
        help="a .trace.jsonl file, or a directory of them (reported in "
        "name order)",
    )
    parser.add_argument(
        "--chrome-out",
        metavar="PATH",
        default=None,
        help="also export all records as Chrome trace-event JSON "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="reconstruct the causal span tree and append per-file "
        "critical-path + blame tables (which task/device/VM/fault owned "
        "each second of the makespan)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the schema'd JSON report (repro.report/1) instead of "
        "text tables; combine with --critical-path for span data",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the report (text or --json) to PATH instead of stdout",
    )
    parser.add_argument(
        "--spans-out",
        metavar="PATH",
        default=None,
        help="export the span tree + critical path as Chrome/Perfetto "
        "trace-event JSON (task tracks per VM, critical-path tiles on "
        "their own track)",
    )
    return parser


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run one job under the online adaptive controller "
        "(repro.ctrl) and print what it detected, decided, and switched.",
    )
    parser.add_argument(
        "--workload",
        default="sort",
        help="benchmark name (default: sort)",
    )
    parser.add_argument(
        "--controller",
        type=_parse_policy,
        default=None,
        metavar="POLICY",
        help="controller policy (greedy/hysteresis/bandit); omit to run "
        "the static --initial pair end to end",
    )
    parser.add_argument(
        "--initial",
        type=_parse_pair,
        default=None,
        metavar="PAIR",
        help="pair installed at job start (default: the plan's first "
        "entry, or 'cc' without a plan)",
    )
    parser.add_argument(
        "--plan",
        type=_parse_plan,
        default=None,
        metavar="PAIRS",
        help="per-phase target pairs for greedy/hysteresis, e.g. "
        "'ad,cc' (default: the paper's sort plan, ad then cc)",
    )
    parser.add_argument("--scale", type=_parse_scale, default=DEFAULT_SCALE,
                        help="data-size scale factor in (0, 1] "
                        f"(default {DEFAULT_SCALE} or $REPRO_SCALE)")
    parser.add_argument("--seed", type=_parse_seed, default=0,
                        help="simulation seed (default 0)")
    parser.add_argument("--hosts", type=_parse_count, default=4,
                        help="physical hosts (default 4)")
    parser.add_argument("--vms-per-host", type=_parse_count, default=4,
                        help="VMs per host (default 4)")
    parser.add_argument("--n-phases", type=int, choices=(2, 3), default=2,
                        help="phases the controller divides the job into "
                        "(default 2)")
    parser.add_argument("--faults", choices=sorted(PRESETS), default=None,
                        help="fault-injection preset (default: fault-free)")
    parser.add_argument("--storage", type=_parse_storage, default="hdd",
                        metavar="BACKEND",
                        help="storage backend name (hdd/ssd/hybrid; "
                        "default hdd, the paper's SATA spindle)")
    parser.add_argument("--ctrl-dwell", type=_parse_cost, default=0.0,
                        metavar="SECONDS",
                        help="observation dwell after a detected boundary "
                        "before deciding (default 0)")
    parser.add_argument("--ctrl-cost-factor", type=_parse_cost, default=1.0,
                        metavar="X",
                        help="multiplier on the estimated switch cost "
                        "('inf' = never switch; default 1.0)")
    parser.add_argument("--ctrl-cost-budget", type=_parse_cost, default=5.0,
                        metavar="SECONDS",
                        help="max charged switch cost hysteresis accepts "
                        "(default 5.0)")
    parser.add_argument("--ctrl-epsilon", type=_parse_cost, default=0.1,
                        metavar="EPS",
                        help="bandit exploration rate in [0, 1] (default 0.1)")
    parser.add_argument("--ctrl-arms", type=_parse_plan, default=None,
                        metavar="PAIRS",
                        help="bandit arms as pair labels, e.g. 'ad,cc' "
                        "(default: ad,cc,dd,ac)")
    return parser


def run_controlled(argv: List[str]) -> int:
    args = build_run_parser().parse_args(argv)
    from .api import ControlledScenario
    from .runner.kinds import execute_spec

    plan = args.plan
    if plan is None and args.controller in ("greedy", "hysteresis"):
        # The paper's sort plan: anticipatory/deadline for the map
        # phase, CFQ/CFQ for the tail (Table/Fig. picks).
        plan = ("ad",) + ("cc",) * (args.n_phases - 1)
    initial = args.initial
    if initial is None:
        initial = plan[0] if plan else "cc"
    try:
        scenario = ControlledScenario(
            workload=args.workload,
            scale=args.scale,
            hosts=args.hosts,
            vms_per_host=args.vms_per_host,
            n_phases=args.n_phases,
            controller=args.controller,
            initial=initial,
            phase_pairs=plan or (),
            dwell=args.ctrl_dwell,
            cost_factor=args.ctrl_cost_factor,
            cost_budget=args.ctrl_cost_budget,
            epsilon=args.ctrl_epsilon,
            arms=args.ctrl_arms or (),
            storage=args.storage,
            faults=None if args.faults in (None, "none")
            else PRESETS[args.faults],
        )
    except ValueError as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    payload = execute_spec(scenario.to_spec(args.seed))
    ctrl = payload["ctrl"]
    phases = payload["phases"]
    print(f"workload:   {args.workload} (seed {args.seed}, "
          f"scale {args.scale})")
    print(f"policy:     {ctrl['policy']}")
    print(f"plan:       {' -> '.join(ctrl['plan'])}")
    print(f"duration:   {phases['end'] - phases['start']:.3f}s")
    print(f"switches:   {ctrl['n_switches']} "
          f"(stall {ctrl['switch_stall']:.3f}s)")
    for det in ctrl["detections"]:
        print(f"  detected {det['boundary']} at t={det['time']:.3f}s")
    for dec in ctrl["decisions"]:
        action = (f"switch to {dec['target']}" if dec["target"]
                  else "hold")
        print(f"  phase {dec['phase']}: {action} ({dec['reason']}; "
              f"queue depth {dec['queue_depth']:.0f}, "
              f"est cost {dec['est_cost']:.3f}s)")
    return 0


def _attach_obs_snapshot(result, out_dir: str, files_before: Set[str]) -> None:
    """Fold this experiment's critical-path blame into its result payload.

    Behind the --trace-out flag by construction: without capture the
    payload carries no ``obs`` key at all, keeping rendered output and
    cached run payloads bit-identical to the pre-observability ones.
    Each new trace file's blame summary lands under
    ``obs["critical_path"]``, so fig-ctrl/fig-multijob can render *why*
    a plan won, not just that it did.
    """
    from .obs.export import load_jsonl
    from .obs.spans import blame_summary, critical_path

    try:
        names = set(os.listdir(out_dir))
    except OSError:
        return
    blame = {}
    for name in sorted(names - files_before):
        if not name.endswith(".trace.jsonl"):
            continue
        try:
            records = load_jsonl(os.path.join(out_dir, name))
        except (OSError, ValueError):
            continue
        if records:
            blame[name] = blame_summary(critical_path(records))
    result.data["obs"] = {"critical_path": blame}


def run_one(exp_id: str, sweep: SweepRunner, scale: float, seeds: tuple,
            quiet: bool = False, faults: Optional[str] = None,
            trace_out: Optional[str] = None,
            arrivals: Optional[int] = None, scheduler: Optional[str] = None,
            tenants: Optional[int] = None,
            controller: Optional[str] = None,
            storage: Optional[str] = None) -> bool:
    start = time.time()
    before = sweep.stats.snapshot()
    files_before: Set[str] = set()
    if trace_out is not None and os.path.isdir(trace_out):
        files_before = set(os.listdir(trace_out))
    fn = EXPERIMENTS[exp_id]
    params = inspect.signature(fn).parameters
    kwargs = dict(scale=scale, seeds=seeds, sweep=sweep)
    if faults is not None:
        if "faults" not in params:
            print(
                f"repro: note: {exp_id} does not take faults; "
                "--faults ignored (the figure is fault-free by construction)",
                file=sys.stderr,
            )
        else:
            kwargs["faults"] = faults
    for flag, value in (("arrivals", arrivals), ("scheduler", scheduler),
                        ("tenants", tenants), ("controller", controller),
                        ("storage", storage)):
        if value is None:
            continue
        if flag not in params:
            print(
                f"repro: note: {exp_id} does not take {flag}; "
                f"--{flag} ignored (it runs a single job by construction)",
                file=sys.stderr,
            )
        else:
            kwargs[flag] = value
    result = fn(**kwargs)
    if trace_out is not None:
        _attach_obs_snapshot(result, trace_out, files_before)
    rendered = result.render()
    delta = sweep.stats.since(before)
    print(rendered)
    if not quiet:
        print(f"(elapsed {time.time() - start:.1f}s; {delta.summary()})")
    print()
    return result.all_checks_pass


def run_report(argv: List[str]) -> int:
    args = build_report_parser().parse_args(argv)
    from .obs.report import ReportError, report_json

    try:
        if args.json:
            doc = report_json(args.trace, critical=args.critical_path,
                              chrome_out=args.chrome_out,
                              spans_out=args.spans_out)
            text = json.dumps(doc, sort_keys=True, indent=1)
        else:
            text = report_path(args.trace, chrome_out=args.chrome_out,
                               critical=args.critical_path,
                               spans_out=args.spans_out)
    except (ReportError, FileNotFoundError) as exc:
        # Named errors (MissingTraceError / EmptyTraceError) exit 2
        # instead of surfacing a traceback.
        print(f"repro report: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def _print_finished_run(event: SweepEvent) -> None:
    """The default sweep output: one stderr line per executed run."""
    if event.kind == "run_finished":
        print(f"  ran {event.label} ({event.seconds:.1f}s)", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        return run_report(argv[1:])
    if argv and argv[0] == "run":
        return run_controlled(argv[1:])
    if argv and argv[0] == "bench":
        from .bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    tracing = args.trace_out is not None
    use_cache = not args.no_cache and not tracing
    if tracing and not args.no_cache and not args.quiet:
        print(
            "repro: note: --trace-out bypasses the result cache so every "
            "run is simulated (and traced) fresh",
            file=sys.stderr,
        )
    try:
        sweep = SweepRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                            use_cache=use_cache)
    except ValueError as exc:  # e.g. a garbage $REPRO_JOBS value
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    renderer = None
    if args.progress and not args.quiet:
        renderer = sweep.events = ProgressRenderer(jobs=sweep.jobs)
    elif not args.quiet:
        sweep.events = _print_finished_run

    if tracing:
        os.makedirs(args.trace_out, exist_ok=True)
        capture.enable(args.trace_out, args.trace_topics)
    ok = True
    try:
        with sweep:
            for exp_id in ids:
                ok = run_one(exp_id, sweep, args.scale, args.seeds,
                             quiet=args.quiet, faults=args.faults,
                             trace_out=args.trace_out,
                             arrivals=args.arrivals,
                             scheduler=args.scheduler,
                             tenants=args.tenants,
                             controller=args.controller,
                             storage=args.storage) and ok
            if renderer is not None:
                renderer.close()
            if not args.quiet:
                print(sweep.profile_summary(), file=sys.stderr)
    finally:
        if renderer is not None:
            renderer.close()
        if tracing:
            capture.disable()
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
