"""The parent process: rounds of pinned children, the report, the CLI.

Timing loop.  One client, one run at a time, ``jobs=1``: every
measurement happens in a fresh child interpreter pinned to one CPU.  A
run makes ``ROUNDS`` rounds; in each, every selected workload (in an
order rotated by the round number, so a slow host phase is spread over
all of them) gets ``SETUP_STARTS`` set-up-only children and one round
child that samples for ``seconds / ROUNDS`` seconds.  The profiled pass,
when asked for, runs after the rounds in one more child per workload.

End-to-end metrics, measured with profiling off and scaled to a
reference core speed (see :mod:`perfbench.speed`):

* ``wall_s`` -- median seconds per sample;
* ``setup_s`` -- median seconds to import ``repro`` and its CLI and
  build the workload's specs, over every child the run started;
* ``peak_rss_mb`` -- median over rounds of the round child's own
  ``ru_maxrss`` after set-up and one sample;
* ``error_rate`` -- samples that raised or whose payload digest differs
  from the golden one (seed 0) or from the run's first sample (any other
  seed), over samples attempted.  It is 0 in a correct run, so the
  JSON result line carries it as ``failed``/``attempted``.

Each is reported with n, median, q1, q3, min and max.  No tail
percentile: with under 20 samples none has ten samples beyond it.  The
BENCH file also carries ``host_wall_s`` and ``host_setup_s``, the same
samples in plain host seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import layers, stats

#: The checkout this file lives in.
ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Run artifacts (BENCH file, spans, scratch); ignored by git.
OUT_DIR = ROOT / ".perfbench"

ROUNDS = 5
#: Set-up-only children per workload per round: with the round child,
#: 3 set-up samples per round, so 15 per run.
SETUP_STARTS = 2
#: Timed samples a round child takes even when one overruns its budget.
MIN_SAMPLES = 2
#: Host seconds a run may take per workload measured (and for the
#: audit); a child still running at the deadline is killed and the run
#: fails.
TIME_LIMIT_S = 170

#: Not in BENCHMARK.json (a metric there must never read 0); the JSON
#: result line carries it as ``failed``/``attempted``.  Compared exactly.
ERROR_RATE = {"name": "error_rate", "unit": "ratio", "better": "lower",
              "bound": 0.0}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "error_rate": "ratio", "host_wall_s": "s", "host_setup_s": "s"}


class BenchFailure(RuntimeError):
    """A measurement child crashed or printed no result."""


# -- running children ---------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # Bytecode is always cached, under .perfbench/: set-up time then
    # measures imports as users see them, whether or not the caller's
    # environment lets Python write bytecode next to the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(task: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one ``perfbench.child`` task, killed at ``deadline`` (a
    ``time.monotonic`` reading); returns its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.child", json.dumps(task)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(0.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchFailure(
            f"{task['mode']} child for {task.get('workload')} ran past the "
            f"run's time limit"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchFailure(
            f"{task['mode']} child for {task.get('workload')} exited "
            f"{proc.returncode}"
        )
    return json.loads(lines[-1])


def pick_cpu() -> int:
    """The CPU every child is pinned to (the last one this process may use)."""
    return max(os.sched_getaffinity(0))


@dataclass
class WorkloadRun:
    """Everything measured for one workload in one run."""

    name: str
    setup_s: List[float] = field(default_factory=list)
    host_setup_s: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    host_walls: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    digests: List[Optional[str]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    golden: str = ""
    profile: Optional[Dict[str, Any]] = None

    def absorb(self, result: Dict[str, Any]) -> None:
        self.digests.extend(result["digests"])
        self.errors.extend(result["errors"])
        self.golden = result["golden"]

    def expected_digest(self, seed: int) -> Optional[str]:
        """Golden at seed 0, else the first sample's digest."""
        if seed == 0 and self.golden:
            return self.golden
        return next((d for d in self.digests if d is not None), None)

    def failures(self, seed: int) -> int:
        expected = self.expected_digest(seed)
        return sum(1 for d in self.digests if d is None or d != expected)

    def end_to_end(self, seed: int) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for name, values in (("wall_s", self.walls),
                             ("setup_s", self.setup_s),
                             ("peak_rss_mb", self.rss_mb),
                             ("host_wall_s", self.host_walls),
                             ("host_setup_s", self.host_setup_s)):
            if values:
                out[name] = {"unit": E2E_UNITS[name], **stats.summarize(values)}
        attempted, failed = len(self.digests), self.failures(seed)
        rate = failed / attempted if attempted else 1.0
        out["error_rate"] = {"unit": "ratio", **stats.summarize([rate]),
                             "attempted": attempted, "failed": failed}
        return out

    def per_layer(self) -> Dict[str, float]:
        if self.profile is None or not self.walls:
            return {}
        return layers.per_layer_metrics(
            self.profile["self_s"], self.profile["counts"],
            self.profile["profiled_wall_s"], stats.median(self.walls),
        )


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def measure(names: List[str], seed: int, seconds: float, rounds: int,
            min_samples: int, profile: bool) -> Dict[str, WorkloadRun]:
    """The timing loop (see the module docstring), then the profiled pass."""
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    base = {"seed": seed, "cpu": pick_cpu(), "scratch": str(OUT_DIR / "tmp")}
    runs = {name: WorkloadRun(name) for name in names}
    # Discarded: the first interpreter in a fresh checkout compiles
    # bytecode, which no later start pays.
    run_child({**base, "mode": "setup", "workload": names[0]}, deadline)
    for r in range(rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            log(f"round {r + 1}/{rounds} {name}")
            task = {**base, "workload": name}
            run = runs[name]
            starts = [run_child({**task, "mode": "setup"}, deadline)
                      for _ in range(SETUP_STARTS)]
            result = run_child({**task, "mode": "round",
                                "budget_s": seconds / rounds,
                                "min_samples": min_samples}, deadline)
            for start in starts + [result]:
                run.setup_s.append(start["setup_s"])
                run.host_setup_s.append(start["host_setup_s"])
            run.walls.extend(result["walls"])
            run.host_walls.extend(result["host_walls"])
            run.rss_mb.append(result["peak_rss_mb"])
            run.absorb(result)
    if profile:
        for name in names:
            log(f"profiled pass {name}")
            result = run_child({**base, "workload": name, "mode": "profile"},
                               deadline)
            runs[name].profile = result
            runs[name].absorb(result)
    return runs


def audit(seed: int) -> Dict[str, Dict[str, Any]]:
    """Every ``repro.bench`` scenario once, untimed, against its digest."""
    log("audit of the repro.bench scenarios")
    result = run_child({"mode": "audit", "seed": seed, "cpu": pick_cpu(),
                        "scratch": str(OUT_DIR / "tmp")},
                       time.monotonic() + TIME_LIMIT_S)
    return {
        name: {**entry, "ok": entry["digest"] == entry["golden"]}
        for name, entry in result["audit"].items()
    }


# -- reporting ----------------------------------------------------------------------------


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def current_rev() -> str:
    # Only ask git inside a git checkout: elsewhere it would search the
    # parent directories.
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            if out:
                return out
        except (OSError, subprocess.SubprocessError):
            pass
    return "worktree"


def bench_doc(runs: Dict[str, WorkloadRun], seed: int, mode: str,
              seconds: float, rounds: int,
              audit_result: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``BENCH_<rev>.json`` document."""
    workloads = {}
    for name, run in runs.items():
        per_layer = run.per_layer()
        workloads[name] = {
            "digest": run.expected_digest(seed),
            "golden_checked": seed == 0 and bool(run.golden),
            "errors": run.errors,
            "end_to_end": run.end_to_end(seed),
            "per_layer": {
                metric: {"value": value, "unit": layers.METRIC_UNITS[metric]}
                for metric, value in per_layer.items()
            },
        }
    return {
        "schema": "perfbench/1",
        "rev": current_rev(),
        "seed": seed,
        "mode": mode,
        "seconds": seconds,
        "rounds": rounds,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": workloads,
        "audit": audit_result,
    }


def render(doc: Dict[str, Any]) -> List[str]:
    """The human-readable tables for a BENCH document."""
    lines = [f"{'workload':<14} {'metric':<12} {'unit':<6} {'n':>3} "
             f"{'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11}"]
    for name, entry in doc["workloads"].items():
        for metric, m in entry["end_to_end"].items():
            lines.append(
                f"{name:<14} {metric:<12} {m['unit']:<6} {m['n']:>3} "
                + " ".join(f"{m[k]:>11.6g}"
                           for k in ("median", "q1", "q3", "min", "max"))
            )
    layered = [(name, entry["per_layer"])
               for name, entry in doc["workloads"].items() if entry["per_layer"]]
    if layered:
        names = [name for name, _ in layered]
        lines.append("")
        lines.append(f"{'per-layer metric':<28} {'unit':<6} "
                     + " ".join(f"{n:>14}" for n in names))
        for metric in layered[0][1]:
            unit = layered[0][1][metric]["unit"]
            lines.append(
                f"{metric:<28} {unit:<6} "
                + " ".join(f"{pl[metric]['value']:>14.6g}" for _, pl in layered)
            )
    if doc.get("audit"):
        lines.append("")
        for name, entry in doc["audit"].items():
            lines.append(f"audit {name:<18} {'ok' if entry['ok'] else 'DRIFT'}"
                         f"  {entry['digest']}")
    return lines


def result_line(doc: Dict[str, Any], spec: Dict[str, Any], trace: bool,
                correct: bool) -> Dict[str, Any]:
    """The last stdout line of a ``--workload`` run: ``correct``,
    ``attempted``, ``failed`` and the medians of the end-to-end metrics
    (or, with ``--trace 1``, the per-layer metrics) BENCHMARK.json lists."""
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for entry in doc["workloads"].values():
        rate = entry["end_to_end"]["error_rate"]
        attempted += rate["attempted"]
        failed += rate["failed"]
        if trace:
            for m in spec["per_layer"]:
                if m["name"] in entry["per_layer"]:
                    metrics[m["name"]] = entry["per_layer"][m["name"]]
        else:
            for m in spec["end_to_end"]:
                if m["name"] in entry["end_to_end"]:
                    e2e = entry["end_to_end"][m["name"]]
                    metrics[m["name"]] = {"value": e2e["median"],
                                          "unit": e2e["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_json(path: Path, doc: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- --compare ----------------------------------------------------------------------------


def compare(base: Dict[str, Any], new: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Verdict lines for every (metric, workload); ``ok`` is False when
    any metric got worse or a digest differs between same-seed runs."""
    lines = [f"{'workload':<14} {'metric':<12} {'base':>11} {'new':>11} "
             f"{'change':>8} {'bound':>6}  verdict"]
    ok = True
    same_seed = base.get("seed") == new.get("seed")
    metrics = list(spec["end_to_end"]) + [ERROR_RATE]
    for name in [w["name"] for w in spec["workloads"]]:
        b, n = base["workloads"].get(name), new["workloads"].get(name)
        if b is None or n is None:
            lines.append(f"{name:<14} missing from {'base' if b is None else 'new'}")
            continue
        for m in metrics:
            be, ne = b["end_to_end"].get(m["name"]), n["end_to_end"].get(m["name"])
            if be is None or ne is None:
                lines.append(f"{name:<14} {m['name']:<12} missing")
                ok = False
                continue
            label = stats.verdict(be["values"], ne["values"], m["better"],
                                  m["bound"])
            ok = ok and label != "worse"
            change = ((ne["median"] - be["median"]) / be["median"]
                      if be["median"] else 0.0)
            lines.append(f"{name:<14} {m['name']:<12} {be['median']:>11.6g} "
                         f"{ne['median']:>11.6g} {change:>+8.1%} "
                         f"{m['bound']:>6.0%}  {label}")
        if same_seed and b["digest"] != n["digest"]:
            ok = False
            lines.append(f"{name:<14} ERROR digest mismatch: "
                         f"{b['digest']} vs {n['digest']}")
        for metric, entry in n["per_layer"].items():
            old = b["per_layer"].get(metric)
            if (entry["unit"] == "count" and old is not None
                    and old["value"] != entry["value"]):
                lines.append(f"{name:<14} {metric} changed: "
                             f"{old['value']} -> {entry['value']}")
    if not same_seed:
        lines.append(f"seeds differ ({base.get('seed')} vs {new.get('seed')}): "
                     "digests not compared")
    return lines, ok


# -- --list -------------------------------------------------------------------------------


def describe(spec: Dict[str, Any]) -> List[str]:
    lines = ["workloads:"]
    for w in spec["workloads"]:
        lines.append(f"  {w['name']:<14} {w['why']}")
    lines.append("end-to-end metrics (profiling off; n, median, q1, q3, min, max):")
    for m in list(spec["end_to_end"]) + [ERROR_RATE]:
        bound = (f"+{m['bound']:.0%}" if m["bound"]
                 else "+0 absolute; the JSON result line carries it as failed/attempted")
        lines.append(f"  {m['name']:<14} {m['unit']:<6} {m['better']:<6} "
                     f"bound {bound}")
    lines.append("per-layer metrics (one profiled sample; no bound) and the "
                 "end-to-end metric each should move:")
    for m in spec["per_layer"]:
        lines.append(f"  {m['name']:<28} {m['unit']:<6} {m['better']:<6} "
                     f"{layers.predicted_effect(m['name'])}")
    return lines


# -- CLI ----------------------------------------------------------------------------------


def build_parser(spec: Dict[str, Any]) -> argparse.ArgumentParser:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Time the repro simulator's workloads in pinned child "
        "processes, check every payload digest, and report end-to-end and "
        "per-layer metrics (BENCHMARK.json names them).",
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="measure one workload and end with the JSON "
                        "result line (default: all workloads, the repro.bench "
                        "digest audit, and a BENCH file)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every run spec (golden digests are "
                        "pinned for 0; default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="sampling seconds per workload per run "
                        f"(default {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: run the profiled pass and report per-layer "
                        "metrics on the JSON line; 0: skip it (default: "
                        "profile unless --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="1 round, 1 timed sample, no profile, no audit")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the BENCH file (default "
                        ".perfbench/BENCH_<rev>.json); the spans of the "
                        "profiled pass go beside it as <name>.spans.json")
    parser.add_argument("--compare", type=Path, nargs="+", metavar="BENCH",
                        default=None,
                        help="BASE [NEW]: print better/within/worse/unresolved "
                        "per (metric, workload) against BASE, using the "
                        "bounds in BENCHMARK.json; with NEW, compare the two "
                        "files without running")
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and metrics and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = build_parser(spec).parse_args(argv)
    if args.list:
        print("\n".join(describe(spec)))
        return 0
    if args.compare is not None and len(args.compare) > 2:
        log("--compare takes BASE [NEW]")
        return 2
    if args.compare is not None and len(args.compare) == 2:
        base, new = (json.loads(p.read_text(encoding="utf-8"))
                     for p in args.compare)
        lines, ok = compare(base, new, spec)
        print("\n".join(lines))
        return 0 if ok else 1
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro package under {ROOT / 'src'}; nothing to measure")
        return 2

    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    rounds, min_samples = (1, 1) if args.quick else (ROUNDS, MIN_SAMPLES)
    if args.quick:
        seconds = 0.0
    profile = args.trace == 1 if args.trace is not None else not args.quick
    full = args.workload is None and not args.quick
    try:
        runs = measure(names, args.seed, seconds, rounds, min_samples, profile)
        audit_result = audit(args.seed) if full else None
    except BenchFailure as exc:
        log(f"FAIL: {exc}")
        return 1

    mode = "quick" if args.quick else ("full" if full else "workload")
    doc = bench_doc(runs, args.seed, mode, seconds, rounds, audit_result)
    correct = all(run.failures(args.seed) == 0 for run in runs.values())
    if audit_result is not None:
        correct = correct and all(e["ok"] for e in audit_result.values())
    print("\n".join(render(doc)))

    out = args.out or OUT_DIR / (
        f"BENCH_{doc['rev']}.json" if args.workload is None
        else f"BENCH_{doc['rev']}_{args.workload}_seed{args.seed}.json"
    )
    write_json(out, doc)
    if profile:
        spans = {name: run.profile["spans"] for name, run in runs.items()
                 if run.profile is not None}
        write_json(out.with_name(out.stem + ".spans.json"), spans)
    log(f"wrote {out}")

    ok = correct
    if args.compare is not None:
        base = json.loads(args.compare[0].read_text(encoding="utf-8"))
        lines, compared_ok = compare(base, doc, spec)
        print("\n".join(lines))
        ok = ok and compared_ok
    if args.workload is not None:
        print(json.dumps(result_line(doc, spec, args.trace == 1, correct)))
    return 0 if ok else 1
