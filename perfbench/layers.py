"""Per-layer numbers, measured from outside the program.

Three sources, none of which changes a line of ``repro``:

* **Self time by layer.**  A cProfile pass gives each function's
  ``tottime``.  A function in ``repro.<pkg>`` charges its layer.  Time in
  stdlib, builtin and numpy frames is charged to the nearest calling
  ``repro`` layer along the pstats caller edges, split by the time each
  edge carried; time with no ``repro`` caller at all goes to ``ext``.
  Every profiled second lands in exactly one layer.
* **Exact counts.**  ``ncalls`` of plain (non-generator) functions, the
  kernel's event census, and the payloads themselves.
* **Spans.**  Wrappers around public entry points record (name, id,
  parent, start, end) in memory.

Layers are the packages.  The few ``repro`` modules that are not a layer
of their own fold into the layer whose work they do (:data:`FOLDS`).
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "COUNTED_CALLS",
    "LAYERS",
    "METRIC_UNITS",
    "SpanRecorder",
    "call_counts",
    "layer_of",
    "payload_counts",
    "per_layer_metrics",
    "predicted_effect",
    "rollup",
    "span_times",
]

#: Every layer, in report order.  ``ext`` holds time with no repro caller.
LAYERS = ("sim", "iosched", "disk", "virt", "net", "hdfs", "mapreduce",
          "ctrl", "faults", "obs", "runner", "ext")

#: ``repro`` modules (paths relative to the package) that are not a layer
#: of their own, mapped to the layer they serve.  Longest prefix wins.
FOLDS = {
    # The trace bus: its cost is tracing, whichever package hosts it.
    "sim/tracing.py": "obs",
    # Phase plans, Algorithm 1 and switch costs: pair control.
    "core/": "ctrl",
    # Job profiles, arrival streams and load generators feed the jobs.
    "workloads/": "mapreduce",
    # Percentile and timeline summaries of results.
    "metrics/": "obs",
    # Entry points and assembly above the runner.
    "api.py": "runner",
    "cli.py": "runner",
    "__init__.py": "runner",
    "__main__.py": "runner",
    "bench/": "runner",
    "experiments/": "runner",
    "analysis/": "runner",
}


_FOLDS_LONGEST_FIRST = sorted(FOLDS, key=len, reverse=True)


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a function defined in ``filename``, or ``None`` when
    the file is not part of the ``repro`` package at ``package_dir``."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):].replace(os.sep, "/")
    for fold in _FOLDS_LONGEST_FIRST:
        if rel.startswith(fold):
            return FOLDS[fold]
    head = rel.split("/", 1)[0]
    if head in LAYERS:
        return head
    raise ValueError(f"{rel}: repro module with no layer; add it to FOLDS")


# -- self time ---------------------------------------------------------------------------

#: pstats function key: (filename, line, function name).
Func = Tuple[str, int, str]
#: Indices of self time and cumulative time in a pstats caller edge.
_EDGE_TT, _EDGE_CT = 2, 3


def rollup(stats: Dict[Func, tuple],
           layer: Callable[[str], Optional[str]]) -> Dict[str, float]:
    """Profiled self seconds per layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers: caller -> (nc, cc, tt, ct)``.  ``layer``
    maps a filename to its layer, ``None`` outside ``repro``.

    A non-repro function's self time is split over its callers by the
    self time each caller edge carried; a non-repro caller passes its
    share on to its own callers by the cumulative time of their edges.
    Recursion among non-repro frames is resolved at the cycle's entry
    edges.  The result sums to the total ``tottime`` of ``stats``.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    memo: Dict[Func, Dict[str, float]] = {}

    def mix(edges: List[Tuple[float, Dict[str, float]]]) -> Dict[str, float]:
        weight = sum(w for w, _ in edges)
        if weight <= 0:
            # Edges too short for the timer: fall back to equal weights.
            edges = [(1.0, dist) for _, dist in edges]
            weight = float(len(edges))
        out: Dict[str, float] = {}
        for w, dist in edges:
            for name, share in dist.items():
                out[name] = out.get(name, 0.0) + w / weight * share
        return out

    def origin(func: Func, path: frozenset,
               weight_index: int) -> Tuple[Optional[Dict[str, float]], bool]:
        """Layers on whose behalf ``func`` ran, and whether the answer
        is complete (no caller was skipped for closing a cycle)."""
        own = layer(func[0])
        if own is not None:
            return {own: 1.0}, True
        if weight_index == _EDGE_CT and func in memo:
            return memo[func], True
        callers = stats[func][4] if func in stats else {}
        if not callers:
            return {"ext": 1.0}, True
        edges = []
        complete = True
        for caller, edge in callers.items():
            if caller == func or caller in path:
                complete = False
                continue
            dist, done = origin(caller, path | {func}, _EDGE_CT)
            complete = complete and done
            if dist is not None:
                edges.append((edge[weight_index], dist))
        if not edges:
            # Every caller closes a cycle: the cycle's entry decides.
            return None, complete
        dist = mix(edges)
        if weight_index == _EDGE_CT and complete:
            memo[func] = dist
        return dist, complete

    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt == 0:
            continue
        # Split this function's own time by the self time per caller edge.
        dist, _ = origin(func, frozenset(), _EDGE_TT)
        if dist is None:
            dist = {"ext": 1.0}
        for name, share in dist.items():
            totals[name] += tt * share
    return totals


# -- exact counts --------------------------------------------------------------------------

#: metric -> (module path relative to the package, function name).  All
#: plain functions, so ncalls counts calls, not generator resumptions.
COUNTED_CALLS = {
    "sim.processes": ("sim/process.py", "__init__"),
    "iosched.add_request": ("iosched/base.py", "add_request"),
    "iosched.next_request": ("iosched/base.py", "next_request"),
    "disk.submits": ("disk/device.py", "submit"),
    "disk.hdd_services": ("disk/model.py", "service"),
    "disk.ssd_programs": ("disk/ssd.py", "_program"),
    "net.flows": ("net/flow.py", "transfer"),
    "net.solves": ("net/flow.py", "_reallocate_and_schedule"),
    "obs.publishes": ("sim/tracing.py", "publish"),
}


def call_counts(stats: Dict[Func, tuple], package_dir: str) -> Dict[str, int]:
    """Exact call counts of :data:`COUNTED_CALLS` from profiler stats."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    wanted = {
        (prefix + path.replace("/", os.sep), name): metric
        for metric, (path, name) in COUNTED_CALLS.items()
    }
    counts = dict.fromkeys(COUNTED_CALLS, 0)
    for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.items():
        metric = wanted.get((filename, name))
        if metric is not None:
            counts[metric] += nc
    return counts


def _duration(payload: Dict[str, Any]) -> float:
    if "makespan" in payload:
        return payload["makespan"]
    phases = payload["phases"]
    return phases["end"] - phases["start"]


def payload_counts(payloads: List[Dict[str, Any]]) -> Dict[str, float]:
    """Counts the payloads carry: retries, switches, write amplification
    and the simulated seconds of every run."""
    retries = switches = programs = host_pages = 0
    for payload in payloads:
        faults = payload.get("faults", {})
        retries += faults.get("map_retries", 0) + faults.get("reduce_retries", 0)
        switches += payload.get("ctrl", {}).get("n_switches", 0)
        for device in payload.get("storage", {}).values():
            programs += device.get("nand_programs", 0)
            host_pages += device.get("host_pages", 0)
    return {
        "mapreduce.retries": retries,
        "ctrl.switches": switches,
        # 0 when no flash device wrote a page.
        "disk.write_amp": programs / host_pages if host_pages else 0.0,
        "model.job_s": sum(_duration(p) for p in payloads),
    }


# -- spans ---------------------------------------------------------------------------------


class SpanRecorder:
    """Spans around public entry points, kept in memory.

    ``install`` wraps each ``(owner, attribute)`` target for the duration
    of a ``with`` block; a span's parent is the innermost wrapped call
    that was open when it started.  Times are seconds since the recorder
    was created.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = {"name": name, "id": span_id, "parent": parent,
                    "start": time.perf_counter() - self._t0, "end": None}
            self.spans.append(span)
            self._open.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = time.perf_counter() - self._t0

        return wrapper

    @contextmanager
    def install(self, targets: List[Tuple[Any, str, str]]) -> Iterator[None]:
        """Wrap ``(owner, attribute, span name)`` targets; restore on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def span_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """``run.simulate_s``: seconds inside ``Environment.run``;
    ``run.assemble_s``: the rest of ``execute_spec``."""
    children: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (children.get(span["parent"], 0.0)
                                        + span["end"] - span["start"])
    simulate = assemble = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] == "Environment.run":
            simulate += duration
        elif span["name"] == "execute_spec":
            assemble += duration - children.get(span["id"], 0.0)
    return {"run.simulate_s": simulate, "run.assemble_s": assemble}


# -- the per-layer metric registry ---------------------------------------------------------

#: Every per-layer metric the profiled pass reports, with its unit.
METRIC_UNITS: Dict[str, str] = {
    **{f"{name}.self_s": "s" for name in LAYERS},
    **{f"{name}.self_share": "ratio" for name in LAYERS},
    "sim.events": "count",
    **{metric: "count" for metric in COUNTED_CALLS},
    "disk.write_amp": "ratio",
    "mapreduce.retries": "count",
    "ctrl.switches": "count",
    "obs.trace_bytes": "bytes",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.cache_bytes_written": "bytes",
    "run.simulate_s": "s",
    "run.assemble_s": "s",
    # Simulated seconds, not host time: exact for a given seed.
    "model.job_s": "sim_s",
    "trace.overhead": "ratio",
}


def per_layer_metrics(self_s: Dict[str, float], counts: Dict[str, float],
                      profiled_wall_s: float,
                      median_wall_s: float) -> Dict[str, float]:
    """Every metric of :data:`METRIC_UNITS` from one profiled pass."""
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.self_share"] = self_s[name] / total if total else 0.0
    out.update(counts)
    out["trace.overhead"] = profiled_wall_s / median_wall_s
    missing = set(METRIC_UNITS) - set(out)
    if missing:
        raise KeyError(f"profiled pass lacks {sorted(missing)}")
    return {name: out[name] for name in METRIC_UNITS}


# -- what each layer metric should move ----------------------------------------------------

#: Written down before measuring: which end-to-end metric, on which
#: workload, a change to each per-layer metric should move.  Keys are a
#: full metric name or a layer prefix; the full name wins.
PREDICTIONS = {
    "sim": "wall_s on every workload, most on sort_ssd",
    "iosched": "wall_s on sort_hdd and pair_sweep",
    "disk": "wall_s on sort_ssd (SSD model) and sort_hdd (HDD model); "
            "SSD L2P memory moves peak_rss_mb on sort_ssd",
    "disk.ssd_programs": "wall_s on sort_ssd; no change on sort_hdd",
    "disk.write_amp": "wall_s on sort_ssd; no change on sort_hdd",
    "disk.hdd_services": "wall_s on sort_hdd and pair_sweep",
    "virt": "wall_s on sort_hdd and pair_sweep",
    "net": "wall_s on sort_hdd; no change on sort_ssd",
    "hdfs": "wall_s on sort_hdd and pair_sweep",
    "mapreduce": "wall_s on control_plane",
    "ctrl": "wall_s on control_plane",
    "faults": "wall_s on control_plane",
    "obs": "wall_s and peak_rss_mb on sort_traced; no change untraced",
    "runner": "wall_s on pair_sweep, setup_s everywhere",
    "run.assemble_s": "wall_s on pair_sweep, setup_s everywhere",
    "run.simulate_s": "wall_s on every workload",
    "ext": "wall_s where stdlib work runs outside any repro caller",
    "model.job_s": "none: simulated time; moving it changes the digests",
    "trace.overhead": "none: the profiler's own cost",
}


def predicted_effect(metric: str) -> str:
    if metric in PREDICTIONS:
        return PREDICTIONS[metric]
    return PREDICTIONS.get(metric.split(".", 1)[0], "-")
