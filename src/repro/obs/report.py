"""The ``repro report`` renderer: trace file → tables and a timeline.

Reads the JSONL artifacts written by :mod:`repro.obs.capture` (one file
per simulated run), replays them through :class:`TraceMetrics`, and
prints per-phase durations, per-device I/O metrics, and an ASCII phase
timeline — everything needed to diagnose a run without re-simulating.
Optionally re-exports the records as a Chrome trace for Perfetto.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..metrics.summary import format_table
from ..sim.tracing import TraceRecord
from .export import load_jsonl, write_chrome_trace
from .metrics import TraceMetrics
from .spans import (blame_rows, blame_summary, critical_path,
                    critical_path_rows, write_span_trace)

__all__ = [
    "ReportError",
    "MissingTraceError",
    "EmptyTraceError",
    "trace_files",
    "phase_durations",
    "device_kinds",
    "device_rows",
    "device_dicts",
    "render_timeline",
    "render_report",
    "render_critical_path",
    "report_json",
    "report_path",
    "REPORT_SCHEMA",
]

_LABEL_RE = re.compile(r"\{([^}]*)\}")

#: Version tag stamped on every ``repro report --json`` document.
REPORT_SCHEMA = "repro.report/1"


class ReportError(RuntimeError):
    """Base class for named report failures (the CLI exits 2 on these)."""


class MissingTraceError(ReportError, FileNotFoundError):
    """The report argument names no trace files.

    Also a :class:`FileNotFoundError` so callers that predate the named
    hierarchy keep working.
    """


class EmptyTraceError(ReportError):
    """The named trace files exist but hold zero records."""


def trace_files(path: Path | str) -> List[Path]:
    """The trace files a report argument refers to.

    A file is reported alone; a directory means every ``*.trace.jsonl``
    (or bare ``*.jsonl``) inside it, sorted by name for stable output.
    Raises :class:`MissingTraceError` when nothing matches.
    """
    path = Path(path)
    if path.is_file():
        return [path]
    if path.is_dir():
        found = sorted(path.glob("*.trace.jsonl")) or sorted(path.glob("*.jsonl"))
        if found:
            return found
        raise MissingTraceError(f"no .jsonl trace files in {path}")
    raise MissingTraceError(f"no such trace file or directory: {path}")


def phase_durations(records: Sequence[TraceRecord]) -> Dict[str, Tuple[float, float]]:
    """Phase name → (start, end) in simulated seconds, from job topics."""
    marks: Dict[str, float] = {}
    for record in records:
        if record.topic == "job.start":
            marks.setdefault("start", record.time)
        elif record.topic == "job.maps_done":
            marks["maps_done"] = record.time
        elif record.topic == "job.shuffle_done":
            marks["shuffle_done"] = record.time
        elif record.topic == "job.done":
            marks["end"] = record.time
    phases: Dict[str, Tuple[float, float]] = {}
    start, end = marks.get("start"), marks.get("end")
    if start is None or end is None:
        return phases
    maps_done = marks.get("maps_done", end)
    shuffle_done = marks.get("shuffle_done", end)
    phases["map"] = (start, maps_done)
    phases["shuffle"] = (maps_done, shuffle_done)
    phases["reduce"] = (shuffle_done, end)
    return phases


def _labelled(metrics: Dict[str, Any], prefix: str) -> Dict[str, Any]:
    """``{label-value: metric}`` for keys like ``prefix{device=NAME}``."""
    out: Dict[str, Any] = {}
    for key, value in metrics.items():
        if not key.startswith(prefix + "{"):
            continue
        match = _LABEL_RE.search(key)
        if match:
            label = match.group(1).split("=", 1)[1]
            out[label] = value
    return out


#: Column names for :func:`device_rows`, shared by the text table and
#: the JSON emitter so the two never drift.  ``kind`` sits last so the
#: positional indices of the older columns stay stable.
DEVICE_FIELDS = ("device", "submitted", "completed", "merged", "mb",
                 "max_depth", "mean_latency_ms", "switch_stall_s", "kind")


def device_kinds(records: Sequence[TraceRecord]) -> Dict[str, str]:
    """Device name → backend kind, from ``disk.submit`` records.

    The ``kind`` field (hdd/ssd/vdisk/...) was added to the submit
    payload alongside the storage-backend registry; traces captured
    before that carry no field and fall back to the generic ``"disk"``.
    """
    kinds: Dict[str, str] = {}
    for record in records:
        if record.topic == "disk.submit":
            kinds.setdefault(record.payload["device"],
                             record.payload.get("kind", "disk"))
    return kinds


def device_dicts(snapshot: Dict[str, Any],
                 kinds: Optional[Dict[str, str]] = None) -> List[Dict[str, Any]]:
    """Per-device I/O rows as JSON objects (``repro report --json``)."""
    return [dict(zip(DEVICE_FIELDS, row))
            for row in device_rows(snapshot, kinds)]


def device_rows(snapshot: Dict[str, Any],
                kinds: Optional[Dict[str, str]] = None) -> List[List[Any]]:
    """Per-device I/O table rows from a metrics snapshot."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    submitted = _labelled(counters, "disk.submitted")
    completed = _labelled(counters, "disk.completed")
    merged = _labelled(counters, "disk.merged")
    nbytes = _labelled(counters, "disk.bytes")
    stalls = _labelled(counters, "sched.switch_stall_seconds")
    depth_max = {k: g["max"] for k, g in _labelled(gauges, "disk.queue_depth").items()}
    latency = {k: h.get("mean", 0.0)
               for k, h in _labelled(histograms, "disk.latency").items()}
    kinds = kinds or {}
    rows = []
    for device in sorted(submitted):
        rows.append([
            device,
            int(submitted.get(device, 0)),
            int(completed.get(device, 0)),
            int(merged.get(device, 0)),
            nbytes.get(device, 0.0) / (1024 * 1024),
            int(depth_max.get(device, 0)),
            1000.0 * latency.get(device, 0.0),
            stalls.get(device, 0.0),
            kinds.get(device, "disk"),
        ])
    return rows


def render_timeline(phases: Dict[str, Tuple[float, float]], width: int = 60) -> str:
    """ASCII phase timeline: one bar per phase, aligned to job time."""
    if not phases:
        return "(no job phase records in this trace)"
    t0 = min(start for start, _ in phases.values())
    t1 = max(end for _, end in phases.values())
    span = max(t1 - t0, 1e-9)
    lines = [f"timeline [{t0:.1f}s .. {t1:.1f}s]"]
    for name, (start, end) in phases.items():
        lead = int(round((start - t0) / span * width))
        bar = max(1, int(round((end - start) / span * width)))
        lines.append(
            f"  {name:<8}|{' ' * lead}{'#' * bar}"
            f"{' ' * max(0, width - lead - bar)}| {end - start:.1f}s"
        )
    return "\n".join(lines)


def render_report(records: Sequence[TraceRecord], title: str = "") -> str:
    """The full text report for one run's records."""
    snapshot = TraceMetrics().replay(records).registry.snapshot()
    phases = phase_durations(records)
    parts: List[str] = []
    if title:
        parts.append(f"== {title} ==")
    parts.append(f"{len(records)} trace records")

    if phases:
        parts.append(format_table(
            ["phase", "start s", "end s", "duration s"],
            [[name, start, end, end - start]
             for name, (start, end) in phases.items()],
            title="per-phase durations",
        ))
        parts.append(render_timeline(phases))

    rows = device_rows(snapshot, device_kinds(records))
    if rows:
        parts.append(format_table(
            ["device", "submitted", "completed", "merged", "MB",
             "max depth", "mean lat ms", "switch stall s", "kind"],
            rows,
            title="per-device I/O",
        ))

    counters = snapshot.get("counters", {})
    extras = []
    for key in ("cluster.pair_switches", "sched.switch_stall_seconds_total",
                "job.maps_finished", "job.reduces_finished",
                "task.speculative"):
        if key in counters:
            extras.append([key, counters[key]])
    extras.extend(
        [key, value] for key, value in sorted(counters.items())
        if key.startswith(("faults{", "task.retries{"))
    )
    if extras:
        parts.append(format_table(["metric", "value"], extras, title="counters"))
    return "\n\n".join(parts)


def render_critical_path(records: Sequence[TraceRecord]) -> str:
    """Critical-path and blame tables for one run's records."""
    segments = critical_path(records)
    if not segments:
        return "(no critical path: the trace has no timed records)"
    summary = blame_summary(segments)
    parts = [format_table(
        ["phase", "owner", "kind", "start s", "end s", "dur s", "vm",
         "device", "io wait s", "service s"],
        critical_path_rows(segments),
        title="critical path",
        floatfmt=".3f",
    )]
    parts.append(format_table(
        ["phase", "dur s", "task", "fault", "switch", "idle", "io wait",
         "service"],
        blame_rows(summary),
        title="per-phase blame (critical-path seconds)",
        floatfmt=".3f",
    ))
    culprits = ", ".join(
        f"{o['owner']} ({o['seconds']:.3f}s)" for o in summary["top_owners"]
    )
    parts.append(
        f"critical path: {summary['segments']} segments summing to "
        f"{summary['makespan']:.3f}s"
        + (f"; top owners: {culprits}" if culprits else "")
    )
    return "\n\n".join(parts)


def _segment_dicts(segments) -> List[Dict[str, Any]]:
    return [{
        "phase": seg.phase, "owner": seg.owner, "kind": seg.kind,
        "start": seg.start, "end": seg.end, "duration": seg.duration,
        "vm": seg.vm, "device": seg.device, "io_wait": seg.io_wait,
        "service": seg.service,
    } for seg in segments]


def _each_file(path: Path | str,
               visit: Callable[[Path, List[TraceRecord]], None],
               keep: bool) -> List[TraceRecord]:
    """Call ``visit(file, records)`` for each trace file under ``path``.

    Files are visited in name order and loaded one at a time, so a
    report holds one run's records, not the whole directory's.  Returns
    every file's records, merged, when ``keep`` (the ``--chrome-out``
    and ``--spans-out`` exports need them together), else ``[]``.
    Raises :class:`EmptyTraceError` when no file holds a record.
    """
    merged: List[TraceRecord] = []
    found = False
    for file in trace_files(path):
        records = load_jsonl(file)
        found = found or bool(records)
        visit(file, records)
        if keep:
            merged.extend(records)
        del records  # dropped before the next file loads
    if not found:
        raise EmptyTraceError(
            f"trace files under {path} contain no records "
            "(was the run traced with a too-narrow --trace-topics?)"
        )
    return merged


def _export(records: List[TraceRecord], chrome_out: Optional[Path | str],
            spans_out: Optional[Path | str]) -> List[str]:
    """Write the merged exports asked for; one note per file written."""
    notes = []
    if chrome_out is not None:
        n = write_chrome_trace(records, chrome_out)
        notes.append(f"wrote {n} Chrome trace events to {chrome_out}")
    if spans_out is not None:
        n = write_span_trace(records, spans_out)
        notes.append(f"wrote {n} span trace events to {spans_out}")
    return notes


def report_json(path: Path | str, critical: bool = False,
                chrome_out: Optional[Path | str] = None,
                spans_out: Optional[Path | str] = None) -> Dict[str, Any]:
    """The machine-readable report document (``repro report --json``).

    Schema (``repro.report/1``): ``{"schema", "files": [{"file",
    "records", "phases", "devices", "counters"[, "critical_path"]}]}``
    with phases as ``{name: {start, end, duration}}``, devices as
    :func:`device_dicts` rows, and ``critical_path`` (on request) as
    ``{"segments": [...], "blame": blame_summary}``.  ``chrome_out`` and
    ``spans_out`` write the same merged exports as :func:`report_path`.
    Raises :class:`MissingTraceError`/:class:`EmptyTraceError` instead
    of reporting on nothing.
    """
    doc: Dict[str, Any] = {"schema": REPORT_SCHEMA, "files": []}

    def visit(file: Path, records: List[TraceRecord]) -> None:
        snapshot = TraceMetrics().replay(records).registry.snapshot()
        entry: Dict[str, Any] = {
            "file": file.name,
            "records": len(records),
            "phases": {
                name: {"start": s, "end": e, "duration": e - s}
                for name, (s, e) in phase_durations(records).items()
            },
            "devices": device_dicts(snapshot, device_kinds(records)),
            "counters": snapshot.get("counters", {}),
        }
        if critical:
            segments = critical_path(records)
            entry["critical_path"] = {
                "segments": _segment_dicts(segments),
                "blame": blame_summary(segments),
            }
        doc["files"].append(entry)

    merged = _each_file(path, visit,
                        keep=chrome_out is not None or spans_out is not None)
    _export(merged, chrome_out, spans_out)
    return doc


def report_path(path: Path | str, chrome_out: Optional[Path | str] = None,
                critical: bool = False,
                spans_out: Optional[Path | str] = None) -> str:
    """Report every trace file under ``path``.

    ``critical`` appends the critical-path/blame tables per file;
    ``chrome_out`` writes a merged Chrome trace of all records;
    ``spans_out`` writes the merged span-tree/critical-path Perfetto
    export.  Raises :class:`EmptyTraceError` when the files hold no
    records at all.
    """
    sections: List[str] = []

    def visit(file: Path, records: List[TraceRecord]) -> None:
        sections.append(render_report(records, title=file.name))
        if critical and records:
            sections.append(render_critical_path(records))

    merged = _each_file(path, visit,
                        keep=chrome_out is not None or spans_out is not None)
    sections.extend(_export(merged, chrome_out, spans_out))
    return "\n\n".join(sections)
