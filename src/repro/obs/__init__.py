"""repro.obs — the observability layer over the trace bus.

* :mod:`repro.obs.metrics` — deterministic simulation-time counters,
  gauges, and fixed-bucket histograms, folded from trace records;
* :mod:`repro.obs.export` — the canonical JSONL record encoding and
  Chrome trace-event exports viewable in Perfetto;
* :mod:`repro.obs.capture` — the per-run capture switch the CLI's
  ``--trace-out`` flips, propagated to worker processes via the
  environment; a traced run writes one ``.trace.jsonl``;
* :mod:`repro.obs.report` — the ``repro report`` renderer, and the one
  place a capture's metrics are computed (by replaying its trace);
* :mod:`repro.obs.spans` — causal span reconstruction, critical-path
  extraction, and blame attribution over captured trace records;
* :mod:`repro.obs.spill` — the windowed, memory-bounded JSONL writer,
  the only one;
* :mod:`repro.obs.topics` — the machine-readable trace-topic registry
  (the single source of truth ``repro lint``'s TRACE001 rule enforces).

Everything is off by default and payload-neutral: enabling capture
never changes simulation results, cache keys, or cached records.
"""

from .capture import CaptureConfig, RunCapture, config_from_env, current_bus
from .export import (
    load_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceMetrics,
)
from .report import (
    EmptyTraceError,
    MissingTraceError,
    ReportError,
    render_report,
    report_json,
    report_path,
)
from .spans import (
    Segment,
    Span,
    assign_records,
    blame_summary,
    build_span_tree,
    critical_path,
    write_span_trace,
)
from .spill import TraceSpiller
from .topics import REGISTERED_TOPICS, TOPIC_NAMES, TOPICS, TopicSpec, span_hint

__all__ = [
    "CaptureConfig",
    "Counter",
    "EmptyTraceError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MissingTraceError",
    "REGISTERED_TOPICS",
    "ReportError",
    "RunCapture",
    "Segment",
    "Span",
    "TOPICS",
    "TOPIC_NAMES",
    "TopicSpec",
    "TraceMetrics",
    "TraceSpiller",
    "assign_records",
    "blame_summary",
    "build_span_tree",
    "config_from_env",
    "critical_path",
    "current_bus",
    "load_jsonl",
    "render_report",
    "report_json",
    "report_path",
    "span_hint",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
