"""Per-run trace capture, switchable from the CLI across worker processes.

The sweep runner executes :class:`~repro.runner.spec.RunSpec`s in worker
*processes*, so the capture switch travels as environment variables
(``REPRO_TRACE_OUT`` / ``REPRO_TRACE_TOPICS``) that the pool's children
inherit.  When active, :func:`repro.runner.kinds.execute_spec` opens a
:class:`RunCapture` around each simulation: the run's components get a
recording :class:`~repro.sim.tracing.TraceBus`, and its records land in
the capture directory as one file,

    <out>/<kind>-seed<seed>-<key12>.trace.jsonl

(the 12-hex ``key12`` is the run's content-addressed spec-key prefix, so
file names are deterministic and collision-free across a sweep).

Capture is **streaming and memory-bounded**: the bus retains nothing —
each matched record flows to one :class:`~repro.obs.spill.TraceSpiller`
(windowed JSONL appends, at most :data:`~repro.obs.spill.WINDOW` records
in memory).  Metrics are not folded during the run: ``repro report``
replays the trace through :class:`~repro.obs.metrics.TraceMetrics`.
The trace bytes, and the metrics their replay yields, are pinned per
run kind in ``tests/obs/test_capture.py``.

Capture is strictly a side channel: payloads, cache keys, and cached
records are byte-identical with capture on or off — trace publication
costs no simulated time — which is what lets ``--trace-out`` coexist
with the bit-identity guarantees in ``tests/integration``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from ..sim.tracing import TraceBus
from .spill import TraceSpiller
from .topics import matching

__all__ = [
    "ENV_TRACE_OUT",
    "ENV_TRACE_TOPICS",
    "CaptureConfig",
    "check_topics",
    "config_from_env",
    "enable",
    "disable",
    "RunCapture",
    "current_bus",
]

ENV_TRACE_OUT = "REPRO_TRACE_OUT"
ENV_TRACE_TOPICS = "REPRO_TRACE_TOPICS"


def check_topics(topics: Tuple[str, ...]) -> Tuple[str, ...]:
    """Reject a topic selection that would record nothing.

    The tuple must be non-empty, and each pattern (an exact name, a
    ``family.*`` glob or ``*``) must match a registered topic: a typo
    would otherwise trace every run to an empty file.
    """
    if not topics:
        raise ValueError("no trace topics given; '*' records every topic")
    for pattern in topics:
        if not matching(pattern):
            raise ValueError(
                f"trace topic pattern {pattern!r} matches no registered "
                "topic (see repro.obs.topics)"
            )
    return topics


@dataclass(frozen=True)
class CaptureConfig:
    """Where to put per-run trace artifacts and which topics to keep."""

    out_dir: str
    topics: Tuple[str, ...] = ("*",)

    def __post_init__(self) -> None:
        check_topics(self.topics)


def config_from_env() -> Optional[CaptureConfig]:
    """The active capture config, or ``None`` when capture is off.

    Read per call (not cached) so worker processes and tests that flip
    the environment mid-process see the current state.
    """
    out_dir = os.environ.get(ENV_TRACE_OUT)
    if not out_dir:
        return None
    raw_topics = os.environ.get(ENV_TRACE_TOPICS, "*")
    topics = tuple(t.strip() for t in raw_topics.split(",") if t.strip())
    return CaptureConfig(out_dir=out_dir, topics=topics)


def enable(out_dir: os.PathLike | str, topics: Tuple[str, ...] = ("*",)) -> None:
    """Turn capture on process-wide (and for future worker children)."""
    check_topics(topics)
    os.environ[ENV_TRACE_OUT] = str(out_dir)
    os.environ[ENV_TRACE_TOPICS] = ",".join(topics)


def disable() -> None:
    os.environ.pop(ENV_TRACE_OUT, None)
    os.environ.pop(ENV_TRACE_TOPICS, None)


#: The bus of the capture currently wrapping ``execute_spec`` in this
#: process, if any.  Kind functions consult this to thread tracing into
#: the simulations they build.
_current: Optional[TraceBus] = None


def current_bus() -> Optional[TraceBus]:
    return _current


class RunCapture:
    """One run's recording bus and its trace writer.

    ``execute_spec`` wraps the run::

        with RunCapture(cfg, spec):
            return fn(spec.config, spec.seed)

    Records spill to ``<base>.trace.jsonl`` in windows.  Leaving the
    ``with`` closes the file when the run returned and aborts it when
    the run raised, so a failed run leaves no half-written trace.
    """

    def __init__(self, config: CaptureConfig, spec):
        # Imported lazily: repro.runner imports repro.obs.capture at
        # module load (via kinds), so the reverse edge must not run at
        # import time.
        from ..runner.spec import spec_key

        self.bus = TraceBus()
        for topic in config.topics:
            self.bus.record_topic(topic)
        base = f"{spec.kind}-seed{spec.seed}-{spec_key(spec)[:12]}"
        self.trace_path = Path(config.out_dir) / f"{base}.trace.jsonl"
        self._spiller = TraceSpiller(self.trace_path)
        self.bus.add_sink(self._spiller.add)
        self.bus.retain_records = False

    def __enter__(self) -> "RunCapture":
        global _current
        self._previous = _current
        _current = self.bus
        return self

    def __exit__(self, exc_type, *exc) -> None:
        global _current
        _current = self._previous
        if exc_type is None:
            self._spiller.close()
        else:
            self._spiller.abort()
