"""Per-run trace capture, switchable from the CLI across worker processes.

The sweep runner executes :class:`~repro.runner.spec.RunSpec`s in worker
*processes*, so the capture switch travels as environment variables
(``REPRO_TRACE_OUT`` / ``REPRO_TRACE_TOPICS`` / ``REPRO_TRACE_CAP`` /
``REPRO_TRACE_WINDOW``) that the pool's children inherit.  When active,
:func:`repro.runner.kinds.execute_spec` opens a :class:`RunCapture`
around each simulation: the run's components get a recording
:class:`~repro.sim.tracing.TraceBus`, and the records + a metrics
snapshot land in the capture directory as

    <out>/<kind>-seed<seed>-<key12>.trace.jsonl
    <out>/<kind>-seed<seed>-<key12>.metrics.json

(the 12-hex ``key12`` is the run's content-addressed spec-key prefix, so
file names are deterministic and collision-free across a sweep).

Capture is **streaming and memory-bounded**: the bus retains nothing —
each matched record flows through a :class:`~repro.obs.spill.TraceSpiller`
(windowed JSONL appends, at most ``window`` records in memory) and a
live :class:`~repro.obs.metrics.TraceMetrics` fold.  The artifact bytes
are pinned per run kind in ``tests/obs/test_capture.py``.

Capture is strictly a side channel: payloads, cache keys, and cached
records are byte-identical with capture on or off — trace publication
costs no simulated time — which is what lets ``--trace-out`` coexist
with the bit-identity guarantees in ``tests/integration``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from ..sim.tracing import TraceBus
from .metrics import TraceMetrics
from .spill import DEFAULT_WINDOW, TraceSpiller

__all__ = [
    "ENV_TRACE_OUT",
    "ENV_TRACE_TOPICS",
    "ENV_TRACE_CAP",
    "ENV_TRACE_WINDOW",
    "CaptureConfig",
    "config_from_env",
    "enable",
    "disable",
    "RunCapture",
    "current_bus",
]

ENV_TRACE_OUT = "REPRO_TRACE_OUT"
ENV_TRACE_TOPICS = "REPRO_TRACE_TOPICS"
ENV_TRACE_CAP = "REPRO_TRACE_CAP"
ENV_TRACE_WINDOW = "REPRO_TRACE_WINDOW"


@dataclass(frozen=True)
class CaptureConfig:
    """Where to put per-run trace artifacts and which topics to keep."""

    out_dir: str
    topics: Tuple[str, ...] = ("*",)
    #: Ring-buffer cap on exported records per run (None = unbounded).
    cap: Optional[int] = None
    #: Records held in memory between streaming appends (ignored when
    #: ``cap`` is set — the ring itself is the memory bound then).
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        _check_size("cap", self.cap)
        _check_size("window", self.window)


def _check_size(name: str, value: Optional[int]) -> Optional[int]:
    """Reject a record count every run's spiller would refuse."""
    if value is not None and (not isinstance(value, int) or value < 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"${name} must be an integer, got {raw!r}") from None
    return _check_size(f"${name}", value)


def config_from_env() -> Optional[CaptureConfig]:
    """The active capture config, or ``None`` when capture is off.

    Read per call (not cached) so worker processes and tests that flip
    the environment mid-process see the current state.
    """
    out_dir = os.environ.get(ENV_TRACE_OUT)
    if not out_dir:
        return None
    raw_topics = os.environ.get(ENV_TRACE_TOPICS, "*")
    topics = tuple(t.strip() for t in raw_topics.split(",") if t.strip()) or ("*",)
    return CaptureConfig(
        out_dir=out_dir, topics=topics, cap=_env_int(ENV_TRACE_CAP),
        window=_env_int(ENV_TRACE_WINDOW) or DEFAULT_WINDOW,
    )


def enable(out_dir: os.PathLike | str, topics: Tuple[str, ...] = ("*",),
           cap: Optional[int] = None, window: Optional[int] = None) -> None:
    """Turn capture on process-wide (and for future worker children)."""
    _check_size("cap", cap)
    _check_size("window", window)
    os.environ[ENV_TRACE_OUT] = str(out_dir)
    os.environ[ENV_TRACE_TOPICS] = ",".join(topics)
    if cap is not None:
        os.environ[ENV_TRACE_CAP] = str(cap)
    if window is not None:
        os.environ[ENV_TRACE_WINDOW] = str(window)


def disable() -> None:
    os.environ.pop(ENV_TRACE_OUT, None)
    os.environ.pop(ENV_TRACE_TOPICS, None)
    os.environ.pop(ENV_TRACE_CAP, None)
    os.environ.pop(ENV_TRACE_WINDOW, None)


#: The bus of the capture currently wrapping ``execute_spec`` in this
#: process, if any.  Kind functions consult this to thread tracing into
#: the simulations they build.
_current: Optional[TraceBus] = None


def current_bus() -> Optional[TraceBus]:
    return _current


class RunCapture:
    """One run's recording bus plus the artifact writer.

    Context-manager form keeps ``execute_spec`` tidy::

        with RunCapture(cfg, spec) as cap:
            payload = fn(spec.config, spec.seed)
        cap.finish()

    Records spill to ``<base>.trace.jsonl`` in windows while metrics
    fold live.  A failed run (exception inside the ``with``) aborts the
    streaming writer, leaving no half-written ``.trace.jsonl`` behind.
    """

    def __init__(self, config: CaptureConfig, spec):
        # Imported lazily: repro.runner imports repro.obs.capture at
        # module load (via kinds), so the reverse edge must not run at
        # import time.
        from ..runner.spec import spec_key

        self.bus = TraceBus()
        for topic in config.topics:
            self.bus.record_topic(topic)
        out = Path(config.out_dir)
        base = f"{spec.kind}-seed{spec.seed}-{spec_key(spec)[:12]}"
        self.trace_path = out / f"{base}.trace.jsonl"
        self.metrics_path = out / f"{base}.metrics.json"
        # Both sinks see every record the topic filter keeps, in order:
        # the spiller applies the ring cap itself, the metrics fold is
        # uncapped.
        self._spiller = TraceSpiller(
            self.trace_path, window=config.window, cap=config.cap
        )
        self._metrics = TraceMetrics()
        self.bus.add_sink(self._spiller.add)
        self.bus.add_sink(self._metrics.handle)
        self.bus.retain_records = False

    def __enter__(self) -> "RunCapture":
        global _current
        self._previous = _current
        _current = self.bus
        return self

    def __exit__(self, exc_type, *exc) -> None:
        global _current
        _current = self._previous
        if exc_type is not None:
            self._spiller.abort()

    def finish(self) -> Tuple[Path, Path]:
        """Write the run's trace JSONL and metrics JSON; returns paths."""
        self._spiller.close()
        snapshot = self._metrics.registry.snapshot()
        self.metrics_path.parent.mkdir(parents=True, exist_ok=True)
        self.metrics_path.write_text(
            json.dumps(snapshot, sort_keys=True, indent=1), encoding="utf-8"
        )
        return self.trace_path, self.metrics_path
