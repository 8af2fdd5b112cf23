"""The sweep runner: parallel, memoised execution of :class:`RunSpec`s.

``SweepRunner.run_specs`` takes a declarative run matrix and returns the
result payloads in order, sourcing each one from (in priority order):

1. the in-process memo — a spec never simulates twice in one process;
2. the on-disk cache (unless constructed with ``use_cache=False``);
3. fresh execution — inline when ``jobs == 1``, otherwise fanned out
   over a ``ProcessPoolExecutor`` (worker count from the ``jobs``
   argument, the ``REPRO_JOBS`` environment variable, or
   ``os.cpu_count()``).

Every fresh payload is normalised through a JSON round-trip before it is
memoised, persisted, or returned, so serial, parallel, and cache-hit
executions hand back bit-identical data structures (asserted in
``tests/runner/``).  ``stats`` is the runner's one ledger: batches,
specs, executions, memo and cache hits, and the lookup/execute/busy
seconds.  The CLI prints its counters after every experiment and its
``profile:`` lines after the sweep.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .kinds import execute_spec
from .spec import RunSpec, spec_key
from .telemetry import SweepEvent, describe_spec

__all__ = [
    "SweepRunner",
    "SweepStats",
    "default_jobs",
    "default_runner",
    "set_default_runner",
]


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` or the machine's CPU count."""
    raw = os.environ.get("REPRO_JOBS")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an int, got {raw!r}") from None
        if value < 1:
            raise ValueError(f"REPRO_JOBS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


@dataclass
class SweepStats:
    """One runner's ledger: what its batches ran, served and cost.

    Wall-clock numbers never flow into payloads or cache keys: they are
    printed after a sweep and thrown away.
    """

    #: Simulations actually executed (the expensive number).
    executed: int = 0
    #: Results served from the on-disk cache.
    cache_hits: int = 0
    #: Results served from the in-process memo.
    memo_hits: int = 0
    #: Wall-clock seconds spent inside executed simulations (summed
    #: across workers, so it can exceed elapsed time under parallelism).
    run_seconds: float = 0.0
    #: Simulations executed with the on-disk cache disabled (results
    #: not persisted) — e.g. ``--no-cache`` or the ``--trace-out``
    #: cache bypass.
    bypassed: int = 0
    #: ``run_specs`` calls, and the specs they were given.
    batches: int = 0
    specs: int = 0
    #: Wall seconds resolving memo/disk-cache lookups (the cheap stage).
    lookup_seconds: float = 0.0
    #: Wall seconds inside the execute stage (fan-out inclusive).
    execute_seconds: float = 0.0

    def snapshot(self) -> "SweepStats":
        return replace(self)

    def since(self, other: "SweepStats") -> "SweepStats":
        return SweepStats(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        })

    def summary(self) -> str:
        line = (
            f"simulations executed {self.executed}, "
            f"cache hits {self.cache_hits}, memo hits {self.memo_hits}"
        )
        if self.bypassed:
            line += f", cache bypassed {self.bypassed}"
        return line


def _timed_execute(spec: RunSpec) -> Tuple[str, float]:
    """Worker entry point: run one spec, return (payload JSON, seconds).

    The payload travels as canonical JSON text so the parent decodes
    fresh results exactly the way it decodes cached ones.
    """
    start = time.perf_counter()
    payload = execute_spec(spec)
    text = json.dumps(payload, sort_keys=True)
    return text, time.perf_counter() - start


class SweepRunner:
    """Execute declarative run matrices with memoisation and fan-out."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: os.PathLike | str = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        events: Optional[Callable[[SweepEvent], None]] = None,
    ):
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        #: Live telemetry stream (see :mod:`repro.runner.telemetry`):
        #: one :class:`SweepEvent` per lookup outcome and run edge.
        self.events = events
        self.stats = SweepStats()
        self._memo: Dict[str, Any] = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def cache_stats(self) -> Dict[str, Any]:
        """Disk-cache traffic counters plus the runner's bypass count.

        ``hits``/``misses``/``bytes_read``/``bytes_written`` come from
        :class:`ResultCache` (zeros when the cache is disabled);
        ``bypassed`` counts simulations that ran with the cache off.
        """
        stats: Dict[str, Any] = (
            dict(self.cache.stats()) if self.cache is not None
            else {"hits": 0, "misses": 0, "bytes_read": 0, "bytes_written": 0}
        )
        stats["bypassed"] = self.stats.bypassed
        return stats

    def profile_summary(self) -> str:
        """Stage timings, worker utilization and cache traffic for
        everything this runner has executed so far, one line each."""
        s = self.stats
        # Busy fraction of the pool during execute stages: low values
        # mean the fan-out was starved (few specs) or skewed (one long
        # run serialised the batch).
        window = s.execute_seconds * self.jobs
        utilization = min(1.0, s.run_seconds / window) if window > 0 else 0.0
        cache = self.cache_stats()
        line = (
            "profile: cache hits {hits}, misses {misses}, "
            "read {bytes_read} B, wrote {bytes_written} B".format(**cache)
        )
        if cache["bypassed"]:
            line += f", bypassed {cache['bypassed']}"
        return "\n".join([
            f"profile: {s.batches} batches, {s.specs} specs "
            f"({s.executed} executed), lookup {s.lookup_seconds:.2f}s, "
            f"execute {s.execute_seconds:.2f}s",
            f"profile: workers {self.jobs}, busy {s.run_seconds:.2f}s, "
            f"utilization {100 * utilization:.0f}%",
            line,
        ])

    def _emit(self, kind: str, spec: Optional[RunSpec] = None, key: str = "",
              seconds: float = 0.0, completed: int = 0,
              pending: int = 0) -> None:
        if self.events is None:
            return
        self.events(SweepEvent(
            kind=kind, label=describe_spec(spec) if spec is not None else "",
            key=key, seconds=seconds, completed=completed, pending=pending,
        ))

    # -- execution ------------------------------------------------------------------
    def run_spec(self, spec: RunSpec) -> Any:
        return self.run_specs([spec])[0]

    def run_specs(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Result payloads for ``specs``, order-preserving."""
        specs = list(specs)
        self.stats.batches += 1
        self.stats.specs += len(specs)
        t_start = time.perf_counter()
        keys = [spec_key(spec) for spec in specs]
        results: List[Any] = [None] * len(specs)
        missing: Dict[str, RunSpec] = {}
        for i, (spec, key) in enumerate(zip(specs, keys)):
            if key in self._memo:
                results[i] = self._memo[key]
                self.stats.memo_hits += 1
                self._emit("memo_hit", spec, key)
                continue
            if self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    self._memo[key] = record["result"]
                    results[i] = record["result"]
                    self.stats.cache_hits += 1
                    self._emit("cache_hit", spec, key)
                    continue
            # Duplicate keys inside one batch simulate once.
            missing.setdefault(key, spec)

        t_lookup = time.perf_counter()
        self.stats.lookup_seconds += t_lookup - t_start
        if missing:
            self._emit("batch_started", pending=len(missing))
            self._execute_missing(missing)
            self._emit("batch_finished", completed=len(missing))
            for i, key in enumerate(keys):
                if results[i] is None and key in self._memo:
                    results[i] = self._memo[key]
        self.stats.execute_seconds += time.perf_counter() - t_lookup
        return results

    # -- internals ------------------------------------------------------------------
    def _execute_missing(self, missing: Dict[str, RunSpec]) -> None:
        self._batch_total = len(missing)
        self._batch_done = 0
        if self.jobs == 1 or len(missing) == 1:
            for key, spec in missing.items():
                self._emit("run_started", spec, key,
                           pending=self._batch_total - self._batch_done)
                self._record(key, spec, *_timed_execute(spec))
            return
        pool = self._ensure_pool()
        futures = {}
        for key, spec in missing.items():
            futures[pool.submit(_timed_execute, spec)] = (key, spec)
            self._emit("run_started", spec, key, pending=len(missing))
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                key, spec = futures[future]
                text, seconds = future.result()
                self._record(key, spec, text, seconds)

    def _record(self, key: str, spec: RunSpec, text: str, seconds: float) -> None:
        # One decode path for fresh, parallel, and cached payloads: the
        # JSON round-trip is what guarantees bit-identical results.
        payload = json.loads(text)
        self._memo[key] = payload
        if self.cache is not None:
            from .. import __version__

            self.cache.put(key, {
                "key": key,
                "kind": spec.kind,
                "seed": spec.seed,
                "label": spec.label,
                "version": __version__,
                "seconds": seconds,
                "result": payload,
            })
        else:
            self.stats.bypassed += 1
        self.stats.executed += 1
        self.stats.run_seconds += seconds
        self._batch_done = getattr(self, "_batch_done", 0) + 1
        total = getattr(self, "_batch_total", self._batch_done)
        self._emit("run_finished", spec, key, seconds=seconds,
                   completed=self._batch_done,
                   pending=max(0, total - self._batch_done))


#: Process-wide runner used when experiments are called without one.
_default_runner: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """The shared runner for direct library calls (lazily built)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = SweepRunner()
    return _default_runner


def set_default_runner(runner: Optional[SweepRunner]) -> None:
    """Install (or clear, with ``None``) the process-wide runner."""
    global _default_runner
    if _default_runner is not None and _default_runner is not runner:
        _default_runner.close()
    _default_runner = runner
