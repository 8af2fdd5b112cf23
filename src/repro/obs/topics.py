"""The machine-readable registry of every trace topic the simulator emits.

Single source of truth for the repo's topic taxonomy: the metrics
bridge (:class:`repro.obs.metrics.TraceMetrics`) folds exactly these
names, ``repro lint``'s TRACE001 rule checks every
``TraceBus.publish``/``record_topic`` string literal against this set
(and flags registry entries nobody publishes as dead), and DESIGN.md's
"Observability" section documents the same list.

Adding a topic is a two-step change: publish it from the simulation and
add a :class:`TopicSpec` here (the linter fails the build if either
half is missing).  :mod:`repro.sim.tracing` deliberately does *not*
import this module at runtime — the bus stays policy-free and the
sim layer stays below obs — enforcement is static, via the linter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "TopicSpec",
    "TOPICS",
    "TOPIC_NAMES",
    "REGISTERED_TOPICS",
    "is_registered",
    "matching",
    "span_hint",
]


@dataclass(frozen=True)
class TopicSpec:
    """One registered trace topic."""

    #: Exact topic name as passed to ``TraceBus.publish``.
    name: str
    #: What one record on this topic means.
    doc: str
    #: Routing hint for causal-span reconstruction
    #: (:mod:`repro.obs.spans`): which span layer owns records on this
    #: topic.  One of ``"request"`` (per-rid block I/O), ``"task"``
    #: (per-process attempt), ``"job"`` (lifecycle/control), ``"fault"``
    #: (injected fault interval), ``"switch"`` (elevator switch stall).
    span: str = "job"


TOPICS: Tuple[TopicSpec, ...] = (
    # -- disk layer (per-device; payloads carry a ``device`` label) -----------
    TopicSpec("disk.submit", "request accepted into a device queue",
              span="request"),
    TopicSpec("disk.complete", "request (plus any merged rids) left the device",
              span="request"),
    TopicSpec("disk.service", "per-request seek/rotation/transfer time split",
              span="request"),
    TopicSpec("disk.switched", "elevator switch finished on a device (stall seconds)",
              span="switch"),
    # -- SSD backend (per-device; FTL internals) ------------------------------
    TopicSpec("ssd.gc", "greedy GC cycle: victim erased after relocating valid "
              "pages (moved/freed/write_amp in payload)"),
    TopicSpec("ssd.writeback", "write-cache flush to NAND (pages in payload)"),
    TopicSpec("ssd.channel", "NAND channel backlog after a charge (seconds of "
              "booked work left on the channel)"),
    # -- guest filesystem (per-VM) --------------------------------------------
    TopicSpec("fs.read", "guest filesystem read completed", span="task"),
    TopicSpec("fs.write", "guest filesystem write completed", span="task"),
    # -- cluster / scheduler control ------------------------------------------
    TopicSpec("cluster.set_pair", "cluster applied a (VMM, VM) scheduler pair"),
    # -- MapReduce job lifecycle ----------------------------------------------
    TopicSpec("job.start", "job accepted; simulated clock at submission"),
    TopicSpec("job.map_finished", "one map task finished (done/total in payload)",
              span="task"),
    TopicSpec("job.maps_done", "last map task finished"),
    TopicSpec("job.shuffle_done", "last shuffle fetch finished (retrospective)"),
    TopicSpec("job.reduce_finished", "one reduce task finished", span="task"),
    TopicSpec("job.done", "job completed; simulated clock at completion"),
    TopicSpec("shuffle.fetch",
              "one logical shuffle partition fetched (live residual in "
              "``remaining``)", span="task"),
    # -- online adaptive control (repro.ctrl) ---------------------------------
    TopicSpec("ctrl.phase",
              "controller detected a job phase boundary (at its firing time)"),
    TopicSpec("ctrl.decision",
              "controller policy decided to switch or hold at a boundary"),
    TopicSpec("ctrl.switch",
              "controller-issued scheduler switch completed (stall seconds)",
              span="switch"),
    # -- multi-job scheduling / tenancy ---------------------------------------
    TopicSpec("sched.job_admitted", "multi-job tracker admitted an arriving job"),
    TopicSpec("sched.task_assigned", "a slot claimed a task (job/kind/vm in payload)"),
    TopicSpec("sched.job_done", "a multiplexed job completed (latency in payload)"),
    TopicSpec("tenant.job_latency", "per-tenant job latency sample at completion"),
    # -- recovery / speculation -----------------------------------------------
    TopicSpec("task.retry", "failed attempt re-queued (kind in payload)",
              span="task"),
    TopicSpec("task.speculative", "speculative backup attempt launched",
              span="task"),
    # -- fault injection ------------------------------------------------------
    TopicSpec("fault.disk_slow", "disk slow-down fault began on a host",
              span="fault"),
    TopicSpec("fault.disk_recover", "disk slow-down fault ended", span="fault"),
    TopicSpec("fault.vm_pause", "VM administratively paused", span="fault"),
    TopicSpec("fault.vm_resume", "paused VM resumed", span="fault"),
    TopicSpec("fault.vm_crash", "VM crashed (permanently, for the run)",
              span="fault"),
)

#: Topic names in registry order.
TOPIC_NAMES: Tuple[str, ...] = tuple(spec.name for spec in TOPICS)

#: The set form, for membership tests.
REGISTERED_TOPICS = frozenset(TOPIC_NAMES)


_SPAN_BY_NAME = {spec.name: spec.span for spec in TOPICS}


def is_registered(topic: str) -> bool:
    """True when ``topic`` is an exact registered topic name."""
    return topic in REGISTERED_TOPICS


def span_hint(topic: str) -> str:
    """The span layer owning records on ``topic`` (``"job"`` when the
    topic is unregistered — lifecycle is the catch-all owner)."""
    return _SPAN_BY_NAME.get(topic, "job")


def matching(pattern: str) -> Tuple[str, ...]:
    """Registered topics matched by ``pattern``, in registry order.

    Mirrors ``TraceBus.record_topic`` semantics: ``"*"`` matches every
    topic, ``"family.*"`` matches the family prefix, anything else is
    an exact name.
    """
    if pattern == "*":
        return TOPIC_NAMES
    if pattern.endswith(".*"):
        prefix = pattern[:-1]  # keep the dot: "disk.*" -> "disk."
        return tuple(name for name in TOPIC_NAMES if name.startswith(prefix))
    return tuple(name for name in TOPIC_NAMES if name == pattern)
