"""The fault injector: environment-level disturbances on a schedule.

Turns a :class:`~repro.faults.plan.FaultPlan` into concrete episodes on
a live cluster:

* **Disk slow-downs** — per-host episodes during which the shared
  spindle's service times are scaled by ``slow_factor`` and every
  request pays ``spike_latency_s`` extra (a neighbour VM hammering the
  disk, a firmware hiccup, background scrubbing).
* **VM pauses** — Xen-style ``xm pause``/``unpause``: the guest's VCPU
  freezes and its virtual disk queue stops dispatching, while the host
  keeps running.
* **VM crashes** — the TaskTracker on a VM dies for good.  Storage is
  *not* lost (a simplification: think of the guest image surviving on
  the host while the JVMs are gone), so already-produced map outputs
  remain fetchable; the :class:`~repro.mapreduce.attempts.AttemptManager`
  is told so it can kill and rehome the VM's work.

Every draw comes from dedicated ``faults.*`` RNG streams keyed per
host / per VM, so episode schedules are a pure function of the cluster
seed and the plan — independent of simulation interleaving, and of
every stream the fault-free simulation uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..mapreduce.attempts import AttemptManager
    from ..sim.core import Environment
    from ..sim.tracing import TraceBus
    from ..virt.cluster import VirtualCluster
    from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives a plan's episodes against a cluster for one job run.

    Create it *after* the job has started (so the attempt manager
    exists) but before running the simulation — which is what
    :meth:`repro.mapreduce.MapReduceJob.start` does for an active plan::

        job = assemble_job(cluster_config, job_config, fault_plan=plan)
        job.env.run(until=job.start())

    Episode counters accumulate in ``stats`` (pass the job's
    ``extra_fault_stats`` to surface them in the result payload).
    """

    def __init__(
        self,
        env: "Environment",
        cluster: "VirtualCluster",
        plan: "FaultPlan",
        manager: Optional["AttemptManager"] = None,
        trace: Optional["TraceBus"] = None,
        stats: Optional[Dict[str, int]] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.plan = plan
        self.manager = manager
        self.trace = trace
        self.stats = stats if stats is not None else {}
        if plan.disk.active:
            self.stats.setdefault("disk_slow_episodes", 0)
            for host in cluster.hosts:
                env.process(self._disk_episodes(host))
        if plan.vms.pauses_active:
            self.stats.setdefault("vm_pauses", 0)
            for vm in cluster.vms:
                env.process(self._pause_episodes(vm))
        if plan.vms.crashes_active:
            self.stats.setdefault("vm_crashes", 0)
            for when, vm in self._crash_schedule():
                env.process(self._crash_at(when, vm))

    # -- disk ------------------------------------------------------------------
    def _disk_episodes(self, host):
        """Alternating healthy/degraded periods for one host's spindle."""
        disk = host.disk
        faults = self.plan.disk
        g = self.cluster.rng.stream(f"faults.{host.name}.disk")
        while True:
            yield self.env.timeout(float(g.exponential(faults.slow_interval_s)))
            duration = float(g.exponential(faults.slow_duration_s))
            disk.service_scale = faults.slow_factor
            disk.extra_latency = faults.spike_latency_s
            self.stats["disk_slow_episodes"] += 1
            if self.trace is not None:
                self.trace.publish(
                    self.env.now, "fault.disk_slow", host=host.name,
                    factor=faults.slow_factor, duration=duration,
                )
            yield self.env.timeout(duration)
            disk.service_scale = 1.0
            disk.extra_latency = 0.0
            if self.trace is not None:
                self.trace.publish(
                    self.env.now, "fault.disk_recover", host=host.name
                )

    # -- pauses ----------------------------------------------------------------
    def _pause_episodes(self, vm):
        """Alternating run/pause periods for one VM (skipped if crashed)."""
        faults = self.plan.vms
        g = self.cluster.rng.stream(f"faults.{vm.vm_id}.pause")
        while True:
            yield self.env.timeout(float(g.exponential(faults.pause_interval_s)))
            if vm.crashed:
                return  # a crashed VM no longer pauses/resumes
            duration = float(g.exponential(faults.pause_duration_s))
            vm.pause()
            self.stats["vm_pauses"] += 1
            if self.trace is not None:
                self.trace.publish(
                    self.env.now, "fault.vm_pause", vm=vm.vm_id,
                    duration=duration,
                )
            yield self.env.timeout(duration)
            vm.resume()
            if self.trace is not None:
                self.trace.publish(self.env.now, "fault.vm_resume", vm=vm.vm_id)

    # -- crashes ---------------------------------------------------------------
    def _crash_schedule(self) -> List[Tuple[float, object]]:
        """Pre-draw which VMs crash and when.

        Each VM independently draws a crash with ``crash_prob`` at a
        uniform time inside the crash window; the earliest
        ``min(max_crashes, n_vms - 1)`` draws survive, so at least one
        VM always lives to finish the job.
        """
        faults = self.plan.vms
        draws: List[Tuple[float, object]] = []
        for vm in self.cluster.vms:
            g = self.cluster.rng.stream(f"faults.{vm.vm_id}.crash")
            if g.random() < faults.crash_prob:
                draws.append((float(g.uniform(0.0, faults.crash_window_s)), vm))
        draws.sort(key=lambda pair: pair[0])
        cap = min(faults.max_crashes, len(self.cluster.vms) - 1)
        return draws[: max(0, cap)]

    def _crash_at(self, when: float, vm):
        yield self.env.timeout(when)
        vm.crash()
        self.stats["vm_crashes"] += 1
        if self.trace is not None:
            self.trace.publish(self.env.now, "fault.vm_crash", vm=vm.vm_id)
        if self.manager is not None:
            self.manager.on_vm_crashed(vm.vm_id)
