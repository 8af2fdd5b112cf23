"""The reduce task: shuffle fetches, merge sort, reduce, HDFS output."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..sim.events import AllOf
from ..sim.resources import Resource
from ..virt.fs import GuestFile
from .job import MAX_PARALLEL_FETCHES, MB
from .shuffle import MapOutput

if TYPE_CHECKING:  # pragma: no cover
    from .attempts import TaskAttempt
    from .jobtracker import MapReduceJob

__all__ = ["ReduceTask", "reduce_task_proc"]


@dataclass(frozen=True)
class ReduceTask:
    """One reducer: an index into the partition space, pinned to a VM."""

    reducer_idx: int
    vm_id: str
    #: Disambiguates scratch files and I/O process identity when several
    #: jobs share a VM (``reducer_idx`` is a per-job partition index, so
    #: it repeats across concurrent jobs).  The single-job path keeps the
    #: default empty tag and therefore its historical names.
    tag: str = ""


def reduce_task_proc(job: "MapReduceJob", task: "ReduceTask",
                     attempt: Optional["TaskAttempt"] = None):
    """Generator implementing one reduce task.

    Three stages, matching the paper's phase analysis:

    1. **Shuffle** (overlaps the map phase): pull this reducer's
       partition from every map output as it appears, up to
       ``MAX_PARALLEL_FETCHES`` at a time; buffer in memory and spill to
       local disk (async writes) when the shuffle buffer fills.
    2. **Merge**: read the spills back (sync reads) and merge-sort.
    3. **Reduce + output**: reduce CPU interleaved with the replicated
       HDFS write pipeline (local buffered write + network + remote
       buffered write).

    ``attempt`` adds the fault contract (see
    :func:`~repro.mapreduce.map_task.map_task_proc`).  A first attempt
    consumes map-output descriptors from its reducer queue exactly like
    the fault-free path; *retried* attempts instead walk the shuffle
    service's registration list (their queue was drained by the dead
    attempt) and wait on registration events for outputs still to come.
    """
    spec = job.config.spec
    cfg = job.config
    vm = job.cluster.vm(task.vm_id)
    pid = f"red{task.tag}{task.reducer_idx}@{task.vm_id}"
    n_reducers = job.shuffle.n_reducers
    n_maps = job.shuffle.n_maps
    queue = job.shuffle.queues[task.reducer_idx]
    suffix = "" if attempt is None or attempt.number == 0 else f".a{attempt.number}"

    fetch_slots = Resource(job.env, capacity=MAX_PARALLEL_FETCHES)
    mem_buffered = 0.0
    total_input = 0.0
    spills: List[GuestFile] = []
    spill_bytes: List[float] = []
    spill_lock = Resource(job.env, capacity=1)

    def aborted(progress: float) -> bool:
        return attempt is not None and attempt.should_abort(progress)

    def fetch_one(desc: MapOutput):
        nonlocal mem_buffered, total_input
        with fetch_slots.request() as slot:
            yield slot
            nbytes = desc.partition_bytes(task.reducer_idx, n_reducers)
            if nbytes > 0 and desc.file is not None:
                offset = desc.partition_offset(task.reducer_idx, n_reducers)
                length = int(nbytes)
                src_vm = job.cluster.vm(desc.vm_id)
                if length > 0:
                    end = min(offset + length, desc.file.size_bytes)
                    length = max(0, end - offset)
                if length > 0:
                    # The serving TaskTracker reads the partition (hot in
                    # its page cache if recent) ...
                    yield from src_vm.read_file(
                        desc.file, offset, length, f"tt@{desc.vm_id}"
                    )
                    # ... and it crosses the network unless VM-local.
                    if desc.vm_id != task.vm_id:
                        yield job.topology.transfer(
                            src_vm.host_name,
                            vm.host_name,
                            length,
                            label=f"shuffle m{desc.map_id}->r{task.reducer_idx}",
                        )
            mem_buffered += nbytes
            total_input += nbytes
            if mem_buffered >= cfg.shuffle_buffer_bytes:
                with spill_lock.request() as lock:
                    yield lock
                    if mem_buffered >= cfg.shuffle_buffer_bytes:
                        yield from spill_to_disk()
        job.shuffle.note_fetch_complete(task.reducer_idx, desc.map_id, nbytes)

    def spill_to_disk():
        nonlocal mem_buffered
        amount = mem_buffered
        mem_buffered = 0.0
        if amount < 1:
            return
        yield job.compute(vm, spec.sort_cpu_s_per_mb * amount / MB, pid)
        f = vm.create_file(
            f"rspill_{task.tag}{task.reducer_idx}_{len(spills)}{suffix}",
            int(amount)
        )
        yield from vm.write_file(f, 0, int(amount), pid)
        spills.append(f)
        spill_bytes.append(amount)

    # -- stage 1: shuffle ------------------------------------------------------------
    fetchers = []
    if attempt is None or attempt.number == 0:
        for i in range(n_maps):
            if aborted(0.5 * i / n_maps):
                return None
            desc = yield queue.get()
            fetchers.append(job.env.process(fetch_one(desc)))
    else:
        # Retry path: replay the registration log, then wait for the rest.
        seen = 0
        while seen < n_maps:
            if aborted(0.5 * seen / n_maps):
                return None
            if seen < len(job.shuffle.outputs):
                desc = job.shuffle.outputs[seen]
                seen += 1
                fetchers.append(job.env.process(fetch_one(desc)))
            else:
                yield job.shuffle.wait_register()
    if fetchers:
        yield AllOf(job.env, fetchers)

    # -- stage 2: merge --------------------------------------------------------------
    for i, (f, size) in enumerate(zip(spills, spill_bytes)):
        if aborted(0.5 + 0.2 * i / len(spills)):
            return None
        yield from vm.read_file(f, 0, int(size), pid)
    if total_input > 0:
        yield job.compute(vm, spec.sort_cpu_s_per_mb * total_input / MB, pid)

    # -- stage 3: reduce + replicated output --------------------------------------------
    out_bytes = int(total_input * spec.reduce_output_ratio)
    out_file = job.output_file
    written = 0
    while written < out_bytes:
        if aborted(0.7 + 0.3 * written / out_bytes):
            return None
        block_size = min(cfg.block_size, out_bytes - written)
        block = job.namenode.add_block(out_file, block_size, task.vm_id)
        if spec.reduce_cpu_s_per_mb > 0:
            # Reduce function produces this block's worth of output.
            consumed = (
                block_size / spec.reduce_output_ratio
                if spec.reduce_output_ratio > 0
                else 0.0
            )
            yield job.compute(vm, spec.reduce_cpu_s_per_mb * consumed / MB, pid)
        yield from job.dn.write_block(block, task.vm_id, pid)
        written += block_size
    if out_bytes == 0 and total_input > 0 and spec.reduce_cpu_s_per_mb > 0:
        # Output-light jobs still run the reduce function over all input.
        yield job.compute(vm, spec.reduce_cpu_s_per_mb * total_input / MB, pid)

    if attempt is not None and not job.attempts.claim_success(attempt):
        return None
    job.on_reduce_finished(task, out_bytes)
    return total_input
