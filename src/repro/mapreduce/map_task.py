"""The map task: read input, map, buffer, spill (+combine), merge."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..hdfs.blocks import HdfsBlock
from ..virt.fs import GuestFile
from .job import IO_CHUNK_BYTES, MB, SPILL_THRESHOLD
from .shuffle import MapOutput

if TYPE_CHECKING:  # pragma: no cover
    from .attempts import TaskAttempt
    from .jobtracker import MapReduceJob

__all__ = ["MapTask", "map_task_proc"]


@dataclass(frozen=True)
class MapTask:
    """One map task: a block to process on a chosen VM."""

    task_id: int
    block: HdfsBlock
    vm_id: str

    @property
    def is_data_local(self) -> bool:
        return self.vm_id in self.block.replicas


def map_task_proc(job: "MapReduceJob", task: "MapTask",
                  attempt: Optional["TaskAttempt"] = None):
    """Generator implementing one map task's life.

    Per the paper's workload characterisation, this interleaves:
    sequential sync reads of the input block; map CPU; buffered (async)
    spill writes once the sort buffer passes its threshold, with
    combiner CPU applied pre-spill; and a final merge pass when multiple
    spills exist.

    ``attempt`` carries the fault-injection contract: the generator
    polls :meth:`~repro.mapreduce.attempts.TaskAttempt.should_abort` at
    chunk/spill/merge boundaries (cooperative checkpoints — aborting is
    only legal between I/O operations, like a JVM exiting between
    records) and registers its output only if it wins
    :meth:`~repro.mapreduce.attempts.AttemptManager.claim_success`.
    Retried attempts suffix their scratch file names so rival attempts
    sharing a VM never collide.
    """
    spec = job.config.spec
    vm = job.cluster.vm(task.vm_id)
    pid = f"map{task.task_id}@{task.vm_id}"
    block = task.block
    # Attempt 0 keeps the historical names (bit-identical fault-free runs).
    suffix = "" if attempt is None or attempt.number == 0 else f".a{attempt.number}"

    buffer_limit = job.config.sort_buffer_bytes * SPILL_THRESHOLD
    buffered_raw = 0.0
    spills: List[GuestFile] = []
    spill_bytes: List[float] = []
    out_written = 0.0

    def aborted(progress: float) -> bool:
        return attempt is not None and attempt.should_abort(progress)

    def spill():
        nonlocal buffered_raw, out_written
        raw = buffered_raw
        buffered_raw = 0.0
        if raw <= 0:
            return
        if spec.combiner and spec.combine_cpu_s_per_mb > 0:
            yield job.compute(vm, spec.combine_cpu_s_per_mb * raw / MB, pid)
        # Sort the buffer before writing (quick-sort pass).
        yield job.compute(vm, spec.sort_cpu_s_per_mb * raw / MB, pid)
        to_disk = raw * (spec.map_output_ratio / spec.emit_ratio) if spec.emit_ratio else 0.0
        if to_disk <= 0:
            return
        f = vm.create_file(f"spill_{task.task_id}_{len(spills)}{suffix}", int(to_disk))
        yield from vm.write_file(f, 0, int(to_disk), pid)
        spills.append(f)
        spill_bytes.append(to_disk)
        out_written += to_disk

    # -- input + map + spill loop -----------------------------------------------
    pos = 0
    while pos < block.size_bytes:
        if aborted(0.8 * pos / block.size_bytes):
            return None
        chunk = min(IO_CHUNK_BYTES, block.size_bytes - pos)
        yield from job.dn.read_block(block, task.vm_id, pid, pos, chunk)
        if spec.map_cpu_s_per_mb > 0:
            yield job.compute(vm, spec.map_cpu_s_per_mb * chunk / MB, pid)
        buffered_raw += chunk * spec.emit_ratio
        if buffered_raw >= buffer_limit:
            yield from spill()
        pos += chunk
    yield from spill()

    # -- merge spills into the final map output ------------------------------------
    if aborted(0.8):
        return None
    total_out = sum(spill_bytes)
    if len(spills) > 1:
        merged = vm.create_file(f"mapout_{task.task_id}{suffix}", int(total_out))
        for i, (f, size) in enumerate(zip(spills, spill_bytes)):
            if aborted(0.8 + 0.2 * i / len(spills)):
                return None
            # Spill data is usually still in the page cache; a cold
            # chunk costs a real read.
            yield from vm.read_file(f, 0, int(size), pid)
        yield job.compute(vm, spec.sort_cpu_s_per_mb * total_out / MB, pid)
        yield from vm.write_file(merged, 0, int(total_out), pid)
        out_file = merged
    elif spills:
        out_file = spills[0]
    else:
        out_file = None

    if attempt is not None and not job.attempts.claim_success(attempt):
        # Killed, or a rival attempt registered first: discard quietly.
        return None
    output = MapOutput(
        map_id=task.task_id,
        vm_id=task.vm_id,
        file=out_file,
        total_bytes=total_out,
    )
    job.shuffle.register(output)
    job.on_map_finished(task)
    return output
