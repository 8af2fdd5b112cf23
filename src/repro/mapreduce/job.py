"""Job specifications: workload I/O profiles and runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["JobSpec", "JobConfig", "MB"]

MB = 1024 * 1024

#: Fill fraction of the sort buffer (io.sort.mb) that triggers a spill.
SPILL_THRESHOLD = 0.8
#: Concurrent shuffle fetches per reducer (mapred.reduce.parallel.copies).
MAX_PARALLEL_FETCHES = 5
#: Granularity at which map tasks interleave input reads and map CPU.
IO_CHUNK_BYTES = 4 * MB
#: Relative jitter applied to every task CPU burst (seeded).  Real
#: tasks never take identical time; without jitter the 32 reducers run
#: in artificial lockstep and convoy effects dominate.
CPU_NOISE = 0.10


@dataclass(frozen=True)
class JobSpec:
    """The I/O/CPU profile of a MapReduce application.

    The paper classifies applications by the size of the map output and
    reduce output (heavy/moderate/light disk operations); these ratios
    encode exactly that classification:

    * ``emit_ratio`` — bytes emitted into the map-side sort buffer per
      input byte (pre-combiner).
    * ``map_output_ratio`` — bytes actually spilled/merged to disk per
      input byte (post-combiner).  Equal to ``emit_ratio`` when there is
      no combiner.
    * ``reduce_output_ratio`` — bytes written to HDFS per byte of reduce
      input.
    """

    name: str
    emit_ratio: float
    map_output_ratio: float
    reduce_output_ratio: float
    combiner: bool = False
    #: CPU seconds per MB of input processed by the map function.
    map_cpu_s_per_mb: float = 0.015
    #: CPU seconds per MB run through the combiner at spill time.
    combine_cpu_s_per_mb: float = 0.0
    #: CPU seconds per MB for sort/merge passes (map and reduce side).
    sort_cpu_s_per_mb: float = 0.006
    #: CPU seconds per MB of reduce input processed by the reduce function.
    reduce_cpu_s_per_mb: float = 0.012

    def __post_init__(self) -> None:
        if min(self.emit_ratio, self.map_output_ratio, self.reduce_output_ratio) < 0:
            raise ValueError("ratios must be non-negative")
        if self.map_output_ratio > self.emit_ratio + 1e-9:
            raise ValueError("map_output_ratio cannot exceed emit_ratio")
        if min(
            self.map_cpu_s_per_mb,
            self.combine_cpu_s_per_mb,
            self.sort_cpu_s_per_mb,
            self.reduce_cpu_s_per_mb,
        ) < 0:
            raise ValueError("CPU costs must be non-negative")


@dataclass(frozen=True)
class JobConfig:
    """Cluster-facing job parameters (Hadoop 0.19 defaults)."""

    spec: JobSpec
    #: Input bytes stored (and processed) per data node, 512 MB default.
    bytes_per_vm: int = 512 * MB
    block_size: int = 64 * MB
    #: Concurrent map / reduce tasks per VM ("at most two Map or Reduce
    #: tasks" per single-core VM in the paper).
    map_slots: int = 2
    reducers_per_vm: int = 2
    #: io.sort.mb.
    sort_buffer_bytes: int = 100 * MB
    #: Reduce-side in-memory shuffle buffer before spilling to disk.
    shuffle_buffer_bytes: int = 128 * MB
    #: Fraction of maps finished before reducers launch.
    slowstart: float = 0.05
    input_path: str = "input"
    output_path: str = "output"

    def __post_init__(self) -> None:
        # A float or bool count would fail deep in the run (slot and
        # reducer loops, list repetition) or silently act as 1.
        for name in ("bytes_per_vm", "block_size", "map_slots",
                     "reducers_per_vm", "sort_buffer_bytes",
                     "shuffle_buffer_bytes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"JobConfig.{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(
                    f"JobConfig.{name} must be >= 1, got {value}")
        if not 0 <= self.slowstart <= 1:
            raise ValueError("slowstart must be in [0, 1]")

    def with_(self, **changes) -> "JobConfig":
        return replace(self, **changes)

    def blocks_per_vm(self) -> int:
        return -(-self.bytes_per_vm // self.block_size)  # ceil

    def waves(self) -> float:
        """Map waves: blocks / (nodes × slots), per the paper's Table II."""
        return self.blocks_per_vm() / self.map_slots
