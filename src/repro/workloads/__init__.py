"""Workloads: the paper's Hadoop benchmarks and raw-I/O microbenchmarks."""

from .arrivals import (
    DEFAULT_SIZE_MIX,
    ArrivalConfig,
    JobArrival,
    SizeClass,
    generate_arrivals,
)
from .ddwrite import DdParallelWrite, dd_writer
from .profiles import (
    BENCHMARKS,
    SORT,
    WORDCOUNT,
    WORDCOUNT_NO_COMBINER,
    benchmark,
)
from .sysbench import SysbenchSeqWrite, sysbench_writer

__all__ = [
    "ArrivalConfig",
    "BENCHMARKS",
    "DEFAULT_SIZE_MIX",
    "DdParallelWrite",
    "JobArrival",
    "SORT",
    "SizeClass",
    "SysbenchSeqWrite",
    "WORDCOUNT",
    "WORDCOUNT_NO_COMBINER",
    "benchmark",
    "dd_writer",
    "generate_arrivals",
    "sysbench_writer",
]
