"""A Hadoop-0.19-style MapReduce engine over the virtual cluster."""

from .job import JobConfig, JobSpec, MB
from .jobtracker import MapReduceJob, TaskPool
from .map_task import MapTask, map_task_proc
from .multijob import (
    JOB_SCHEDULERS,
    MultiJobConfig,
    MultiJobResult,
    MultiJobTracker,
    SwitchPlan,
    job_scheduler,
)
from .phases import PHASE_NAMES, JobResult, PhaseTimes
from .reduce_task import ReduceTask, reduce_task_proc
from .shuffle import MapOutput, ShuffleService

__all__ = [
    "JOB_SCHEDULERS",
    "JobConfig",
    "JobResult",
    "JobSpec",
    "MB",
    "MapOutput",
    "MapReduceJob",
    "MapTask",
    "MultiJobConfig",
    "MultiJobResult",
    "MultiJobTracker",
    "PHASE_NAMES",
    "PhaseTimes",
    "ReduceTask",
    "ShuffleService",
    "SwitchPlan",
    "TaskPool",
    "job_scheduler",
    "map_task_proc",
    "reduce_task_proc",
]
