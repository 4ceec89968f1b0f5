"""Concurrent execution frontend: the thread-pool scheduler."""

from repro.scheduler.results import JobResult
from repro.scheduler.scheduler import (
    JobRequest,
    JobScheduler,
    SchedulerConfig,
)

__all__ = ["JobResult", "JobRequest", "JobScheduler", "SchedulerConfig"]
