"""Wave execution: :meth:`JobScheduler.drain` runs a caller's list of
jobs as one wave on the calling thread."""

from repro.scheduler.results import JobResult
from repro.scheduler.scheduler import (
    JobRequest,
    JobScheduler,
    SchedulerConfig,
)

__all__ = ["JobResult", "JobRequest", "JobScheduler", "SchedulerConfig"]
