"""Workload infrastructure: generator, repository, analysis.

:mod:`repro.workload.profiling` is imported by its own name: it drives a
:class:`~repro.api.Session`, which sits above this package.
"""

from repro.workload.generator import (
    CookingWorkload,
    JobInstance,
    JobTemplate,
    day_string,
    generate_workload,
)
from repro.workload.analysis import (
    OverlapPoint,
    SharingPoint,
    consumer_distribution,
    overlap_series,
    pipeline_summary,
    sharing_summary,
)
from repro.workload.compression import (
    CompressedWorkload,
    RepresentativeJob,
    compress_workload,
    replay_plan,
)
from repro.workload.patterns import QueryPattern, discover_patterns
from repro.workload.persistence import (
    load_repository,
    merge_captures,
    save_repository,
)
from repro.workload.repository import (
    JobRecord,
    SubexpressionRecord,
    WorkloadRepository,
)

__all__ = [
    "CookingWorkload", "JobInstance", "JobTemplate", "day_string",
    "generate_workload", "JobRecord", "SubexpressionRecord",
    "WorkloadRepository", "OverlapPoint", "SharingPoint",
    "consumer_distribution", "overlap_series", "pipeline_summary",
    "sharing_summary", "CompressedWorkload", "RepresentativeJob",
    "compress_workload", "replay_plan", "load_repository",
    "merge_captures", "save_repository", "QueryPattern", "discover_patterns",
]
