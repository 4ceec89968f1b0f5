"""CloudViews core: the multi-level controls and repository ingestion."""

from repro.core.controls import DeploymentMode, MultiLevelControls
from repro.core.runner import record_job_into

__all__ = ["DeploymentMode", "MultiLevelControls", "record_job_into"]
