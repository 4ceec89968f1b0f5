"""The unified job result type of the public API.

Historically ``Engine.compile`` returned a :class:`CompiledJob`,
``Engine.execute`` / ``CloudViews.run`` a :class:`JobRun`, and callers dug
through ``run.result.rows`` / ``run.compiled.optimized`` ad hoc.
:class:`JobResult` flattens the fields users actually consume into one
stable dataclass, shared by ``repro.api.Session.run`` and the concurrent
:class:`~repro.scheduler.scheduler.JobScheduler` -- including the failure
shape: a scheduler batch always returns one ``JobResult`` per submitted
job, with ``error`` set instead of an exception escaping the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.engine import CompiledJob, JobRun
from repro.plan.expressions import Row


@dataclass
class JobResult:
    """Everything one submitted job produced.

    ``ok`` is False when the job raised: ``error``/``error_type`` then
    carry the message, and the execution-dependent fields hold their
    zero values.  ``degraded`` marks jobs that compiled with reuse
    disabled because the insights serving path was down (circuit breaker
    / retries exhausted) -- degraded jobs still succeed.
    """

    job_id: str
    sql: str
    virtual_cluster: str = "default"
    submitted_at: float = 0.0
    rows: List[Row] = field(default_factory=list)
    tags: Tuple[str, ...] = ()
    views_built: int = 0
    views_reused: int = 0
    sealed_views: List[str] = field(default_factory=list)
    compile_latency: float = 0.0
    reuse_enabled: bool = True
    degraded: bool = False
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: The underlying engine objects, for callers that need the full
    #: plan/statistics surface (None on failure).
    run: Optional[JobRun] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def compiled(self) -> Optional[CompiledJob]:
        return self.run.compiled if self.run is not None else None

    def summary(self) -> Dict[str, object]:
        """Flat JSON-friendly view (CLI output, benchmark series)."""
        return {
            "job_id": self.job_id,
            "virtual_cluster": self.virtual_cluster,
            "ok": self.ok,
            "degraded": self.degraded,
            "rows": self.row_count,
            "views_built": self.views_built,
            "views_reused": self.views_reused,
            "compile_latency": self.compile_latency,
            "error": self.error,
        }

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def from_run(cls, run: JobRun) -> "JobResult":
        compiled = run.compiled
        return cls(
            job_id=compiled.job_id,
            sql=compiled.sql,
            virtual_cluster=compiled.virtual_cluster,
            submitted_at=compiled.submitted_at,
            rows=run.rows,
            tags=compiled.tags,
            views_built=compiled.built_views,
            views_reused=compiled.reused_views,
            sealed_views=list(run.sealed_views),
            compile_latency=compiled.compile_latency,
            reuse_enabled=compiled.reuse_enabled,
            degraded=compiled.degraded,
            run=run,
        )

    @classmethod
    def from_failure(cls, job_id: str, sql: str, virtual_cluster: str,
                     submitted_at: float, error: BaseException
                     ) -> "JobResult":
        return cls(
            job_id=job_id,
            sql=sql,
            virtual_cluster=virtual_cluster,
            submitted_at=submitted_at,
            error=str(error) or type(error).__name__,
            error_type=type(error).__name__,
        )
