"""Section-5 extensions: generalized reuse, concurrency, checkpointing,
shared execution, and the SparkCruise-style surface."""

from repro.extensions.checkpoint import (
    DEFAULT_RISKY_OPERATORS,
    CheckpointManager,
    FailureModel,
)
from repro.extensions.concurrent import (
    ConcurrentJoin,
    concurrency_histogram,
    concurrent_joins,
    estimate_pipelined_sharing,
)
from repro.extensions.generalized import (
    ContainmentChecker,
    JoinSetOpportunity,
    generalized_match,
    join_set_opportunities,
)
from repro.extensions.shared_execution import (
    BatchJobResult,
    BatchStats,
    SharedBatchExecutor,
)
from repro.extensions.sparkcruise import (
    QueryEventListener,
    format_insights,
    run_workload_analysis,
    workload_insights_report,
)

__all__ = [
    "DEFAULT_RISKY_OPERATORS", "CheckpointManager",
    "FailureModel", "ConcurrentJoin", "concurrency_histogram",
    "concurrent_joins", "estimate_pipelined_sharing", "ContainmentChecker",
    "JoinSetOpportunity", "generalized_match", "join_set_opportunities",
    "BatchJobResult", "BatchStats", "SharedBatchExecutor",
    "QueryEventListener",
    "format_insights", "run_workload_analysis",
    "workload_insights_report",
]
