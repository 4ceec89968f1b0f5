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
    join_set_opportunities,
)
from repro.extensions.shared_execution import (
    BatchJobResult,
    BatchStats,
    SharedBatchExecutor,
)
from repro.extensions.sparkcruise import (
    format_insights,
    sparkcruise_tpcds,
    workload_insights_report,
)

__all__ = [
    "DEFAULT_RISKY_OPERATORS", "CheckpointManager",
    "FailureModel", "ConcurrentJoin", "concurrency_histogram",
    "concurrent_joins", "estimate_pipelined_sharing", "ContainmentChecker",
    "JoinSetOpportunity", "join_set_opportunities",
    "BatchJobResult", "BatchStats", "SharedBatchExecutor",
    "format_insights", "sparkcruise_tpcds",
    "workload_insights_report",
]
