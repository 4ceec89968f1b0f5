"""Insights service: annotation serving, view locks, usage metrics.

Two handles are available to the engine:

* :class:`InsightsService` -- the raw service: the one policy over its
  data-only partitions (annotation index, serving cache, lock table);
* :class:`InsightsClient` -- the fault-tolerant client wrapping it with
  a TTL'd local cache, bounded retries, and a circuit breaker that
  degrades jobs to reuse-disabled compilation during incidents
  (Section 4's kill-switch posture).
"""

from repro.insights.annotations_file import (
    compile_with_annotations,
    dump_annotations,
    export_current_annotations,
    load_annotations,
)
from repro.insights.client import (
    CircuitBreaker,
    InsightsClient,
    InsightsClientConfig,
)
from repro.insights.partition import (
    CACHED_ROUND_TRIP_SECONDS,
    ROUND_TRIP_SECONDS,
)
from repro.insights.service import InsightsService, UsageMetrics

__all__ = ["CACHED_ROUND_TRIP_SECONDS", "ROUND_TRIP_SECONDS",
           "CircuitBreaker", "InsightsClient",
           "InsightsClientConfig", "InsightsService", "UsageMetrics",
           "compile_with_annotations", "dump_annotations",
           "export_current_annotations", "load_annotations"]
