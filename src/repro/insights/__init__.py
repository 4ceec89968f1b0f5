"""Insights service: annotation serving, view locks, usage metrics.

Two layers, one serving path:

* :class:`InsightsService` -- the raw service: the one policy over its
  data-only partitions (annotation index, serving cache, lock table);
* :class:`InsightsClient` -- the engine's handle, and the only one that
  fetches: it wraps the service with a TTL'd local cache, bounded
  retries, and a circuit breaker that degrades jobs to reuse-disabled
  compilation during incidents (Section 4's kill-switch posture).
"""

from repro.insights.annotations_file import (
    compile_with_annotations,
    dump_annotations,
    export_current_annotations,
    load_annotations,
)
from repro.insights.client import CircuitBreaker, InsightsClient
from repro.insights.partition import (
    CACHED_ROUND_TRIP_SECONDS,
    ROUND_TRIP_SECONDS,
)
from repro.insights.service import InsightsService, UsageMetrics

__all__ = ["CACHED_ROUND_TRIP_SECONDS", "ROUND_TRIP_SECONDS",
           "CircuitBreaker", "InsightsClient", "InsightsService",
           "UsageMetrics",
           "compile_with_annotations", "dump_annotations",
           "export_current_annotations", "load_annotations"]
