"""Shared utilities: errors, deterministic hashing, simulated clock, RNG."""

from repro.common.clock import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
    SECONDS_PER_WEEK,
    SimClock,
)
from repro.common.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    InsightsError,
    ParseError,
    PlanError,
    ReproError,
    SchedulingError,
    SelectionError,
    SignatureError,
    StorageError,
)
from repro.common.hashing import combine_unordered, short_tag, stable_hash
from repro.common.rng import bounded_gauss, rng_for, weighted_choice, zipf_weights

__all__ = [
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_WEEK",
    "SimClock",
    "BindError",
    "CatalogError",
    "ExecutionError",
    "InsightsError",
    "ParseError",
    "PlanError",
    "ReproError",
    "SchedulingError",
    "SelectionError",
    "SignatureError",
    "StorageError",
    "combine_unordered",
    "short_tag",
    "stable_hash",
    "bounded_gauss",
    "rng_for",
    "weighted_choice",
    "zipf_weights",
]
