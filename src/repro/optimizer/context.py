"""Optimizer context: everything the compiler needs for reuse decisions.

Mirrors Figure 5's query-processing path: the compiler "extracts its tags
and fetches the annotations from the insights service.  These annotations
are then parsed and stored in the optimizer context."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional

from repro.catalog.catalog import Catalog
from repro.obs.recorder import NULL_RECORDER
from repro.optimizer.cost import CostModel
from repro.optimizer.stats import CardinalityEstimator, StatisticsCatalog
from repro.storage.views import ViewStore


@dataclass(frozen=True)
class Annotation:
    """One selected subexpression served by the insights service.

    Keyed by *recurring* signature, because the selection was made on past
    instances and must apply to future instances whose input GUIDs (and
    therefore strict signatures) differ.
    """

    recurring_signature: str
    tag: str
    expected_rows: int = 0
    expected_bytes: int = 0
    virtual_cluster: str = ""


@dataclass
class OptimizerContext:
    """Per-compilation state for view matching and buildout."""

    catalog: Catalog
    view_store: ViewStore
    history: Optional[StatisticsCatalog] = None
    annotations: Dict[str, Annotation] = field(default_factory=dict)
    salt: str = ""
    virtual_cluster: str = "default"
    reuse_enabled: bool = True
    overestimate: float = 2.0
    #: Callback to the insights service: returns True if the exclusive
    #: view-creation lock for a strict signature was acquired.
    acquire_view_lock: Callable[[str], bool] = lambda signature: True
    #: Debug mode: ``optimize`` re-runs rewrites and normalization on a
    #: plan it was told is normalized and raises LintError unless it gets
    #: the very same object back.
    debug_checks: bool = False
    #: Flight recorder plus the trace correlation for this compilation:
    #: ``trace_id`` is the job id and ``compile_span`` the enclosing
    #: ``job.compile`` span, so matching/buildout spans nest under it.
    recorder: object = NULL_RECORDER
    trace_id: str = ""
    compile_span: object = None

    #: The one calibrated cost model (a class constant, not a field).
    cost_model = CostModel()

    @cached_property
    def estimator(self) -> CardinalityEstimator:
        """One estimator -- and so one estimate per plan node -- for the
        whole compilation."""
        return CardinalityEstimator(
            self.catalog, self.history,
            overestimate=self.overestimate, salt=self.salt)

    def annotation_for(self, recurring_signature: str) -> Optional[Annotation]:
        return self.annotations.get(recurring_signature)
