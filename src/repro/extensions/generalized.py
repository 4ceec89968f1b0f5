"""Generalized reuse: join-set analysis (Figure 8) and containment.

Section 5.3: CloudViews' production path matches only syntactically
identical subexpressions.  Two generalizations are sketched by the paper
and prototyped here:

* **Join-set analysis** (:func:`join_set_opportunities`): "subexpressions
  that join the same sets of inputs ... could still have different
  projections, selections, or group by operations, which could be merged
  to create more general materialized views" -- Figure 8 plots the
  frequency of each such join-set.
* **Containment checking** (:class:`ContainmentChecker`): the paper's own
  example -- ``SELECT * FROM Sales WHERE CustomerId > 5`` can answer
  ``... WHERE CustomerId > 6`` with a compensating filter.  General
  containment is NP-complete; this prototype handles the tractable
  fragment of conjunctive range/equality predicates over the same
  relation, which already covers the recurring-filter patterns of cooked
  workloads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workload.repository import WorkloadRepository


# --------------------------------------------------------------------- #
# Figure 8: same-input join sets


@dataclass(frozen=True)
class JoinSetOpportunity:
    """All subexpressions joining one particular set of inputs."""

    inputs: Tuple[str, ...]
    occurrences: int          # total instances in the window
    distinct_variants: int    # syntactically distinct subexpressions

    @property
    def generalization_gain(self) -> int:
        """Extra reuse a single generalized view could unlock: the
        occurrences beyond what each exact variant already captures."""
        return self.occurrences - self.distinct_variants


def join_set_opportunities(repository: WorkloadRepository,
                           min_inputs: int = 2) -> List[JoinSetOpportunity]:
    """Group Join subexpressions by their scanned input sets (Figure 8)."""
    occurrences: Dict[Tuple[str, ...], int] = defaultdict(int)
    variants: Dict[Tuple[str, ...], set] = defaultdict(set)
    for record in repository.subexpressions:
        if record.operator != "Join":
            continue
        if len(record.input_datasets) < min_inputs:
            continue
        occurrences[record.input_datasets] += 1
        variants[record.input_datasets].add(record.recurring)
    result = [JoinSetOpportunity(inputs, occurrences[inputs],
                                 len(variants[inputs]))
              for inputs in occurrences]
    result.sort(key=lambda o: (-o.occurrences, o.inputs))
    return result


# --------------------------------------------------------------------- #
# containment (implementation lives in the optimizer layer; re-exported
# here as part of the Section-5.3 extension surface)

from repro.optimizer.containment import ContainmentChecker  # noqa: E402
