"""Subexpression signatures: strict, recurring, tags, eligibility."""

from repro.signatures.signature import (
    MAX_DEPENDENCY_DEPTH,
    Subexpression,
    enumerate_subexpressions,
    is_reuse_eligible,
    recurring_signature,
    reference_signature,
    signature_tag,
    strict_signature,
    subexpression_tag,
)

__all__ = [
    "MAX_DEPENDENCY_DEPTH", "Subexpression", "enumerate_subexpressions",
    "is_reuse_eligible", "recurring_signature", "reference_signature",
    "signature_tag", "strict_signature", "subexpression_tag",
]
