"""Strict and recurring subexpression signatures.

The paper (Section 2.3): "we identify the common subexpressions across
queries using a strict subexpression hash, known as *signature*, that
uniquely captures a subexpression instance including its inputs used", and
"for the selected views, we collect their corresponding *recurring
signatures* that discard time varying attributes like parameter values and
input GUIDs, and are likely to remain the same in future instances of the
recurring workloads".

* **Strict signature** -- recursive hash over the normalized logical
  subtree, including scanned stream GUIDs and literal parameter values.
  Two subexpressions with equal strict signatures compute the same result
  over the same inputs, so view matching is a hash-equality check
  ("lightweight view matching", Section 2.4).
* **Recurring signature** -- same hash with stream GUIDs replaced by
  dataset names and parameter-bound literals replaced by their parameter
  names.  It identifies the *template* of a subexpression across recurring
  job instances, and is what view selection operates on.

Signatures are salted with the engine's runtime version: "sometimes they
also evolve with new SCOPE runtime ... as a result, all existing
materialized views get invalidated" (Section 4).

UDO handling mirrors Section 4 ("Signature correctness"): subtrees
containing non-deterministic user code or too-deep dependency chains are
excluded from reuse.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.hashing import (
    combine_unordered,
    hash_prefix,
    short_tag,
    stable_hash,
)
from repro.plan.expressions import Expr, Literal, rewrite
from repro.plan.logical import (
    Distinct,
    Filter,
    GroupBy,
    Join,
    Limit,
    LogicalPlan,
    Process,
    Project,
    Scan,
    Sort,
    Spool,
    Union,
    ViewScan,
)

#: Dependency chains deeper than this are "too long" to hash safely.
MAX_DEPENDENCY_DEPTH = 16

# Signatures are a fact of the (immutable) plan node, so each node carries
# its own: ``vars(node)[_SIGNED]`` maps a salt to ``(strict, recurring,
# tag)`` and ``vars(node)[_UDO_DEPTH]`` is the deepest UDO dependency chain
# in the subtree (``inf`` under non-determinism).  Neither is a dataclass
# field, so equality, ``repr``, ``dataclasses.replace`` and
# ``with_children`` never see them: a rebuilt node starts unsigned and the
# cache dies with its node.  A table keyed by ``id(node)`` could not promise
# that -- an id reused after GC would answer with another plan's signature.
# Racing threads at worst both hash the node and store equal values; the
# dict itself is built with the node (``LogicalPlan.__new__``), never by them.
_SIGNED = "_signed_by_salt"
_UDO_DEPTH = "_udo_depth"


def strict_signature(plan: LogicalPlan, salt: str = "") -> str:
    """Hash of the subexpression *instance*, inputs included."""
    return _signed(plan, salt)[0]


def recurring_signature(plan: LogicalPlan, salt: str = "") -> str:
    """Hash of the subexpression *template*: GUIDs and params discarded."""
    return _signed(plan, salt)[1]


def is_reuse_eligible(plan: LogicalPlan,
                      max_dependency_depth: int = MAX_DEPENDENCY_DEPTH) -> bool:
    """False if the subtree contains user code we refuse to sign.

    "We skip any computation reuse if the dependency chain is too long or
    if a UDO is found to contain non-determinism" (Section 4).
    """
    return _udo_depth(plan) <= max_dependency_depth


def _udo_depth(plan: LogicalPlan) -> float:
    attrs = vars(plan)
    depth = attrs.get(_UDO_DEPTH)
    if depth is None:
        depth = 0
        for child in plan.children():
            depth = max(depth, _udo_depth(child))
        if isinstance(plan, Process):
            depth = max(depth, plan.dependency_depth
                        if plan.deterministic else math.inf)
        attrs[_UDO_DEPTH] = depth
    return depth


def signature_tag(recurring_sig: str) -> str:
    """Short tag for insights-service indexing and access control."""
    return short_tag(recurring_sig)


def subexpression_tag(plan: LogicalPlan, salt: str = "") -> str:
    """``signature_tag`` of the node's recurring signature."""
    return _signed(plan, salt)[2]


@dataclass(frozen=True)
class Subexpression:
    """One subexpression of a query plan with its signature bundle."""

    plan: LogicalPlan
    strict: str
    recurring: str
    tag: str
    eligible: bool
    depth: int    # distance from the query root
    height: int   # longest path down to a leaf
    operator: str


def enumerate_subexpressions(plan: LogicalPlan,
                             salt: str = "") -> List[Subexpression]:
    """All subexpressions of ``plan``, root first.

    This is the unit of the paper's workload analysis ("4.3 billion
    sub-computations, referred to as query subexpressions").
    """
    result: List[Subexpression] = []
    _enumerate(plan, salt, 0, result)
    result.reverse()
    return result


def _enumerate(plan: LogicalPlan, salt: str, depth: int,
               out: List[Subexpression]) -> int:
    height = 0
    for child in plan.children():
        height = max(height, _enumerate(child, salt, depth + 1, out) + 1)
    strict, recurring, tag = _signed(plan, salt)
    out.append(Subexpression(
        plan=plan,
        strict=strict,
        recurring=recurring,
        tag=tag,
        eligible=is_reuse_eligible(plan),
        depth=depth,
        height=height,
        operator=plan.op_label,
    ))
    return height


# --------------------------------------------------------------------- #
# hashing internals


def _signed(plan: LogicalPlan, salt: str) -> Tuple[str, str, str]:
    """The node's (strict, recurring, tag): hashed once, read ever after."""
    by_salt = vars(plan).setdefault(_SIGNED, {})
    signed = by_salt.get(salt)
    if signed is None:
        kind = type(plan)
        if kind is Spool:
            # A spool is transparent: the materialized view *is* its child.
            signed = _signed(plan.child, salt)
        else:
            below = [_signed(child, salt) for child in plan.children()]
            recurring = _node_digest(plan, kind, True, salt,
                                     [child[1] for child in below])
            signed = (_node_digest(plan, kind, False, salt,
                                   [child[0] for child in below]),
                      recurring, signature_tag(recurring))
        by_salt[salt] = signed
    return signed


def with_children_signed_alike(plan: LogicalPlan,
                               children: Sequence[LogicalPlan],
                               salt: str) -> LogicalPlan:
    """``plan.with_children(children)``, keeping ``plan``'s signature when
    every child signs exactly as the one it replaces (a ViewScan inherits
    the replaced subexpression's signatures, a Spool is transparent): the
    digest over equal child digests is the digest ``plan`` already has."""
    rebuilt = plan.with_children(children)
    if all(_signed(new, salt) == _signed(old, salt)
           for new, old in zip(children, plan.children())):
        vars(rebuilt).setdefault(_SIGNED, {})[salt] = _signed(plan, salt)
    return rebuilt


def reference_signature(plan: LogicalPlan, recurring: bool,
                        salt: str = "") -> str:
    """The full recursion, reading and writing no cached digest.

    This is the definition the cached signatures must equal (the property
    tests compare the two): an operator whose hash drifts between calls
    would hide behind its own first (cached) answer.
    """
    kind = type(plan)
    if kind is Spool:
        return reference_signature(plan.child, recurring, salt)
    children = [reference_signature(child, recurring, salt)
                for child in plan.children()]
    return _node_digest(plan, kind, recurring, salt, children)


def _node_digest(plan: LogicalPlan, kind: type, recurring: bool, salt: str,
                 children: List[str]) -> str:
    if kind is Scan:
        source = plan.dataset if recurring else (plan.stream_guid or plan.dataset)
        return stable_hash(salt, "scan", plan.dataset, source)
    if kind is ViewScan:
        # A ViewScan stands for the exact subexpression it replaced, so it
        # inherits that subexpression's signature.  Plans that reuse a view
        # therefore keep the same signatures as plans that recompute it,
        # and larger overlaps remain discoverable above a reuse site.
        if recurring:
            return plan.recurring or plan.signature
        return plan.signature
    return _close(_open(plan, kind, recurring, salt), kind, children)


# An operator's digest is Merkle with its children fed last, so it is
# written as two steps: ``_open`` feeds the salt and the operator's own
# (local) parts, ``_close`` feeds the children's digests and finishes.  A
# plan template keeps each node's strict ``_open`` state and finishes a
# ``.copy()`` of it per instance; being the same two steps, it cannot
# drift from this definition.


def _open(plan: LogicalPlan, kind: type, recurring: bool,
          salt: str) -> "hashlib._Hash":
    """The digest of an operator (not a Scan or ViewScan) up to its
    children."""
    if kind is Filter:
        parts: tuple = ("filter", _expr(plan.predicate, recurring))
    elif kind is Project:
        parts = ("project", [_expr(e, recurring) for e in plan.exprs],
                 list(plan.names))
    elif kind is Join:
        pairs = sorted(
            (_expr(l, recurring), _expr(r, recurring))
            for l, r in zip(plan.left_keys, plan.right_keys))
        residual = _expr(plan.residual, recurring) if plan.residual else ""
        parts = ("join", plan.how, pairs, residual, list(plan.drop_right))
    elif kind is GroupBy:
        parts = ("groupby", [_expr(k, recurring) for k in plan.keys],
                 [_expr(a, recurring) for a in plan.aggregates],
                 list(plan.names))
    elif kind is Union:
        # UNION inputs are an unordered bag (see ``_close``).
        parts = ("unionall" if plan.all else "union",)
    elif kind is Distinct:
        parts = ("distinct",)
    elif kind is Sort:
        parts = ("sort", [(_expr(k, recurring), asc)
                          for k, asc in zip(plan.keys, plan.ascending)])
    elif kind is Limit:
        parts = ("limit", plan.count)
    elif kind is Process:
        parts = ("process", plan.udo_name, plan.deterministic,
                 plan.dependency_depth, list(plan.output_columns))
    else:
        # Unknown operator: include its label so signatures stay total.
        parts = ("op", plan.op_label)
    return hash_prefix(salt, *parts)


def _close(prefix: "hashlib._Hash", kind: type, children: List[str]) -> str:
    """Finish an ``_open`` digest with the children's digests."""
    return stable_hash(
        combine_unordered(children) if kind is Union else children,
        prefix=prefix)


def _expr(expr: Expr, recurring: bool) -> str:
    """Canonical string of an expression, in strict or recurring form."""
    if not recurring:
        return expr.canonical()
    rewritten = rewrite(expr, _mask_param_literal)
    return rewritten.canonical()


def _mask_param_literal(expr: Expr) -> Optional[Expr]:
    if isinstance(expr, Literal) and expr.param_name is not None:
        return Literal(f"«param:{expr.param_name}»")
    return None
