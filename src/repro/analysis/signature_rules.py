"""Rule pack 2: signature soundness.

Signatures are the load-bearing abstraction of the whole reuse loop: a
strict signature that is non-deterministic, collides, ignores the runtime
salt, or fails to mask time-varying inputs produces *wrong reuse* — the
paper's Section 4 failure mode.  These rules audit the hashing machinery
itself:

* **determinism** — re-hash a structurally rebuilt clone (fresh objects,
  fresh dict orderings) and a commutative-input permutation; any drift
  means the hash depends on object identity or construction order;
* **collisions** — across a workload, equal strict signatures must mean
  structurally equal normalized plans (checked against an independent
  canonical rendering, so a hash that silently drops a field is caught);
* **recurring-mask completeness** — the recurring signature must be
  invariant under stream-GUID and param-literal rewrites, while the
  strict signature must be sensitive to them;
* **salt propagation** — every signature must incorporate the
  runtime-version salt ("all existing materialized views get invalidated"
  on runtime upgrades);
* **reuse-eligibility consistency** — nothing non-deterministic may sit
  beneath a Spool or inside a matched view definition.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.framework import AnalysisContext, Finding, Rule, register
from repro.common.rng import rng_for
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
from repro.signatures.signature import (
    _expr,
    is_reuse_eligible,
    recurring_signature,
    reference_signature,
    strict_signature,
)

# --------------------------------------------------------------------- #
# structural keys: an independent, hash-free canonical rendering

def structural_key(plan: LogicalPlan, recurring: bool = False,
                   memo: Optional[Dict[int, str]] = None) -> str:
    """Canonical string of a normalized plan, mirroring the signature's
    intended normalization (sorted join pairs, unordered unions, masked
    params in recurring form) but *without* hashing.

    This is deliberately an independent implementation: comparing
    structural keys against signature equality cross-checks the hash.  It
    is also strictly finer where that matters for soundness — Scan and
    ViewScan column lists are included, so two scans of the same stream
    GUID with drifted schemas (a runtime-upgrade hazard) compare unequal
    even though their signatures collide.
    """
    if memo is None:
        memo = {}
    cached = memo.get(id(plan))
    if cached is not None:
        return cached
    kind = type(plan)
    if kind is Spool:
        key = structural_key(plan.child, recurring, memo)
        memo[id(plan)] = key
        return key
    children = [structural_key(child, recurring, memo)
                for child in plan.children()]
    if kind is Scan:
        source = plan.dataset if recurring else (plan.stream_guid
                                                 or plan.dataset)
        key = f"(scan {plan.dataset} {source} {list(plan.columns)})"
    elif kind is ViewScan:
        sig = (plan.recurring or plan.signature) if recurring \
            else plan.signature
        key = f"(viewscan {sig} {list(plan.columns)})"
    elif kind is Filter:
        key = f"(filter {_expr(plan.predicate, recurring)} {children})"
    elif kind is Join:
        pairs = sorted((_expr(l, recurring), _expr(r, recurring))
                       for l, r in zip(plan.left_keys, plan.right_keys))
        residual = _expr(plan.residual, recurring) if plan.residual else ""
        key = (f"(join {plan.how} {pairs} {residual} "
               f"{list(plan.drop_right)} {children})")
    elif kind is GroupBy:
        keys = [_expr(k, recurring) for k in plan.keys]
        aggs = [_expr(a, recurring) for a in plan.aggregates]
        key = f"(groupby {keys} {aggs} {list(plan.names)} {children})"
    elif kind is Union:
        marker = "unionall" if plan.all else "union"
        key = f"({marker} {sorted(children)})"
    elif kind is Distinct:
        key = f"(distinct {children})"
    elif kind is Sort:
        keys = [(_expr(k, recurring), asc)
                for k, asc in zip(plan.keys, plan.ascending)]
        key = f"(sort {keys} {children})"
    elif kind is Limit:
        key = f"(limit {plan.count} {children})"
    elif kind is Process:
        key = (f"(process {plan.udo_name} {plan.deterministic} "
               f"{plan.dependency_depth} {list(plan.output_columns)} "
               f"{children})")
    elif kind is Project:
        exprs = [_expr(e, recurring) for e in plan.exprs]
        key = f"(project {exprs} {list(plan.names)} {children})"
    else:
        # Unknown operator: include every non-plan field so structural
        # differences the label-only hash ignores are still visible.
        key = f"(op {plan.op_label} {_scalar_fields(plan)} {children})"
    memo[id(plan)] = key
    return key


def _scalar_fields(plan: LogicalPlan) -> str:
    parts = []
    for field in dataclasses.fields(plan):
        value = getattr(plan, field.name)
        if isinstance(value, LogicalPlan):
            continue
        if isinstance(value, tuple) and value and \
                all(isinstance(v, LogicalPlan) for v in value):
            continue
        parts.append(f"{field.name}={value!r}")
    return " ".join(parts)


# --------------------------------------------------------------------- #
# plan surgery helpers

def rebuild(plan: LogicalPlan) -> LogicalPlan:
    """Structurally identical clone built from fresh operator objects."""
    children = plan.children()
    if not children:
        return plan
    return plan.with_children([rebuild(child) for child in children])


def _permute_unordered(plan: LogicalPlan, rng) -> LogicalPlan:
    """Clone with every Union's inputs shuffled (an unordered bag)."""
    children = [_permute_unordered(child, rng) for child in plan.children()]
    if isinstance(plan, Union):
        rng.shuffle(children)
    if not children:
        return plan
    return plan.with_children(children)


def _probe_literal(expr: Expr) -> Optional[Expr]:
    if isinstance(expr, Literal) and expr.param_name is not None:
        return Literal(f"{expr.value!r}«probe»", expr.param_name)
    return None


def probe_inputs(plan: LogicalPlan) -> Tuple[LogicalPlan, bool]:
    """Rewrite time-varying inputs: fresh stream GUIDs on every Scan and
    perturbed values in every parameter-bound literal.

    Returns the rewritten plan and whether anything changed.  The
    recurring signature must be invariant under this rewrite; the strict
    signature must not be.
    """
    changed = False

    def visit(node: LogicalPlan) -> LogicalPlan:
        nonlocal changed
        children = [visit(child) for child in node.children()]
        if children and any(n is not o for n, o in
                            zip(children, node.children())):
            node = node.with_children(children)
        if isinstance(node, Scan):
            changed = True
            return dataclasses.replace(
                node, stream_guid=f"probe-{node.stream_guid or 'fresh'}")
        replacements = {}
        if isinstance(node, Filter):
            replacements["predicate"] = rewrite(node.predicate,
                                                _probe_literal)
        elif isinstance(node, Project):
            replacements["exprs"] = tuple(
                rewrite(e, _probe_literal) for e in node.exprs)
        elif isinstance(node, Join):
            replacements["left_keys"] = tuple(
                rewrite(e, _probe_literal) for e in node.left_keys)
            replacements["right_keys"] = tuple(
                rewrite(e, _probe_literal) for e in node.right_keys)
            if node.residual is not None:
                replacements["residual"] = rewrite(node.residual,
                                                   _probe_literal)
        elif isinstance(node, GroupBy):
            replacements["aggregates"] = tuple(
                rewrite(a, _probe_literal) for a in node.aggregates)
        else:
            return node
        originals = {name: getattr(node, name) for name in replacements}
        if all(_same_exprs(originals[name], replacements[name])
               for name in replacements):
            return node
        changed = True
        return dataclasses.replace(node, **replacements)

    return visit(plan), changed


def _same_exprs(old: object, new: object) -> bool:
    if isinstance(old, tuple):
        return all(o is n for o, n in zip(old, new)) and \
            len(old) == len(new)
    return old is new


def _is_view_standin(plan: LogicalPlan) -> bool:
    """True for a ViewScan (possibly under transparent Spools)."""
    node = plan
    while isinstance(node, Spool):
        node = node.child
    return isinstance(node, ViewScan)


def _hash_bypasses_salt(plan: LogicalPlan) -> bool:
    """True when the plan's signature never feeds a salted hash (a bare
    ViewScan, possibly under transparent Spools, returns its stored
    signature verbatim)."""
    node = plan
    while isinstance(node, Spool):
        node = node.child
    return isinstance(node, ViewScan)


# --------------------------------------------------------------------- #
# rules

@register
class SignatureDeterminismRule(Rule):
    name = "sig-determinism"
    severity = "error"
    description = ("Strict and recurring signatures must survive a "
                   "structural rebuild and a shuffle of unordered inputs")

    def check_plan(self, plan: LogicalPlan,
                   ctx: AnalysisContext) -> Iterable[Finding]:
        # Hashed through the uncached reference: ``rebuild`` shares leaf
        # objects with ``plan``, and a leaf's cached digest would answer
        # for an operator whose hash drifts between calls.
        strict = reference_signature(plan, False, ctx.salt)
        recurring = reference_signature(plan, True, ctx.salt)
        clone = rebuild(plan)
        if reference_signature(clone, False, ctx.salt) != strict:
            yield self.finding(
                "strict signature changed after a structural rebuild; "
                "the hash depends on object identity or construction "
                "order", operator=plan.op_label)
        if reference_signature(clone, True, ctx.salt) != recurring:
            yield self.finding(
                "recurring signature changed after a structural rebuild",
                operator=plan.op_label)
        rng = rng_for(0, "lint", "sig-determinism", strict)
        permuted = _permute_unordered(plan, rng)
        if reference_signature(permuted, False, ctx.salt) != strict:
            yield self.finding(
                "strict signature changed after shuffling Union inputs; "
                "unordered inputs leak their traversal order into the "
                "hash", operator=plan.op_label)


@register
class SignatureCollisionRule(Rule):
    name = "sig-collision"
    severity = "error"
    description = ("Across a workload, equal strict signatures must mean "
                   "structurally equal normalized plans")

    def check_workload(self, plans: Sequence[Tuple[str, LogicalPlan]],
                       ctx: AnalysisContext) -> Iterable[Finding]:
        from repro.signatures.signature import enumerate_subexpressions

        groups: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for job_id, plan in plans:
            memo: Dict[int, str] = {}
            for sub in enumerate_subexpressions(plan, ctx.salt):
                if _is_view_standin(sub.plan):
                    # A ViewScan carries the signature of the expression
                    # it replaced; it is *meant* to collide with it.
                    # plan-viewscan-schema checks the substitution.
                    continue
                key = structural_key(sub.plan, recurring=False, memo=memo)
                bucket = groups.setdefault(sub.strict, {})
                bucket.setdefault(key, (job_id, sub.operator))
        for signature, bucket in groups.items():
            if len(bucket) <= 1:
                continue
            witnesses = sorted(f"{job}:{op}" for job, op in bucket.values())
            yield self.finding(
                f"strict signature {signature[:12]}… is shared by "
                f"{len(bucket)} structurally different subexpressions "
                f"({', '.join(witnesses)}); reuse would substitute the "
                "wrong computation", signature=signature)


@register
class RecurringMaskRule(Rule):
    name = "sig-recurring-mask"
    severity = "error"
    description = ("Recurring signatures must be invariant under stream-"
                   "GUID and param-literal rewrites; strict signatures "
                   "must be sensitive to them")

    def check_plan(self, plan: LogicalPlan,
                   ctx: AnalysisContext) -> Iterable[Finding]:
        probed, changed = probe_inputs(plan)
        if not changed:
            return
        if recurring_signature(probed, ctx.salt) != \
                recurring_signature(plan, ctx.salt):
            yield self.finding(
                "recurring signature changed under a stream-GUID/param "
                "rewrite; the mask is incomplete, so recurring jobs "
                "would never re-match their template",
                operator=plan.op_label)
        if strict_signature(probed, ctx.salt) == \
                strict_signature(plan, ctx.salt):
            yield self.finding(
                "strict signature ignored a stream-GUID/param rewrite; "
                "stale views would keep matching after their inputs "
                "changed", operator=plan.op_label)


@register
class SaltPropagationRule(Rule):
    name = "sig-salt"
    severity = "warn"
    description = ("Signatures must be computed with the runtime-version "
                   "salt, and the salt must actually reach the hash")

    def check_plan(self, plan: LogicalPlan,
                   ctx: AnalysisContext) -> Iterable[Finding]:
        if not ctx.salt:
            yield self.finding(
                "analysis context has no runtime-version salt; views "
                "would survive runtime upgrades that change semantics",
                operator=plan.op_label)
            return
        if _hash_bypasses_salt(plan):
            return  # a bare ViewScan returns its stored signature
        # The probe salt is hashed uncached so it leaves nothing on the
        # job's plan nodes.
        if strict_signature(plan, ctx.salt) == \
                reference_signature(plan, False, ctx.salt + "«probe»"):
            yield self.finding(
                "runtime-version salt does not affect the strict "
                "signature", severity="error", operator=plan.op_label)


@register
class ReuseEligibilityRule(Rule):
    name = "sig-eligibility"
    severity = "error"
    description = ("No non-deterministic or dependency-heavy Process may "
                   "sit beneath a Spool or inside a matched view "
                   "definition")

    def check_node(self, node: LogicalPlan, path: str,
                   ctx: AnalysisContext) -> Iterable[Finding]:
        if isinstance(node, Spool):
            for offender in _ineligible_processes(node.child):
                yield self.finding(
                    f"Spool would materialize UDO {offender.udo_name!r} "
                    f"({_why(offender)}); its output is not safely "
                    "reusable", operator=node.op_label, path=path)
        elif isinstance(node, ViewScan) and ctx.view_store is not None:
            view = ctx.view_store.get(node.signature)
            if view is not None and view.definition is not None and \
                    not is_reuse_eligible(view.definition):
                yield self.finding(
                    f"matched view {node.signature[:12]}… was defined "
                    "over a non-reuse-eligible subexpression",
                    operator=node.op_label, path=path)


def _ineligible_processes(plan: LogicalPlan) -> List[Process]:
    from repro.signatures.signature import MAX_DEPENDENCY_DEPTH

    out = []
    for node in plan.walk():
        if isinstance(node, Process):
            if not node.deterministic or \
                    node.dependency_depth > MAX_DEPENDENCY_DEPTH:
                out.append(node)
    return out


def _why(process: Process) -> str:
    if not process.deterministic:
        return "non-deterministic"
    return f"dependency depth {process.dependency_depth}"
