"""The lint rule engine: rules, findings, reports, and the analyzer.

The reuse feedback loop is only as safe as a handful of invariants that no
tier-1 test checks directly: signatures must be deterministic and
collision-free, recurring masks must actually discard time-varying inputs,
view substitution must preserve schemas, and spools must be well-formed.
The paper's Section 4 ("Signature correctness") documents what happens when
these break silently — *wrong* reuse, which is far worse than no reuse.

This module is the framework half: a :class:`Rule` contributes findings at
one or more scopes (per node, per plan, per workload, per reuse decision);
the :class:`Analyzer` drives a single cycle-safe traversal and dispatches
to every registered rule; a :class:`Report` aggregates findings with
text/JSON rendering and CI-friendly exit codes.  The three rule packs live
in :mod:`repro.analysis.plan_rules`, :mod:`repro.analysis.signature_rules`,
and :mod:`repro.analysis.reuse_rules`.

Findings are mirrored into the flight recorder as ``lint.finding`` events
when a real recorder is installed, so lint results land in the same
capture as the rest of the reuse loop's telemetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.plan.logical import LogicalPlan
from repro.common.errors import ConfigError

#: Severity vocabulary, in increasing order of badness.
SEVERITIES = ("info", "warn", "error")
_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Rule name of the framework-level acyclicity guard (see Analyzer).
ACYCLICITY_RULE = "plan-dag-acyclic"


@dataclass(frozen=True)
class Finding:
    """One violation (or observation) reported by a rule."""

    rule: str
    severity: str
    message: str
    job_id: str = ""
    operator: str = ""
    path: str = ""
    detail: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in _RANK:
            raise ConfigError(f"unknown severity {self.severity!r}")

    @property
    def rank(self) -> int:
        return _RANK[self.severity]

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.job_id:
            out["job_id"] = self.job_id
        if self.operator:
            out["operator"] = self.operator
        if self.path:
            out["path"] = self.path
        if self.detail:
            out["detail"] = self.detail
        return out

    def render(self) -> str:
        where = f" @{self.path}" if self.path else ""
        job = f" [{self.job_id}]" if self.job_id else ""
        return f"{self.severity:<5} {self.rule}{job}{where}: {self.message}"


class Rule:
    """Base class for lint rules.

    A rule overrides any subset of the ``check_*`` hooks; the analyzer
    calls every hook a rule implements.  ``check_node`` runs once per
    operator on the analyzer's single traversal, ``check_plan`` once per
    plan, ``check_workload`` once over the full plan set, and
    ``check_match`` once per recorded reuse decision.
    """

    #: Unique kebab-case identifier (also the suppression key).
    name = ""
    #: Default severity of this rule's findings.
    severity = "error"
    #: One-line description shown in the rule catalog.
    description = ""

    def check_node(self, node: LogicalPlan, path: str,
                   ctx: "AnalysisContext") -> Iterable[Finding]:
        return ()

    def check_plan(self, plan: LogicalPlan,
                   ctx: "AnalysisContext") -> Iterable[Finding]:
        return ()

    def check_workload(self, plans: Sequence[Tuple[str, LogicalPlan]],
                       ctx: "AnalysisContext") -> Iterable[Finding]:
        return ()

    def check_match(self, match: object,
                    ctx: "AnalysisContext") -> Iterable[Finding]:
        return ()

    def finding(self, message: str, severity: Optional[str] = None,
                operator: str = "", path: str = "",
                **detail: object) -> Finding:
        return Finding(rule=self.name, severity=severity or self.severity,
                       message=message, operator=operator, path=path,
                       detail=detail)


#: Global rule registry: name -> rule class.  Packs register at import.
REGISTRY: Dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ConfigError(f"rule {cls.__name__} has no name")
    REGISTRY[cls.name] = cls
    return cls


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule (all the packs)."""
    # Importing the packs populates REGISTRY; deferred to avoid cycles.
    from repro.analysis import lifecycle_rules  # noqa: F401
    from repro.analysis import plan_rules  # noqa: F401
    from repro.analysis import reuse_rules  # noqa: F401
    from repro.analysis import signature_rules  # noqa: F401
    return [cls() for _, cls in sorted(REGISTRY.items())]


def rule_catalog() -> List[Tuple[str, str, str]]:
    """(name, default severity, description) of every registered rule."""
    default_rules()  # ensure packs are imported
    return [(name, cls.severity, cls.description)
            for name, cls in sorted(REGISTRY.items())]


@dataclass
class AnalysisContext:
    """What the rules may consult beyond the plan itself.

    Every field is optional: rules degrade gracefully (skip checks) when
    the catalog, view store, or salt is not supplied.
    """

    catalog: object = None          # repro.catalog.Catalog
    view_store: object = None       # repro.storage.views.ViewStore
    lineage: object = None          # repro.lifecycle.LineageRegistry
    salt: str = ""                  # runtime-version signature salt
    now: float = 0.0                # simulated time of the analysis
    job_id: str = ""


class Report:
    """Aggregated findings with rendering and exit-code semantics."""

    def __init__(self, findings: Optional[Iterable[Finding]] = None) -> None:
        self.findings: List[Finding] = list(findings or ())
        self.plans_analyzed = 0
        self.rules_run = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, other: "Report") -> "Report":
        self.findings.extend(other.findings)
        self.plans_analyzed += other.plans_analyzed
        self.rules_run = max(self.rules_run, other.rules_run)
        return self

    def by_severity(self, severity: str) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity("error")

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity("warn")

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        """CI contract: non-zero iff any error-severity finding."""
        return 0 if self.ok else 1

    def counts(self) -> Dict[str, int]:
        return {severity: len(self.by_severity(severity))
                for severity in SEVERITIES}

    def sorted_findings(self) -> List[Finding]:
        # The full key (through operator and message) makes the JSON
        # rendering byte-stable across runs for CI diffing.
        return sorted(self.findings,
                      key=lambda f: (-f.rank, f.rule, f.job_id, f.path,
                                     f.operator, f.message))

    def render_text(self) -> str:
        lines: List[str] = []
        for finding in self.sorted_findings():
            lines.append(finding.render())
        counts = self.counts()
        lines.append(
            f"{'ok' if self.ok else 'FAIL'}: {counts['error']} errors, "
            f"{counts['warn']} warnings, {counts['info']} info "
            f"({self.plans_analyzed} plans, {self.rules_run} rules)")
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "ok": self.ok,
            "counts": self.counts(),
            "plans_analyzed": self.plans_analyzed,
            "rules_run": self.rules_run,
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def safe_walk(plan: LogicalPlan) -> Tuple[List[Tuple[LogicalPlan, str]],
                                          Optional[str]]:
    """Pre-order (node, path) pairs, stopping at the first back-edge.

    Plans are meant to be trees (sharing is fine, cycles are not);
    ``LogicalPlan.walk`` would recurse forever on a corrupted cyclic
    plan, so the analyzer uses this traversal exclusively.  Returns the
    visited pairs and the path of the cycle-closing edge, if any.
    """
    pairs: List[Tuple[LogicalPlan, str]] = []
    on_path: set = set()
    cycle: List[Optional[str]] = [None]

    def visit(node: LogicalPlan, path: str) -> None:
        if cycle[0] is not None:
            return
        if id(node) in on_path:
            cycle[0] = path
            return
        pairs.append((node, path))
        on_path.add(id(node))
        for index, child in enumerate(node.children()):
            visit(child, f"{path}/{child.op_label}[{index}]")
        on_path.discard(id(node))

    visit(plan, plan.op_label)
    return pairs, cycle[0]


class Analyzer:
    """Walks plans/workloads and dispatches to the registered rules.

    ``suppress`` names rules to skip entirely; ``recorder`` receives one
    ``lint.finding`` event per finding (no-op under the null recorder).
    A rule that raises does not abort the analysis: the exception is
    converted into an error finding against that rule, because a crash
    while checking an invariant is itself a soundness signal.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 suppress: Iterable[str] = (),
                 recorder=NULL_RECORDER) -> None:
        self.suppress = frozenset(suppress)
        all_rules = list(rules) if rules is not None else default_rules()
        self.rules = [r for r in all_rules if r.name not in self.suppress]
        self.recorder = recorder

    # ------------------------------------------------------------------ #
    # entry points

    def analyze_plan(self, plan: LogicalPlan,
                     ctx: Optional[AnalysisContext] = None,
                     job_id: str = "") -> Report:
        """Run node- and plan-scoped rules over one plan."""
        ctx = ctx or AnalysisContext()
        report = Report()
        report.plans_analyzed = 1
        report.rules_run = len(self.rules)
        pairs, cycle = safe_walk(plan)
        if cycle is not None:
            if ACYCLICITY_RULE not in self.suppress:
                self._record(report, Finding(
                    rule=ACYCLICITY_RULE, severity="error",
                    message="plan contains a cycle; downstream rules "
                            "skipped (signatures would not terminate)",
                    path=cycle, operator=type(plan).__name__), job_id, ctx)
            return report  # nothing else is safe to run on a cyclic plan
        for rule in self.rules:
            for finding in self._guard(rule, rule.check_plan, plan, ctx):
                self._record(report, finding, job_id, ctx)
            for node, path in pairs:
                for finding in self._guard(rule, rule.check_node,
                                           node, path, ctx):
                    self._record(report, finding, job_id, ctx)
        return report

    def analyze_workload(self, plans: Sequence[Tuple[str, LogicalPlan]],
                         ctx: Optional[AnalysisContext] = None,
                         include_plans: bool = True) -> Report:
        """Cross-plan rules (collision audits etc.) over a workload.

        ``plans`` is a sequence of ``(job_id, plan)`` pairs.  With
        ``include_plans`` (the default) each plan is also analyzed
        individually first.
        """
        ctx = ctx or AnalysisContext()
        report = Report()
        report.rules_run = len(self.rules)
        acyclic: List[Tuple[str, LogicalPlan]] = []
        for job_id, plan in plans:
            if include_plans:
                report.extend(self.analyze_plan(plan, ctx, job_id=job_id))
            _, cycle = safe_walk(plan)
            if cycle is None:
                acyclic.append((job_id, plan))
        for rule in self.rules:
            for finding in self._guard(rule, rule.check_workload,
                                       acyclic, ctx):
                self._record(report, finding, "", ctx)
        return report

    def analyze_matches(self, matches: Sequence[object],
                        ctx: Optional[AnalysisContext] = None,
                        job_id: str = "") -> Report:
        """Rules over recorded reuse decisions (ViewMatch records)."""
        ctx = ctx or AnalysisContext()
        report = Report()
        report.rules_run = len(self.rules)
        for rule in self.rules:
            for match in matches:
                for finding in self._guard(rule, rule.check_match,
                                           match, ctx):
                    self._record(report, finding, job_id, ctx)
        return report

    # ------------------------------------------------------------------ #
    # internals

    def _guard(self, rule: Rule, hook, *args) -> List[Finding]:
        try:
            return list(hook(*args))
        except Exception as exc:  # noqa: BLE001 - converted to a finding
            return [Finding(
                rule=rule.name, severity="error",
                message=f"rule crashed: {type(exc).__name__}: {exc}",
                detail={"crash": True})]

    def _record(self, report: Report, finding: Finding, job_id: str,
                ctx: AnalysisContext) -> None:
        if not finding.job_id and (job_id or ctx.job_id):
            finding = replace(finding, job_id=job_id or ctx.job_id)
        report.add(finding)
        self.recorder.event(
            obs_events.LINT_FINDING, at=ctx.now, job_id=finding.job_id,
            rule=finding.rule, severity=finding.severity,
            message=finding.message, path=finding.path)
