"""The SCOPE-like query engine facade.

Ties the frontend, optimizer, executor, storage, and insights service into
the query-processing flow of Figure 5:

1. ``compile``: parse and bind the job, extract its signature tags, fetch
   annotations from the insights service into the optimizer context, run
   core search (view matching) and the follow-up optimization phase (view
   buildout, taking view locks).
2. ``execute``: run the physical plan; spools materialize views online.
3. ``finish``: the job manager early-seals each view the run wrote and
   notifies the insights service; observed per-subexpression statistics are
   recorded into the workload history.

The engine also owns the *runtime version*: bumping it changes the
signature salt, which invalidates every existing view -- the operational
hazard described in Section 4 ("Impact of changed signatures").
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.backends.base import ExecutionBackend
from repro.backends.memory import InMemoryBackend
from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.common.errors import (
    LintError,
    ReproError,
    StorageError,
    TransientBackendError,
)
from repro.executor.executor import ExecutionResult
from repro.executor.udo import UdoRegistry
from repro.insights.client import InsightsClient
from repro.insights.service import Fetched
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.optimizer.context import Annotation, OptimizerContext
from repro.optimizer.pipeline import OptimizedPlan, optimize
from repro.optimizer.rules import apply_rewrites
from repro.optimizer.stats import StatisticsCatalog
from repro.plan.builder import PlanBuilder
from repro.plan.expressions import Row, conjuncts
from repro.plan.logical import (
    Filter,
    LogicalPlan,
    Scan,
    Spool,
    ViewScan,
    render_plan,
)
from repro.plan.normalize import normalize
from repro.signatures.signature import (
    enumerate_subexpressions,
    recurring_signature,
    strict_signature,
)
from repro.signatures.template import PlanTemplate
from repro.sql.parser import parse
from repro.storage.store import DataStore
from repro.storage.views import DEFAULT_VIEW_TTL, ViewStore


#: Skeletons an engine keeps; ad-hoc SQL pushes out the least recently used.
PLAN_CACHE_SIZE = 1024


class PlanCache:
    """Compile once per template: the :class:`PlanTemplate` of each
    template's latest instance, keyed by what is known before lexing --
    the SQL text and the names of the bound parameters.  Templates are
    immutable and shared by every later instance; whether one still fits
    is decided where it is used (:meth:`ScopeEngine.logical_plan`), so no
    GUID roll, runtime upgrade or forget needs to invalidate anything.
    ``hits + misses`` is every compile: ``unstable`` (a template rejected
    at use) and ``uncacheable`` (a plan refused as one) are misses too.
    """

    def __init__(self, engine: "ScopeEngine") -> None:
        self._engine = engine  # whose recorder mirrors the counters
        self._skeletons: "OrderedDict[tuple, PlanTemplate]" = OrderedDict()
        self.hits = self.misses = self.unstable = 0
        self.uncacheable = self.evicted = 0

    def __len__(self) -> int:
        return len(self._skeletons)

    def get(self, key: tuple) -> Optional[PlanTemplate]:
        return self._skeletons.get(key)

    def put(self, key: tuple, template: PlanTemplate) -> None:
        """Keep ``template`` as the most recently used entry."""
        self._skeletons[key] = template
        self._skeletons.move_to_end(key)
        if len(self._skeletons) > PLAN_CACHE_SIZE:
            self._skeletons.popitem(last=False)
            self.count("evicted")

    def count(self, counter: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)
        self._engine.recorder.inc(f"engine.plan_cache.{counter}")


#: Transient backend failures (busy database file, injected flaky I/O)
#: are retried this many times, immediately, before the job surfaces an
#: error.  Crashes injected by the fault framework count as transient:
#: everything in flight rolled back, so a retry is safe.
EXECUTE_RETRIES = 2

#: A view whose *read* has failed this many times is quarantined: purged
#: from the catalog so the matcher stops routing jobs at it, and
#: hard-removed by the next GC sweep.
QUARANTINE_FAILURES = 3

#: The runtime a new engine starts on.  The version is engine state, not
#: configuration (Section 4): :meth:`ScopeEngine.set_runtime_version` is
#: the one writer, and every signature is salted with it.
RUNTIME_VERSION = "scope-r1"


def _conjunct_count(plan: LogicalPlan) -> int:
    return sum(len(conjuncts(node.predicate)) for node in plan.walk()
               if type(node) is Filter)


def debug_checks_enabled() -> bool:
    """The one reader of ``REPRO_DEBUG_CHECKS``."""
    return os.environ.get("REPRO_DEBUG_CHECKS", "") not in ("", "0", "false")


@dataclass(kw_only=True)
class EngineConfig:
    """Tunables of the engine and its CloudViews integration."""

    overestimate: float = 2.0
    view_ttl_seconds: float = DEFAULT_VIEW_TTL
    #: Debug-mode self-checks (``REPRO_DEBUG_CHECKS``): every plan-template
    #: cache hit is compared with a from-scratch compile, and ``optimize``
    #: re-normalizes what it is told is normalized; a difference raises
    #: LintError.
    debug_checks: bool = field(default_factory=debug_checks_enabled)


@dataclass
class CompiledJob:
    """Output of compilation: the optimized plan plus reuse bookkeeping."""

    job_id: str
    sql: str
    virtual_cluster: str
    optimized: OptimizedPlan
    tags: Tuple[str, ...]
    params: Dict[str, object] = field(default_factory=dict)
    reuse_enabled: bool = True
    compile_latency: float = 0.0
    #: True when the insights fetch fell back to the degradation path
    #: (circuit breaker open / retries exhausted) and the job therefore
    #: compiled with reuse disabled -- the paper's kill-switch behavior.
    degraded: bool = False
    runtime_version: str = ""
    #: Simulated time the job was compiled (its arrival time in the
    #: co-simulation); monitoring orders jobs by it.
    submitted_at: float = 0.0

    @property
    def plan(self) -> LogicalPlan:
        return self.optimized.plan

    @property
    def reused_views(self) -> int:
        return self.optimized.reused_views

    @property
    def built_views(self) -> int:
        return self.optimized.built_views


@dataclass
class JobRun:
    """Result of executing a compiled job."""

    compiled: CompiledJob
    result: ExecutionResult
    sealed_views: List[str] = field(default_factory=list)

    @property
    def rows(self) -> List[Row]:
        return self.result.rows


class ScopeEngine:
    """A miniature SCOPE: compile and execute SQL jobs with CloudViews."""

    def __init__(self,
                 catalog: Optional[Catalog] = None,
                 store: Optional[DataStore] = None,
                 insights: Optional[InsightsClient] = None,
                 config: Optional[EngineConfig] = None,
                 udos: Optional[UdoRegistry] = None,
                 recorder=None,
                 backend: Optional[ExecutionBackend] = None):
        self.catalog = catalog or Catalog()
        if backend is None:
            backend = InMemoryBackend(store=store, udos=udos)
        self.backend = backend
        self.insights = insights or InsightsClient()
        self.config = config or EngineConfig()
        self.runtime_version = RUNTIME_VERSION
        self.view_store = ViewStore(self.config.view_ttl_seconds)
        self.history = StatisticsCatalog()
        self.plan_cache = PlanCache(self)
        self._job_counter = itertools.count(1)
        #: Consecutive read-failure counts per view signature, feeding
        #: the quarantine policy (:data:`QUARANTINE_FAILURES`).
        self._view_failures: Dict[str, int] = {}
        #: Backend drops that failed (:meth:`delete_view_blob`).
        self.blob_delete_failures = 0
        #: The attached :class:`~repro.lifecycle.LifecycleManager`, if any
        #: (it sets this itself).
        self.lifecycle = None
        #: Flight recorder; installing one here also wires the insights
        #: service and view store so the whole feedback loop is recorded.
        self.recorder = NULL_RECORDER
        if recorder is not None:
            recorder.install(self)

    # ------------------------------------------------------------------ #
    # backend access

    @property
    def store(self) -> Optional[DataStore]:
        """The in-memory backend's blob store; ``None`` on external
        backends (extensions that reach for raw batch storage are
        in-memory-only)."""
        return getattr(self.backend, "store", None)

    @property
    def executor(self):
        """The in-memory backend's executor; ``None`` on external
        backends."""
        return getattr(self.backend, "executor", None)

    # ------------------------------------------------------------------ #
    # data management

    def register_table(self, schema: TableSchema, rows: Sequence[Row],
                       at: float = 0.0) -> None:
        """Register a dataset and load its initial stream."""
        version = self.catalog.register(schema, len(rows), created_at=at)
        self.backend.load_table(schema, version.guid, list(rows))

    def bulk_update(self, dataset: str, rows: Sequence[Row],
                    at: float = 0.0, keep_versions: int = 3) -> None:
        """Periodic regeneration of a cooked dataset: new GUID, new rows.

        Older stream blobs are garbage-collected beyond ``keep_versions``
        (running jobs in the simulator compiled against recent versions;
        ancient ones are unreachable).
        """
        version = self.catalog.bulk_update(dataset, len(rows), at=at)
        self.backend.load_table(self.catalog.schema(dataset), version.guid,
                                list(rows))
        versions = self.catalog.entry(dataset).versions
        for stale in versions[:-keep_versions]:
            self.backend.drop_table(stale.guid)

    def gdpr_forget(self, dataset: str, keep_predicate, at: float = 0.0) -> None:
        """Right-to-erasure: drop rows failing ``keep_predicate``."""
        current = self.catalog.current_guid(dataset)
        kept = [row for row in self.backend.scan_table(current)
                if keep_predicate(row)]
        removed = self.catalog.current_version(dataset).row_count - len(kept)
        version = self.catalog.gdpr_forget(dataset, rows_removed=removed, at=at)
        self.backend.load_table(self.catalog.schema(dataset), version.guid,
                                kept)

    def commit_group(self):
        """The lifecycle manager's commit group (a no-op without one):
        the catalog records of one acknowledged step commit together."""
        if self.lifecycle is None:
            return nullcontext()
        return self.lifecycle.commit_group()

    def set_runtime_version(self, version: str) -> None:
        """Upgrade the runtime.  Signatures change; old views go dark."""
        self.runtime_version = version

    def upgrade_runtime(self, version: str) -> None:
        """A runtime upgrade: the new salt, and every published
        annotation withdrawn (its salted signature can no longer match).
        The one body behind ``Session.handle_runtime_upgrade`` and the
        lifecycle's epoch bump."""
        self.set_runtime_version(version)
        self.insights.publish([])

    @property
    def signature_salt(self) -> str:
        return self.runtime_version

    def next_job_id(self) -> str:
        """Draw the next job id.

        The scheduler draws a wave's ids as it opens, in list order,
        rather than at compile time, so a wave labels jobs identically
        to a serial run.
        """
        return f"job-{next(self._job_counter)}"

    # ------------------------------------------------------------------ #
    # compilation

    def compile(self, sql: str,
                params: Optional[Dict[str, object]] = None,
                virtual_cluster: str = "default",
                reuse_enabled: bool = True,
                now: float = 0.0,
                job_id: Optional[str] = None,
                annotations: Optional[Mapping[str, Annotation]] = None,
                planned: Optional[tuple] = None,
                prepared: Optional[Fetched] = None) -> CompiledJob:
        """Parse, bind, and optimize one job (Figure 5, query processing).

        ``planned`` (the job's :meth:`logical_plan`) and ``prepared`` (its
        insights answer, :meth:`InsightsClient.fetch_wave`) are given
        when the scheduler has made them already: it plans every job of
        a wave, and fetches for all of them, before any compiles.

        ``annotations`` (recurring signature -> annotation), when given,
        stands in for the insights fetch: the job compiles against exactly
        that set, which is how an annotations file reproduces an incident
        (:func:`repro.insights.annotations_file.compile_with_annotations`).
        """
        job_id = job_id or self.next_job_id()
        recorder = self.recorder
        recorder.advance_to(now)
        compile_span = recorder.start_span(
            "job.compile", trace_id=job_id, at=now,
            virtual_cluster=virtual_cluster)
        plan, tags, plan_cache = (planned
                                  or self.logical_plan(sql, params or {}))

        compile_latency = 0.0
        degraded = False
        if reuse_enabled and annotations is None:
            fetch_span = recorder.start_span(
                "insights.fetch", trace_id=job_id, at=now,
                parent=compile_span, tags=len(tags))
            annotations, compile_latency, degraded = \
                self.insights.fetch_annotations(tags, now=now,
                                                prepared=prepared)
            fetch_span.annotate("annotations", len(annotations))
            if degraded:
                fetch_span.annotate("degraded", True)
            fetch_span.finish(at=now + compile_latency)

        acquired_locks: List[str] = []

        def _acquire_lock(signature: str) -> bool:
            ok = self.insights.acquire_view_lock(signature, holder=job_id)
            if ok:
                acquired_locks.append(signature)
            return ok

        ctx = OptimizerContext(
            catalog=self.catalog,
            view_store=self.view_store,
            history=self.history,
            annotations=annotations or {},
            salt=self.signature_salt,
            virtual_cluster=virtual_cluster,
            reuse_enabled=(reuse_enabled and self.insights.enabled
                           and not degraded),
            overestimate=self.config.overestimate,
            acquire_view_lock=_acquire_lock,
            debug_checks=self.config.debug_checks,
            recorder=recorder,
            trace_id=job_id,
            compile_span=compile_span,
        )
        try:
            optimized = optimize(plan, ctx, now=now, normalized=True)
        except ReproError:
            # A failed compilation must not leave view locks (or unsealed
            # view slots) behind, or every later job would be locked out
            # of building those signatures.
            for signature in acquired_locks:
                self.view_store.abandon(signature)
                self.insights.release_view_lock(signature, holder=job_id)
            raise
        compile_span.annotate("views_reused", optimized.reused_views)
        compile_span.annotate("views_built", optimized.built_views)
        compile_span.finish(at=now + compile_latency)
        recorder.inc("engine.jobs.compiled")
        if recorder.enabled:
            recorder.event(
                obs_events.JOB_COMPILED, at=now, job_id=job_id,
                virtual_cluster=virtual_cluster,
                sql=sql,
                degraded=degraded,
                plan_cache=plan_cache,
                views_built=optimized.built_views,
                views_reused=optimized.reused_views,
                # Whole-plan costs are read by this event alone; no
                # reuse decision needs them (DESIGN §5).
                estimated_cost=ctx.cost_model.plan_cost(
                    optimized.plan, ctx.estimator),
                estimated_cost_without_reuse=ctx.cost_model.plan_cost(
                    optimized.logical, ctx.estimator),
                plan_text=render_plan(optimized.plan),
            )
        return CompiledJob(
            job_id=job_id,
            sql=sql,
            virtual_cluster=virtual_cluster,
            optimized=optimized,
            tags=tags,
            params=dict(params or {}),
            reuse_enabled=reuse_enabled,
            compile_latency=compile_latency,
            degraded=degraded,
            runtime_version=self.runtime_version,
            submitted_at=now,
        )

    def logical_plan(self, sql: str, params: Dict[str, object]
                     ) -> Tuple[LogicalPlan, Tuple[str, ...], str]:
        """The job's normalized logical plan, its reuse-eligible tags, and
        ``"hit"`` or ``"miss"``.

        A hit binds the cached :class:`PlanTemplate` (validity rules (ii)
        and (iii) are its ``bind``'s).  ``normalize`` reads literal
        *values* (it de-duplicates and orders conjuncts by canonical
        string), so a plan becomes a template only if normalizing it
        dropped no conjunct (rule (i)).  Everything else is parsed, built
        and rewritten from scratch, as it always was.
        """
        cache, key = self.plan_cache, (sql, frozenset(params))
        salt = self.signature_salt
        template = cache.get(key)
        if template is not None:
            bound = template.bind(self.catalog, params, salt)
            if bound is not None:
                if self.config.debug_checks:
                    self._check_against_scratch(bound.plan, sql, params)
                cache.put(key, bound)
                cache.count("hits")
                return bound.plan, bound.tags, "hit"
            cache.count("unstable")
        cache.count("misses")
        rewritten, plan = self._from_scratch(sql, params)
        tags = tuple(sorted({
            sub.tag for sub in enumerate_subexpressions(plan, salt)
            if sub.eligible}))
        if _conjunct_count(plan) == _conjunct_count(rewritten):
            cache.put(key, PlanTemplate.of(plan, salt))
        else:
            cache.count("uncacheable")
        return plan, tags, "miss"

    def _from_scratch(self, sql: str, params: Dict[str, object]
                      ) -> Tuple[LogicalPlan, LogicalPlan]:
        """The rewritten plan and its normal form, called through this
        module's globals (the benchmark tracer patches them by name)."""
        rewritten = apply_rewrites(
            PlanBuilder(self.catalog, params).build(parse(sql)))
        return rewritten, normalize(rewritten)

    def _check_against_scratch(self, plan: LogicalPlan, sql: str,
                               params: Dict[str, object]) -> None:
        """Debug mode: a hit must equal the from-scratch compile node for
        node -- both signatures, tag and eligibility."""
        scratch = self._from_scratch(sql, params)[1]
        cached, fresh = ([
            (sub.depth, sub.strict, sub.recurring, sub.tag, sub.eligible)
            for sub in enumerate_subexpressions(tree, self.signature_salt)]
            for tree in (plan, scratch))
        # A GUID that rolled between the two compiles means they saw
        # different catalogs.
        rolled = any(type(node) is Scan and node.stream_guid
                     != self.catalog.current_guid(node.dataset)
                     for node in plan.walk())
        if cached != fresh and not rolled:
            raise LintError(
                "plan-template cache diverged from a from-scratch compile "
                f"of {sql!r} with {params!r}:\n{plan.explain()}\n-- vs --\n"
                f"{scratch.explain()}")

    # ------------------------------------------------------------------ #
    # execution

    def execute(self, compiled: CompiledJob, now: float = 0.0) -> JobRun:
        """Run the job: pin, execute, retry, fall back -- nothing else.

        Sealing the run's views and recording its statistics are the
        caller's, at the moment its schedule fixes: :meth:`finish` right
        away for a serial caller, the scheduler's wave barrier, or the
        cluster simulator's stage completion (:meth:`seal_spooled`).

        Every ViewScan's backing view is *pinned* for the duration of the
        run: a pinned view is never hard-removed mid-scan.  If a claimed view
        vanished in the window between the matcher's claim and this pin
        (a GC sweep or purge cascade won the race), the job falls back
        to a reuse-free recompile -- a lost claim is just a recompute.

        Failure hardening (the paper's "reuse must never fail a job"):

        * transient backend errors retry up to :data:`EXECUTE_RETRIES`
          times (:meth:`_execute_attempts`);
        * a :class:`StorageError` from a plan that touched views -- a
          view read failing, a spool that cannot write -- abandons the
          builds, notes the failure against every view the plan read
          (quarantining repeat offenders), and re-runs the job as a
          reuse-free recompile.  Only a plain plan's storage error (a
          missing stream, which no recompile can fix) propagates.
        """
        compiled, pinned = self._pin_view_scans(compiled, now)
        try:
            try:
                result = self._execute_attempts(compiled, now)
            except StorageError:
                self._abandon_builds(compiled)
                for signature in pinned:
                    self.view_store.unpin(signature)
                pinned = []
                fallback = self._storage_fallback(compiled, now)
                if fallback is None:
                    raise
                compiled = fallback
                result = self._execute_attempts(compiled, now)
            except ReproError:
                self._abandon_builds(compiled)
                raise
        finally:
            for signature in pinned:
                self.view_store.unpin(signature)
        return JobRun(compiled=compiled, result=result)

    def _execute_attempts(self, compiled: CompiledJob,
                          now: float) -> ExecutionResult:
        """Run the plan, absorbing up to :data:`EXECUTE_RETRIES` transient
        failures (flaky I/O, injected crashes -- anything whose partial
        effects are guaranteed rolled back)."""
        for attempt in range(EXECUTE_RETRIES + 1):
            try:
                return self.backend.execute(compiled.plan)
            except TransientBackendError as error:
                if attempt >= EXECUTE_RETRIES:
                    raise
                self.recorder.inc("execute.transient_retries")
                self.recorder.event(
                    obs_events.EXECUTE_RETRY, at=now,
                    job_id=compiled.job_id,
                    virtual_cluster=compiled.virtual_cluster,
                    attempt=attempt + 1, error=str(error))
        raise AssertionError("unreachable")  # pragma: no cover

    def _storage_fallback(self, compiled: CompiledJob,
                          now: float) -> Optional[CompiledJob]:
        """After a storage failure: degrade to plain recompute, or None.

        Only meaningful when the failed plan actually involved reuse (a
        ViewScan that could not be read, a Spool that could not write);
        a plain plan's storage error is a real data problem and returns
        ``None`` so the caller re-raises.  Every view the failed plan
        read gets a strike; repeat offenders are quarantined.
        """
        touched = [node for node in compiled.plan.walk()
                   if isinstance(node, (Spool, ViewScan))]
        if not touched:
            return None
        self._note_view_failures(compiled, now)
        return self._recompile_without_reuse(compiled, now,
                                             "view_read_failure")

    def _recompile_without_reuse(self, compiled: CompiledJob, now: float,
                                 reason: str) -> CompiledJob:
        """The same job as a plain plan (no ViewScan, no Spool), counted
        and logged as a reuse fallback with its ``reason``."""
        self.recorder.inc("execute.reuse_fallbacks")
        self.recorder.event(obs_events.REUSE_FALLBACK, at=now,
                            job_id=compiled.job_id,
                            virtual_cluster=compiled.virtual_cluster,
                            reason=reason)
        return self.compile(
            compiled.sql,
            params=compiled.params,
            virtual_cluster=compiled.virtual_cluster,
            reuse_enabled=False,
            now=now,
            job_id=compiled.job_id,
        )

    def _note_view_failures(self, compiled: CompiledJob, now: float) -> None:
        """One strike per view the failed plan read; quarantine at
        :data:`QUARANTINE_FAILURES` (purge -> excluded from matching ->
        GC)."""
        for node in compiled.plan.walk():
            if not isinstance(node, ViewScan):
                continue
            count = self._view_failures.get(node.signature, 0) + 1
            self._view_failures[node.signature] = count
            if count < QUARANTINE_FAILURES:
                continue
            if self.view_store.get(node.signature) is None:
                continue
            self.view_store.purge(node.signature, reason="quarantined")
            self.recorder.inc("engine.views.quarantined")
            self.recorder.event(obs_events.VIEW_QUARANTINED, at=now,
                                signature=node.signature,
                                failures=count,
                                job_id=compiled.job_id)

    def _pin_view_scans(self, compiled: CompiledJob,
                        now: float) -> Tuple[CompiledJob, List[str]]:
        """Pin every ViewScan's backing view; recompile on a lost view.

        A view claimed at compile time is only protected from a GC sweep
        once its reader holds a pin, so a sweep landing between
        compile and execute can evict the view (and delete its blobs)
        out from under the plan.  When any pin fails, the already-taken
        pins are released and the job is recompiled with reuse disabled,
        which produces a plan with no ViewScans at all.
        """
        pinned: List[str] = []
        lost = False
        for node in compiled.plan.walk():
            if not isinstance(node, ViewScan):
                continue
            if self.view_store.pin(node.signature):
                pinned.append(node.signature)
            else:
                lost = True
        if not lost:
            return compiled, pinned
        for signature in pinned:
            self.view_store.unpin(signature)
        return self._recompile_without_reuse(compiled, now, "pin_lost"), []

    def seal_spooled(self, run: JobRun, signature: str, at: float) -> None:
        """Early-seal one view produced by ``run`` at simulated time ``at``."""
        spool = next(s for s in run.result.spooled if s.signature == signature)
        seal_span = self.recorder.start_span(
            "spool.seal", trace_id=run.compiled.job_id, at=at,
            signature=spool.signature[:12])
        self.view_store.seal(spool.signature, at,
                             spool.row_count, spool.size_bytes,
                             sealed_by=run.compiled.job_id)
        self.insights.report_view_available(
            spool.signature, holder=run.compiled.job_id)
        run.sealed_views.append(spool.signature)
        seal_span.annotate("rows", spool.row_count).finish(at=at)

    def run_sql(self, sql: str,
                params: Optional[Dict[str, object]] = None,
                virtual_cluster: str = "default",
                reuse_enabled: bool = True,
                now: float = 0.0) -> JobRun:
        """Convenience: compile, execute, finish."""
        compiled = self.compile(sql, params, virtual_cluster,
                                reuse_enabled, now)
        return self.finish(self.execute(compiled, now=now), at=now)

    def finish(self, run: JobRun, at: float) -> JobRun:
        """Complete ``run``: early-seal every view it spooled, then record
        its observed statistics.  What a job reuses is decided by which
        runs were finished before it compiled, so callers finish in an
        order their schedule fixes."""
        for spool in run.result.spooled:
            self.seal_spooled(run, spool.signature, at=at)
        self.record_history(run.result)
        return run

    def record_history(self, result: ExecutionResult) -> None:
        """Ingest one execution's observed per-subexpression statistics."""
        salt = self.signature_salt
        for node, stats in result.node_stats:
            if isinstance(node, Spool):
                continue  # transparent; the child already recorded
            self.history.record(
                strict_signature(node, salt),
                recurring_signature(node, salt),
                stats.rows_out,
                stats.bytes_out,
            )

    def delete_view_blob(self, path: str) -> None:
        """Drop a departed view's materialized rows from the backend (the
        paper's users can "see the CloudViews-generated files").  Every
        path that retires a view from the catalog ends here: expiry, GC
        collection and budget eviction."""
        # Eviction must reach the execution backend, not just the
        # in-memory store: on an external backend (SQLite) the view is a
        # real table, and skipping the drop would leak storage the view
        # catalog no longer tracks.
        try:
            self.backend.drop_view(path)
        except ReproError as error:
            # Leave the blob behind; a failed drop must not abort the
            # caller's pass.
            self.blob_delete_failures += 1
            self.recorder.inc("gc.blob_delete_failures")
            self.recorder.event(obs_events.VIEW_DROP_FAILED,
                                path=path, error=str(error))

    # ------------------------------------------------------------------ #
    # internals

    def _abandon_builds(self, compiled: CompiledJob) -> None:
        """Failed producer: drop unsealed views and release their locks."""
        for proposal in compiled.optimized.proposals:
            self.view_store.abandon(proposal.strict_signature)
            self.insights.release_view_lock(
                proposal.strict_signature, holder=compiled.job_id)
