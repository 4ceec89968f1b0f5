"""Outside-in tracing: spans recorded from the harness side only.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
swaps a timing wrapper in for the public callable at each layer
boundary -- a module-level name as the calling module bound it, or a
method on its class -- and :meth:`Tracer.restore` puts every original
back.  Spans stay in memory (one list per thread, so recording takes no
lock) and are written out when the run ends.

A span is ``name, start, end, parent, thread, trace, note``.  ``trace``
is the engine's job id, shared by every span of one job; ``note`` is a
count taken at the same boundary (a lock denied, bytes journaled).  A
layer's *self* time is its span minus the part its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Indexes into the in-memory span record (a list: cheaper than an
# object on the hot path).
NAME, START, END, PARENT, TRACE, NOTE = range(6)


@dataclass(frozen=True)
class Span:
    """One finished span, as dumped and as :func:`self_times` reads it."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    trace: Optional[str] = None
    note: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    span: str
    #: ``note(result, args, kwargs)`` -> the count stored on the span.
    note: Optional[Callable] = None
    #: ``trace_of(args, kwargs)`` -> the job id, where the call knows it.
    trace_of: Optional[Callable] = None

    def resolve(self) -> object:
        """The module or class that holds ``attr``."""
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


class _ThreadSpans:
    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.spans: List[list] = []
        self.stack: List[list] = []


class Tracer:
    """Records spans and owns the wrappers that produce them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._registry = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording

    def _mine(self) -> _ThreadSpans:
        mine = getattr(self._local, "spans", None)
        if mine is None:
            mine = self._local.spans = _ThreadSpans(threading.get_ident())
            with self._registry:
                self._threads.append(mine)
        return mine

    def begin(self, name: str, trace: Optional[str] = None) -> list:
        mine = self._mine()
        stack = mine.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else None, trace, None]
        mine.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.spans.stack.pop()

    # ------------------------------------------------------------------ #
    # wrappers

    def _wrapper(self, fn: Callable, target: Target) -> Callable:
        begin, end = self.begin, self.end
        name, note, trace_of = target.span, target.note, target.trace_of

        def traced(*args, **kwargs):
            span = begin(name, trace_of(args, kwargs) if trace_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if note is not None:
                span[NOTE] = note(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap each target in place; undone by :meth:`restore`."""
        for target in targets:
            owner = target.resolve()
            # ``__dict__`` keeps a staticmethod/inherited attribute apart
            # from a plain function; only plain functions are wrapped.
            original = owner.__dict__[target.attr]
            setattr(owner, target.attr, self._wrapper(original, target))
            self._patched.append((owner, target.attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # reading

    def spans(self) -> List[Span]:
        """Every finished span, ids assigned thread by thread."""
        with self._registry:
            threads = list(self._threads)
        ids: Dict[int, int] = {}
        for mine in threads:
            for raw in mine.spans:
                ids[id(raw)] = len(ids)
        out: List[Span] = []
        for mine in threads:
            for raw in mine.spans:
                if raw[END] == 0.0:
                    continue  # still open (the run raised inside it)
                root = raw
                while root[TRACE] is None and root[PARENT] is not None:
                    root = root[PARENT]
                parent = raw[PARENT]
                out.append(Span(
                    id=ids[id(raw)], name=raw[NAME], start=raw[START],
                    end=raw[END],
                    parent=ids[id(parent)] if parent is not None else None,
                    thread=mine.thread, trace=root[TRACE], note=raw[NOTE]))
        return out

    def dump(self, path: str, spans: Optional[Sequence[Span]] = None) -> None:
        spans = self.spans() if spans is None else spans
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> seconds of the span not covered by its child spans.

    The covered part is the union of the children's intervals clipped to
    the parent, so overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = span.seconds - covered
    return out


# --------------------------------------------------------------------- #
# the layer boundaries

def _job_id_kwarg(args, kwargs):
    return kwargs.get("job_id")


def _compiled_job_id(args, kwargs):
    return args[1].job_id


def _denied(result, args, kwargs):
    return 0 if result else 1


def _journal_bytes(result, args, kwargs):
    # CatalogJournal.append_record(self, op, payload, ...) and
    # ShardedCatalogJournal.append(self, op, **payload).
    payload = args[2] if len(args) > 2 else kwargs
    return len(json.dumps([args[1], payload], default=str))


#: Wrapped before ``Session(...)`` so the shard spawn is timed; the
#: forked workers inherit only this one wrapper, which they never call.
SPAWN_TARGETS: Tuple[Target, ...] = (
    Target("repro.shard.supervisor:ShardSupervisor", "start", "shard.spawn"),
)


def layer_targets(backend_class: type) -> Tuple[Target, ...]:
    """Every other boundary; installed once the session (and its shard
    processes) exist, so the workers run unwrapped."""
    backend = f"{backend_class.__module__}:{backend_class.__name__}"
    engine, runner, api = ("repro.engine.engine", "repro.core.runner",
                           "repro.api")
    return (
        Target(engine, "parse", "sql.parse"),
        Target("repro.plan.builder:PlanBuilder", "build", "plan.build"),
        Target(engine, "apply_rewrites", "optimizer.rewrite"),
        Target(engine, "normalize", "plan.normalize"),
        Target(engine, "enumerate_subexpressions", "signatures.enumerate"),
        Target(engine, "strict_signature", "signatures.sign"),
        Target(engine, "recurring_signature", "signatures.sign"),
        Target(runner, "strict_signature", "signatures.sign"),
        Target(runner, "recurring_signature", "signatures.sign"),
        Target(engine, "optimize", "optimizer.optimize"),
        Target(engine + ":ScopeEngine", "compile", "engine.compile",
               trace_of=_job_id_kwarg),
        Target(engine + ":ScopeEngine", "execute", "engine.execute",
               trace_of=_compiled_job_id),
        Target(backend, "execute", "backends.execute"),
        Target(backend, "load_table", "backends.load_table"),
        Target("repro.insights.client:InsightsClient", "fetch_annotations",
               "insights.fetch"),
        Target("repro.insights.client:InsightsClient", "acquire_view_lock",
               "insights.lock", note=_denied),
        Target("repro.insights.client:InsightsClient", "publish",
               "insights.publish"),
        Target("repro.shard.router:ShardRouter", "call", "shard.rpc"),
        Target("repro.storage.views:ViewStore", "seal", "storage.seal"),
        Target("repro.storage.views:ViewStore", "pin", "storage.pin",
               note=_denied),
        Target(api, "record_job_into", "core.ingest"),
        Target(api, "build_candidates", "selection.candidates"),
        Target(api, "run_selection", "selection.select",
               note=lambda result, args, kwargs: len(result.selected)),
        Target("repro.lifecycle.journal:CatalogJournal", "append_record",
               "lifecycle.journal_append", note=_journal_bytes),
        Target("repro.shard.journal:ShardedCatalogJournal", "append",
               "lifecycle.journal_append", note=_journal_bytes),
        Target("repro.lifecycle.invalidation:InvalidationBus", "publish",
               "lifecycle.invalidate"),
        Target("repro.lifecycle.manager:LifecycleManager", "sweep",
               "lifecycle.gc_sweep",
               note=lambda result, args, kwargs: (
                   result.expired + result.removed + result.budget_evicted)),
        Target("repro.scheduler.scheduler:JobScheduler", "drain",
               "scheduler.drain"),
        Target("repro.workload.generator:CookingWorkload", "cook",
               "workload.cook"),
    )
