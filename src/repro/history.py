"""Histories: one interpreter under every differential oracle.

A *history* is a plain list of steps, each a tuple ``(kind, *arguments)``
-- ``("install", install)``, ``("cook", workload, day)``, ``("evict",
now)``, ``("wave", now, [(key, JobRequest)])``, ``("publish", *window)``,
``("sweep", now)``, ``("restart", shard)`` and ``("hook", call)`` (see
:data:`STEPS`) -- and :func:`replay` is the only code that runs one
through a :class:`~repro.api.Session`.  Each oracle is a generator of
histories plus the comparator it already had:

* ``repro chaos`` (:func:`repro.faults.chaos.chaos_history`): a day as
  fixed-size waves at the day's start, then a publish and a GC sweep;
  a faulted sharded run restarts one shard at each day boundary;
* ``repro diff-backends`` (:mod:`repro.backends.differential`): one job
  per wave at its submit time, over the backend x reuse lattice;
* the wave schedule of :class:`~repro.simulation.WorkloadSimulation`:
  waves cut by arrival time, the windowed publish at each boundary.

How a day is cut into waves, the ``now`` of each wave and where publish
and sweep sit are data in the history, not options of the interpreter.
A one-job wave is the serial path: the scheduler's completion pass
(seal, record history, ingest) is what :meth:`Session.run` does after
its one execute, so rows, decisions and digest come out the same.

Rows are compared in a backend-neutral canonical form
(:func:`canonical_rows`): ``True`` is ``1`` and ``5.0`` is ``5`` (SQLite
has no boolean storage class and freely returns integral reals), and
floats round to 9 significant digits (aggregation order differs between
backends, so the last few ulps of a float sum may too).  Everything
else -- NULLs, strings, ints -- must match exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

from repro.lifecycle.lineage import LineageRegistry
from repro.plan.expressions import Row
from repro.scheduler.results import JobResult
from repro.scheduler.scheduler import JobRequest
from repro.shard.journal import merged_offline_recovery
from repro.storage.views import ViewStore


def canonical_value(value: object) -> object:
    """Backend-neutral form of one cell value."""
    if isinstance(value, bool):
        value = int(value)
    if value is None:
        return None
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == 0.0:
            value = 0.0  # collapse -0.0
        return format(value, ".9g")
    if isinstance(value, int):
        return str(value)
    return value


def canonical_rows(rows: List[Row]) -> List[str]:
    """Order-independent canonical serialization of a result set."""
    return sorted(
        json.dumps({k: canonical_value(v) for k, v in row.items()},
                   sort_keys=True)
        for row in rows)


# ---------------------------------------------------------------------- #
# steps: ``(kind, *arguments)``, applied as ``STEPS[kind](session, ...)``


def _wave(session, now: float, jobs: List[Tuple[str, JobRequest]]
          ) -> Dict[str, JobResult]:
    """One scheduler wave (a barrier, DESIGN §8) of keyed requests."""
    results = session.run_batch([job for _, job in jobs], now=now)
    return dict(zip((key for key, _ in jobs), results))


def _restart(session, shard: int) -> None:
    """SIGKILL one insights shard and bring it back (waves drained, no
    view lock held); it reloads its persisted annotations."""
    session.supervisor.kill(shard)
    session.supervisor.restart(shard)


#: Every step kind and what applying it does.  ``install`` takes a
#: workload's ``install`` (or a bound ``install_tpcds``); ``cook`` rolls
#: the fact streams' GUIDs; ``publish`` is one selection epoch over an
#: optional ``start, end`` window; ``hook`` calls a caller's code (the
#: simulation's ``on_day_boundary``).  :func:`apply` keeps what a wave
#: returns (its keyed results) and ignores every other return value.
STEPS: Dict[str, Callable] = {
    "install": lambda session, install: install(session.engine),
    "cook": lambda session, workload, day: workload.cook(session.engine, day),
    "evict": lambda session, now: session.evict_expired(now),
    "wave": _wave,
    "publish": lambda session, *window: session.analyze_and_publish(*window),
    "sweep": lambda session, now: session.gc_sweep(now=now),
    "restart": _restart,
    "hook": lambda session, call: call(),
}


def day_jobs(workload, day: int, reuse: bool = True
             ) -> List[Tuple[float, str, JobRequest]]:
    """A cooking day's jobs as ``(submit_time, key, request)`` in
    submission order; the key is ``d{day}:{index}:{template_id}``."""
    return [
        (job.submit_time, f"d{day}:{index}:{job.template.template_id}",
         JobRequest(sql=job.template.sql, params=dict(job.params),
                    virtual_cluster=job.virtual_cluster,
                    reuse_enabled=reuse,
                    template_id=job.template.template_id,
                    pipeline_id=job.template.pipeline_id))
        for index, job in enumerate(workload.jobs_for_day(day))]


# ---------------------------------------------------------------------- #
# the interpreter


@dataclass
class Outcome:
    """Everything one replay produced that a comparator reads."""

    #: ``key -> JobResult`` in submission order.
    results: Dict[str, JobResult] = field(default_factory=dict)
    views_created: int = 0
    views_reused: int = 0
    live_digest: str = ""
    #: :func:`recover`'s digest, set by a caller whose session journals.
    recovered_digest: str = ""
    #: ``FaultRuntime.stats()`` of the run (empty when fault-free).
    fired: Dict[str, object] = field(default_factory=dict)

    @property
    def rows(self) -> Dict[str, List[str]]:
        """``key -> canonical rows`` of every job that completed."""
        return {key: canonical_rows(result.rows)
                for key, result in self.results.items() if result.ok}

    @property
    def decisions(self) -> Dict[str, Tuple[int, int]]:
        """``key -> (views_built, views_reused)``."""
        return {key: (result.views_built, result.views_reused)
                for key, result in self.results.items()}

    @property
    def failures(self) -> Dict[str, str]:
        """``key -> error`` of every job that did not complete."""
        return {key: str(result.error)
                for key, result in self.results.items() if not result.ok}


def apply(steps: Iterable[tuple], session) -> Dict[str, JobResult]:
    """Apply ``steps`` to ``session`` in order; their waves' results."""
    results: Dict[str, JobResult] = {}
    for kind, *arguments in steps:
        done = STEPS[kind](session, *arguments)
        if kind == "wave":
            results.update(done)
    return results


def replay(history: Iterable[tuple], session) -> Outcome:
    """The one interpreter: apply ``history`` and summarise the session.

    The caller owns the session (and holds it in ``with``, so a step
    that raises still tears down the journal and shard processes).
    """
    faults = session.faults
    return Outcome(results=apply(history, session),
                   views_created=session.views_created,
                   views_reused=session.views_reused,
                   live_digest=session.catalog_digest(),
                   fired=faults.stats() if faults.enabled else {})


def recover(journal_dir: str) -> str:
    """The catalog digest a fresh store recovers from ``journal_dir``.

    Reads per-shard WALs when present and the classic single-journal
    layout otherwise, so one call covers both deployments.
    """
    store = ViewStore()
    merged_offline_recovery(journal_dir, store, LineageRegistry())
    return store.catalog_digest()
