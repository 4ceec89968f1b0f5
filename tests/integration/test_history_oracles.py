"""Golden values for the oracles that replay histories (``repro.history``).

``repro chaos``, ``repro diff-backends`` and the simulation's wave
schedule are each a history generator replayed by the one interpreter,
``replay``.  The values below were captured from the private day loops
those generators replaced, so a change to the interpreter, a step or a
generator that moves any digest or count fails here -- not only the
cross-backend equality ``test_backend_differential.py`` asserts.
"""

import multiprocessing

import pytest

from repro.backends.differential import (
    BACKENDS,
    COOKING_SEED,
    cooking_history,
    oracle_config,
    oracle_workload,
    run_cooking_differential,
    run_tpcds_differential,
)
from repro.cli import main
from repro.common.clock import SECONDS_PER_DAY
from repro.faults import chaos
from repro.history import canonical_rows, day_jobs, replay

#: The digest of an empty catalog: reuse off builds nothing.
EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
#: ``workload -> reuse -> (digest, views_created, views_reused)``, the
#: same on both backends.
GOLDEN = {
    "tpcds": {
        True: ("c748605aa9340d097da82978d142f040"
               "aa5e4d510742c27fbe816d8a2907de39", 3, 5),
        False: (EMPTY, 0, 0),
    },
    "cooking": {
        True: ("09abe6ec3f0635722afaf095e1545c58"
               "5c23c79df66b06710a5741c616ef1ac2", 3, 6),
        False: (EMPTY, 0, 0),
    },
}


@pytest.fixture(scope="module")
def differential_reports():
    # CI's arguments: ``repro diff-backends --days 2 --scale-rows 300``.
    return {"tpcds": run_tpcds_differential(scale_rows=300),
            "cooking": run_cooking_differential(days=2)}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_diff_backends_digests_and_counts_are_pinned(differential_reports,
                                                     workload):
    report = differential_reports[workload]
    assert report.ok, report.mismatches
    assert {config: (t.live_digest, t.views_created, t.views_reused)
            for config, t in report.traces.items()} == {
        (backend, reuse): GOLDEN[workload][reuse]
        for backend in BACKENDS for reuse in (True, False)}


def test_simulate_two_days_one_worker_is_pinned(capsys):
    assert main(["simulate", "--days", "2", "--workers", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = {line[:42].strip(): line[42:].strip() for line in out}
    assert (lines["Jobs"], lines["Job Failures"], lines["Views Created"],
            lines["Views Used"]) == ("100", "0", "13", "62")
    assert ("View Catalog Digest  84143b70fe29c34380153a3e186768ff"
            "24e008973352ffbd2c1548718f330da2") in out


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_job_waves_replay_exactly_what_session_run_does(backend):
    """The fact the merge stands on: a wave of one job completes exactly
    as ``Session.run`` does, so the serial oracles lost nothing by
    becoming histories."""
    workload = oracle_workload("diff", COOKING_SEED)
    with oracle_config(backend).open_session() as session:
        replayed = replay(cooking_history(workload, 2, True), session)
    rows, decisions = {}, {}
    with oracle_config(backend).open_session() as session:
        workload.install(session.engine)
        for day in range(2):
            if day > 0:
                workload.cook(session.engine, day)
                session.evict_expired(day * SECONDS_PER_DAY)
            for at, key, job in day_jobs(workload, day):
                result = session.run(
                    job.sql, params=job.params,
                    virtual_cluster=job.virtual_cluster,
                    template_id=job.template_id,
                    pipeline_id=job.pipeline_id, now=at)
                rows[key] = canonical_rows(result.rows)
                decisions[key] = (result.views_built, result.views_reused)
            session.analyze_and_publish()
        digest = session.catalog_digest()
    assert replayed.rows == rows
    assert replayed.decisions == decisions
    assert replayed.live_digest == digest
    assert replayed.views_reused > 0


def test_a_raising_step_strands_no_shard_process(monkeypatch):
    """The chaos pass holds its session in ``with``: a step that raises
    mid-history still tears down the shard workers (and their socket
    directory) before the journal directory they write to is deleted."""
    def fail():
        raise RuntimeError("step failed")

    history = chaos.chaos_history
    monkeypatch.setattr(chaos, "chaos_history",
                        lambda *args: history(*args)[:3] + [("hook", fail)])
    with pytest.raises(RuntimeError, match="step failed"):
        chaos.run_workload("memory", days=2, shards=2)
    assert not [process for process in multiprocessing.active_children()
                if process.name.startswith("repro-shard-")]
