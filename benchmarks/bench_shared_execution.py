"""Section 5.4 prototype: pipelined sharing across concurrent queries.

The paper leaves concurrent-query reuse as future work ("intermediate
results may be directly pipelined").  This bench runs a burst of
concurrently-submitted jobs -- which ordinary CloudViews cannot help
(Section 4, schedule-aware views) -- through the shared batch executor
and measures the work the pipelining recovers.
"""

from repro.api import Session
from repro.catalog import schema_of
from repro.extensions import SharedBatchExecutor

#: A burst pipeline: one team's concurrent dashboard refresh.
BURST = [
    "SELECT n, SUM(v) AS s FROM T JOIN D WHERE v > 10 GROUP BY n",
    "SELECT n, COUNT(*) AS c FROM T JOIN D WHERE v > 10 GROUP BY n",
    "SELECT n, AVG(v) AS a FROM T JOIN D WHERE v > 10 GROUP BY n",
    "SELECT n, MAX(v) AS m FROM T JOIN D WHERE v > 10 GROUP BY n",
    "SELECT k, SUM(v) AS s FROM T WHERE v > 10 GROUP BY k",
    "SELECT k, COUNT(*) AS c FROM T WHERE v > 50 GROUP BY k",
]


def make_session():
    session = Session()
    session.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 8, v=float(i % 173)) for i in range(2000)])
    session.register_table(
        schema_of("D", [("k", "int"), ("n", "str")]),
        [dict(k=i, n=f"team-{i}") for i in range(8)])
    return session


def run_flow():
    session = make_session()
    engine = session.engine
    compiled = [engine.compile(sql, reuse_enabled=False) for sql in BURST]

    # Isolated execution (what the cluster does today for bursts).
    isolated_work = 0.0
    isolated_results = []
    for job in compiled:
        run = engine.execute(job)
        isolated_work += sum(s.rows_in + s.rows_out
                             for _, s in run.result.node_stats)
        isolated_results.append(run.rows)

    # Shared batch execution.
    batch = SharedBatchExecutor(engine)
    results, stats = batch.execute_batch(compiled)
    session.close()
    return isolated_work, isolated_results, results, stats


def test_shared_execution_recovers_burst_work(benchmark):
    isolated_work, isolated_results, results, stats = benchmark.pedantic(
        run_flow, rounds=1, iterations=1)

    saved = (isolated_work - stats.work_computed) / isolated_work * 100
    print("\nSection 5.4: pipelined sharing in a concurrent burst")
    print(f"burst jobs:            {stats.jobs}")
    print(f"isolated work:         {isolated_work:,.0f} units")
    print(f"shared-batch work:     {stats.work_computed:,.0f} units")
    print(f"work saved:            {saved:.1f}%")
    print(f"fragments shared:      {stats.fragments_shared} "
          f"(of {stats.fragments_published} published)")
    print(f"sharing fraction:      {stats.sharing_fraction:.1%}")

    # Shape: a concurrent burst over one hot fragment recovers a large
    # share of its work -- the opportunity Figure 9 quantifies.
    assert saved > 30.0
    assert stats.fragments_shared >= 4
    # Correctness: batch answers match isolated answers exactly.
    for shared, isolated in zip(results, isolated_results):
        assert sorted(map(repr, shared.rows)) == sorted(map(repr, isolated))
