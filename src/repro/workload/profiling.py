"""Lightweight workload profiling: repositories without cluster execution.

Figures 2 and 3 are *workload characterizations* -- they need signatures
and input-stream metadata, not simulated latencies.  These helpers build a
:class:`WorkloadRepository` orders of magnitude faster than the full
co-simulation:

* :func:`compile_only_repository` compiles every job of a window (binding,
  rewrites, signatures) without executing rows or scheduling containers --
  enough for the Figure-3 overlap series;
* :func:`synthesize_dataset_sharing` generates the dataset-consumer
  bipartite structure of a whole cluster (hundreds of shared streams with
  Zipf-distributed consumer counts) for the Figure-2 CDF, where the five
  production clusters have thousands of streams that our five cooked
  datasets alone cannot represent.
"""

from __future__ import annotations

from repro.api import Session
from repro.common.clock import SECONDS_PER_DAY
from repro.common.rng import rng_for, zipf_weights
from repro.engine.engine import RUNTIME_VERSION, JobRun
from repro.executor.executor import ExecutionResult
from repro.workload.generator import CookingWorkload
from repro.workload.repository import JobRecord, WorkloadRepository


def compile_only_repository(workload: CookingWorkload,
                            days: int) -> WorkloadRepository:
    """Compile (never execute) every job in the window; record signatures.

    Each job goes through the one record step (:meth:`Session.record`)
    as a run that produced no statistics, so a compile-only record is an
    executed job's record with zero rows, bytes and work.
    """
    with Session() as session:
        engine = session.engine
        workload.install(engine, at=0.0)
        for day in range(days):
            if day > 0:
                workload.cook(engine, day)
            for instance in workload.jobs_for_day(day):
                template = instance.template
                compiled = engine.compile(
                    template.sql, params=instance.params,
                    virtual_cluster=template.virtual_cluster,
                    reuse_enabled=False, now=instance.submit_time)
                session.record(
                    JobRun(compiled, ExecutionResult(rows=[], node_stats=[])),
                    template_id=template.template_id,
                    pipeline_id=template.pipeline_id)
        return session.repository


def synthesize_dataset_sharing(cluster: str,
                               seed: int,
                               streams: int = 400,
                               consumers: int = 900,
                               reads_per_consumer: int = 3,
                               skew: float = 1.05,
                               window_days: int = 7) -> WorkloadRepository:
    """Synthesize one cluster's dataset-consumer graph (Figure 2 substrate).

    ``consumers`` distinct downstream templates each read a handful of
    streams drawn from a Zipf popularity law, reproducing the paper's
    heavy tail where "several datasets are consumed tens to hundreds of
    times, with few getting reused thousands of times".  Higher ``skew``
    or ``reads_per_consumer`` models Cluster1's Asimov-fed sharing.
    """
    rng = rng_for(seed, cluster, "sharing")
    weights = zipf_weights(streams, skew=skew)
    stream_names = [f"{cluster}/stream-{i:04d}" for i in range(streams)]
    repository = WorkloadRepository()
    for consumer in range(consumers):
        count = max(1, min(streams,
                           int(rng.gauss(reads_per_consumer,
                                         reads_per_consumer / 2))))
        reads = set()
        for _ in range(count):
            reads.add(rng.choices(stream_names, weights=weights, k=1)[0])
        submit = rng.uniform(0.0, window_days * SECONDS_PER_DAY)
        repository.add_job(JobRecord(
            job_id=f"{cluster}-consumer-{consumer}",
            virtual_cluster=cluster,
            submit_time=submit,
            template_id=f"{cluster}-template-{consumer}",
            pipeline_id=f"{cluster}-pipe-{consumer % 60}",
            runtime_version=RUNTIME_VERSION,
            input_datasets=tuple(sorted(reads)),
            subexpression_count=0,
        ), [])
    return repository
