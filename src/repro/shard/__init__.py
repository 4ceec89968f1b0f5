"""Sharded multi-process insights deployment.

The paper's production service runs as a scaled-out deployment rather
than one process; this package reproduces that shape.  N worker
processes each host one :class:`~repro.insights.partition.Partition`
(annotations and view locks routed by recurring-signature hash) behind
``AF_UNIX`` length-prefixed JSON-RPC sockets; a :class:`ShardSupervisor`
owns their lifecycle and a :class:`ShardRouter` -- the
:class:`~repro.insights.service.InsightsService` itself, over those
remote partitions -- is the one service the engine and the
fault-tolerant client see.  Per-shard lifecycle WALs merge on read
(:class:`ShardedCatalogJournal`), so ``catalog_digest`` -- and every
per-job reuse decision -- holds byte-for-byte across shard counts.

Entirely opt-in: ``Session(config=SessionConfig(shard=ShardConfig(shards=8)))``
or ``repro simulate --shards 8``; no ``shard`` (or ``shards=0``) keeps
the classic in-process service on every existing path.  With
``Session(lifecycle=LifecycleConfig(journal_dir=D))`` each shard
journals under ``D/shard-NN``.
"""

from repro.lifecycle.journal import shard_for_op
from repro.shard.journal import ShardedCatalogJournal, merged_offline_recovery
from repro.shard.protocol import (
    MAX_FRAME_BYTES,
    recv_frame,
    send_frame,
)
from repro.shard.router import ShardRouter
from repro.shard.supervisor import ShardConfig, ShardSupervisor
from repro.shard.worker import ShardWorker, WorkerSpec, worker_main

__all__ = [
    "MAX_FRAME_BYTES",
    "ShardConfig",
    "ShardRouter",
    "ShardSupervisor",
    "ShardWorker",
    "ShardedCatalogJournal",
    "WorkerSpec",
    "merged_offline_recovery",
    "recv_frame",
    "send_frame",
    "shard_for_op",
    "worker_main",
]
