"""The session's deployment shape: the one setting with no keyword.

Every other setting of a :class:`~repro.api.Session` is spelled once, as
its keyword (``backend=``, ``engine_config=``, ``scheduler_config=``,
``client_config=``, ``lifecycle=``, ``selection_algorithm=``,
``policy=``, ``faults=``); a
SQLite file is a backend instance,
``create_backend("sqlite", sqlite_path=...)``.  What remains here is the
sharded insights deployment::

    Session(config=SessionConfig(shard=ShardConfig(shards=8)))

The environment is read only for ``REPRO_FAULTS`` (+ ``_SEED``), by
:class:`~repro.api.Session` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.shard.supervisor import ShardConfig


@dataclass
class SessionConfig:
    """The shard deployment of a :class:`repro.api.Session`."""

    #: Shard worker processes for the insights service; ``None`` or
    #: ``shards=0`` keeps the classic in-process service.
    shard: Optional[ShardConfig] = None
