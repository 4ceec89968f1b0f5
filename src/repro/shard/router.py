"""The shard router: the insights service over N worker processes.

:class:`ShardRouter` *is* an
:class:`~repro.insights.service.InsightsService` whose partitions are
remote: each :class:`RemotePartition` forwards the operations declared
in :data:`~repro.insights.partition.PARTITION_OPS` to one shard worker
through :meth:`ShardRouter.call`.  Everything the engine and the
fault-tolerant client see -- routing by tag or strict signature, the
kill switch, the generation, usage metrics, lock events, the serial
latency accounting -- is the inherited service code, which is why reuse
decisions and charged latencies are identical for any shard count.  What
this module adds is transport: one connection per shard, one reconnect-
or-restart retry per RPC, and the ``shard.rpc`` / ``shard.death`` fault
seams on the tag lookup.

Failure posture: a dead shard is indistinguishable from a dead service
for the signatures it owns.  The router retries once through the
supervisor's restart policy; if the shard stays dead the RPC surfaces
:class:`~repro.common.errors.InsightsError`, which the client's
retry/circuit-breaker ladder converts into degraded (reuse-free)
compilation without failing jobs.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import (
    InsightsError,
    InsightsTimeout,
    ShardError,
)
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.insights.partition import (
    PARTITION_OPS,
    Lookup,
    annotations_from_wire,
    to_wire,
)
from repro.insights.service import InsightsService
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.shard.protocol import (
    raise_remote,
    recv_frame,
    send_frame,
)
from repro.shard.supervisor import ShardSupervisor


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


class RemotePartition:
    """One shard worker's partition, reached through the router."""

    def __init__(self, router: "ShardRouter", shard_id: int) -> None:
        self.router = router
        self.shard_id = shard_id

    def lookup(self, lists: Sequence[Sequence[str]]) -> Lookup:
        """The one hand-written op: a lookup frame carries the shard
        fault seams, whose injected delay rides back beside the charges."""
        delay = self.router.check_shard_faults(self.shard_id)
        found, charges, _ = self.router.call(
            self.shard_id, "lookup", args=[[list(tags) for tags in lists]])
        return Lookup([[annotations_from_wire(a) for a in per_list]
                       for per_list in found], charges, delay)


def _remote(name: str):
    def stub(self: RemotePartition, *args: object):
        result = self.router.call(self.shard_id, name, args=to_wire(args))
        if PARTITION_OPS[name].annotations_out:
            return annotations_from_wire(result)
        return result
    stub.__name__ = name
    return stub


for _name in PARTITION_OPS:
    if _name not in RemotePartition.__dict__:
        setattr(RemotePartition, _name, _remote(_name))


class ShardRouter(InsightsService):
    """``InsightsService`` over the supervisor's shard processes."""

    def __init__(self, supervisor: ShardSupervisor,
                 recorder=NULL_RECORDER, faults=None) -> None:
        self.supervisor = supervisor
        self.shards = supervisor.config.shards
        self.faults = faults if faults is not None else NULL_FAULTS
        #: One connection per shard, opened on first use.
        self._conns: Dict[int, socket.socket] = {}
        self._request_ids = itertools.count(1)
        #: Per-shard RPC totals (successful round trips).
        self.rpcs = [0] * self.shards
        self.rpc_failures = [0] * self.shards
        super().__init__(recorder, [RemotePartition(self, shard_id)
                                    for shard_id in range(self.shards)])

    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._recorder = value
        self.supervisor.recorder = value

    # ------------------------------------------------------------------ #
    # the RPC plumbing

    def _connection(self, shard_id: int) -> socket.socket:
        sock = self._conns.get(shard_id)
        if sock is None:
            sock = self._conns[shard_id] = self.supervisor.connect(shard_id)
        return sock

    def _drop_connection(self, shard_id: int) -> None:
        """Close the connection to a shard that died or restarted."""
        sock = self._conns.pop(shard_id, None)
        if sock is not None:
            _close(sock)

    def call(self, shard_id: int, method: str, **params: object) -> Any:
        """One shard RPC with a single reconnect-or-restart retry."""
        request = {"id": next(self._request_ids), "method": method,
                   "params": params}
        last_error: Optional[BaseException] = None
        for attempt in (0, 1):
            started = time.perf_counter()
            try:
                sock = self._connection(shard_id)
                send_frame(sock, request)
                reply = recv_frame(sock)
                if reply is None:
                    raise ShardError(
                        f"shard {shard_id} closed the connection")
            except (OSError, ShardError) as error:
                self._drop_connection(shard_id)
                last_error = error
                if attempt == 0:
                    self._heal(shard_id)
                continue
            self.rpcs[shard_id] += 1
            self.recorder.observe(f"shard.{shard_id:02d}.rpc_wall_seconds",
                                  time.perf_counter() - started)
            if reply.get("error") is not None:
                raise_remote(reply["error"])
            return reply.get("result", {})
        self.rpc_failures[shard_id] += 1
        self.recorder.inc("shard.rpc_failures")
        self.recorder.event(
            obs_events.SHARD_RPC_FAILED, shard=shard_id, method=method,
            error=str(last_error) or type(last_error).__name__)
        raise InsightsError(
            f"shard {shard_id} unreachable for {method!r}: {last_error}")

    def _heal(self, shard_id: int) -> None:
        """Between attempts: drop the stale socket, restart a dead shard."""
        self._drop_connection(shard_id)
        if self.supervisor.is_alive(shard_id):
            return
        try:
            self.supervisor.restart(shard_id)
        except ShardError:
            # Restart itself failed; the retry will fail and surface as
            # an InsightsError for the client ladder to absorb.
            pass

    def broadcast(self, method: str, **params: object) -> List[Any]:
        """Run one RPC on every shard, in shard order."""
        return [self.call(shard_id, method, **params)
                for shard_id in range(self.shards)]

    def check_shard_faults(self, shard_id: int) -> float:
        """Fire the shard seams for one lookup frame; returns injected
        delay."""
        if not self.faults.enabled:
            return 0.0
        death = self.faults.check(fault_points.SHARD_DEATH)
        if death.kind == "crash":
            # Really kill the process: the RPC below then exercises the
            # genuine dead-shard path (reconnect, restart, or surface an
            # InsightsError for the client ladder).
            self.supervisor.kill(shard_id)
            self._drop_connection(shard_id)
        outcome = self.faults.check(fault_points.SHARD_RPC)
        if outcome.kind == "drop":
            raise InsightsTimeout(
                f"injected shard.rpc drop on shard {shard_id}")
        if outcome.kind == "error":
            raise InsightsError(
                f"injected shard.rpc error on shard {shard_id}")
        return outcome.delay

    # ------------------------------------------------------------------ #
    # operational surface

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard worker stats plus the router's own RPC tallies; a
        shard's ``busy_seconds`` also counts the re-lookups charged to
        it without a round trip (:meth:`InsightsService.relookup`)."""
        stats = []
        for shard_id, reply in enumerate(self.broadcast("stats")):
            reply["busy_seconds"] += self.relookup_seconds[shard_id]
            reply["router_rpcs"] = self.rpcs[shard_id]
            reply["router_rpc_failures"] = self.rpc_failures[shard_id]
            stats.append(reply)
        return stats

    def close(self) -> None:
        """Close the connections (the supervisor owns the workers)."""
        for shard_id in range(self.shards):
            self._drop_connection(shard_id)

