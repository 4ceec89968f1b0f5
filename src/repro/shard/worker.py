"""One shard worker process: an insights partition behind a socket.

Each worker owns ``1/N`` of the annotation space (partitioned by tag --
the tag is itself a hash of the recurring signature, so this *is* the
paper's signature-hash partitioning), the view-lock entries whose strict
signatures hash to it, and, when journaling is on, its own
:class:`~repro.lifecycle.journal.JournalFile` WAL under
``<journal_dir>/shard-NN``.  The partition is a bare
:class:`~repro.insights.partition.Partition` -- the same tables the
unsharded service keeps in process -- and the worker serves exactly the
operations :data:`~repro.insights.partition.PARTITION_OPS` declares.

The worker holds no policy: generation counting, the kill switch, usage
metrics and events all live in the one
:class:`~repro.insights.service.InsightsService` code the
:class:`~repro.shard.router.ShardRouter` inherits.  The worker is one
thread: a ``selectors`` loop over the listener the supervisor bound
before forking and every connection accepted from it, answering one
request at a time -- the real concurrency unit is the shard *process*,
which is exactly what the throughput benchmark measures via each
worker's accumulated ``busy_seconds``.

Durability contract: every WAL frame is flushed before the RPC reply,
and the annotation partition is rewritten atomically (temp + rename) on
every install/remove, so a SIGKILL at any instant loses no
acknowledged state; the supervisor's restart simply reloads both.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ShardError
from repro.insights.partition import (
    PARTITION_OPS,
    Partition,
    annotations_from_wire,
    to_wire,
)
from repro.lifecycle.journal import JournalFile
from repro.shard.protocol import error_payload, recv_frame, send_frame

#: File the worker's annotation partition persists to (atomically), so a
#: restarted shard serves the same slice it served before dying.
ANNOTATIONS_FILE = "annotations.json"


@dataclass
class WorkerSpec:
    """Everything a shard worker needs besides its listening socket."""

    shard_id: int
    #: Scratch directory for the annotation partition file.
    state_dir: str
    #: Per-shard journal directory (``<journal_dir>/shard-NN``); ``None``
    #: disables the WAL for this deployment.
    journal_dir: Optional[str] = None


class ShardWorker:
    """The in-process guts of one shard (also used directly by tests)."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.partition = Partition()
        self.journal: Optional[JournalFile] = None
        if spec.journal_dir is not None:
            self.journal = JournalFile(spec.journal_dir)
        self.requests_served = 0
        #: Per-job tag lists served (a lookup frame carries one per job
        #: of its wave).
        self.fetch_requests = 0
        #: Simulated seconds this shard spent serving fetches -- the
        #: benchmark's per-shard makespan input.
        self.busy_seconds = 0.0
        self._annotations_path = os.path.join(spec.state_dir,
                                              ANNOTATIONS_FILE)
        if os.path.exists(self._annotations_path):
            with open(self._annotations_path, "r",
                      encoding="utf-8") as handle:
                self.partition.install(annotations_from_wire(
                    json.load(handle).get("annotations", ())))

    # ------------------------------------------------------------------ #
    # annotation-partition persistence

    def _persist_annotations(self) -> None:
        os.makedirs(self.spec.state_dir, exist_ok=True)
        tmp = self._annotations_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"annotations": to_wire(self.partition.annotations())},
                      handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._annotations_path)

    # ------------------------------------------------------------------ #
    # request dispatch

    def handle(self, method: str, params: Dict[str, object]) -> object:
        self.requests_served += 1
        if method in PARTITION_OPS:
            return self._partition_op(method, list(params["args"]))
        handler = getattr(self, f"_op_{method}", None)
        if handler is None:
            raise ShardError(f"unknown shard RPC method {method!r}")
        return handler(params)

    def _partition_op(self, name: str, args: List[object]) -> object:
        """Run one declared partition op; annotations cross as dicts."""
        if PARTITION_OPS[name].annotations_in:
            args[0] = annotations_from_wire(args[0])
        result = getattr(self.partition, name)(*args)
        if name == "lookup":
            self.fetch_requests += sum(map(bool, result.charges))
            self.busy_seconds += sum(map(sum, result.charges))
        elif name == "install" or (name == "remove" and result):
            self._persist_annotations()
        return to_wire(result)

    def _op_ping(self, params: Dict[str, object]) -> Dict[str, object]:
        return {"ok": True, "shard": self.spec.shard_id, "pid": os.getpid()}

    # -- the per-shard WAL --------------------------------------------- #

    def _require_journal(self) -> JournalFile:
        if self.journal is None:
            raise ShardError(
                f"shard {self.spec.shard_id} was started without a "
                f"journal directory")
        return self.journal

    def _op_journal_append(self, params: Dict[str, object]
                           ) -> Dict[str, object]:
        """Write one frame of ``[line, torn]`` records with one flush."""
        self._require_journal().commit(params["records"])
        return {"ok": True}

    def _op_journal_snapshot(self, params: Dict[str, object]
                             ) -> Dict[str, object]:
        """Write this shard's slice of the *live* global state, as sent:
        the parent's journal slices the records by owner, the file is
        this shard's (which heals any WAL op lost to an injected fault)."""
        return {"path": self._require_journal().snapshot(
            dict(params["state"]))}

    def _op_journal_recover(self, params: Dict[str, object]
                            ) -> Dict[str, object]:
        return self._require_journal().recover()

    def _op_journal_stats(self, params: Dict[str, object]
                          ) -> Dict[str, object]:
        return {"stats": self._require_journal().stats()}

    # -- operational --------------------------------------------------- #

    def _op_stats(self, params: Dict[str, object]) -> Dict[str, object]:
        return {
            "shard": self.spec.shard_id,
            "pid": os.getpid(),
            "requests_served": self.requests_served,
            "fetch_requests": self.fetch_requests,
            "busy_seconds": self.busy_seconds,
            "annotations": self.partition.count(),
            "held_locks": len(self.partition.lock_snapshot()),
            "journal": (self.journal.stats()
                        if self.journal is not None else None),
        }

    # ------------------------------------------------------------------ #
    # the socket server

    def serve_forever(self, listener: socket.socket) -> None:
        """Accept and answer on every connection from one loop.

        The loop multiplexes rather than serving one connection to its
        end: a restarted worker is forked from the client process and so
        holds copies of the router's sockets to its sibling shards, where
        a connection the router drops may therefore never reach EOF.
        """
        with selectors.DefaultSelector() as selector:
            selector.register(listener, selectors.EVENT_READ)
            while True:
                for key, _ in selector.select():
                    if key.fileobj is listener:
                        conn, _ = listener.accept()
                        selector.register(conn, selectors.EVENT_READ)
                    elif not self._answer(key.fileobj):
                        selector.unregister(key.fileobj)
                        key.fileobj.close()

    def _answer(self, conn: socket.socket) -> bool:
        """Answer one request; ``False`` once the peer has gone."""
        try:
            request = recv_frame(conn)
            if request is None:
                return False
            reply: Dict[str, object] = {"id": request.get("id")}
            try:
                reply["result"] = self.handle(
                    str(request.get("method", "")),
                    dict(request.get("params", {})))
            except Exception as error:  # noqa: BLE001 - wire boundary
                reply["error"] = error_payload(error)
            send_frame(conn, reply)
            return True
        except (OSError, ShardError):
            return False  # peer vanished; the router handles its own retry


def worker_main(spec: WorkerSpec, listener: socket.socket) -> None:
    """Child-process entry point: serve the listener the supervisor bound."""
    ShardWorker(spec).serve_forever(listener)
