"""Spawns, monitors, and restarts the shard worker processes.

The supervisor is the deployment's process manager: it forks N
:func:`~repro.shard.worker.worker_main` children (one per shard), waits
for each to answer a ``ping`` on its ``AF_UNIX`` socket, and restarts
dead shards on demand -- the :class:`~repro.shard.router.ShardRouter`
asks for a restart when an RPC finds a shard unreachable, and chaos
campaigns SIGKILL shards through :meth:`ShardSupervisor.kill` to prove
the deployment heals.

Restart is bounded per shard (:data:`MAX_RESTARTS_PER_SHARD`) so a
crash-looping worker eventually stays dead and the client's circuit
breaker takes over, degrading affected signatures to no-reuse instead
of hammering a corpse.  Teardown never needs worker cooperation: WAL
frames are flushed before their reply and annotation files land
atomically, so ``terminate()`` (SIGTERM) loses nothing acknowledged.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigError, ShardError
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.shard.protocol import recv_frame, send_frame
from repro.shard.worker import WorkerSpec, worker_main


#: Wall-clock budget for one shard RPC (the transport, not the simulated
#: serving latency).
RPC_TIMEOUT_SECONDS = 10.0
#: Wall-clock budget for a spawned worker to answer its first ping, and
#: for a terminated or killed one to be reaped.
SPAWN_TIMEOUT_SECONDS = 20.0
#: Restarts allowed per shard before it is left dead for good.
MAX_RESTARTS_PER_SHARD = 5


@dataclass(kw_only=True)
class ShardConfig:
    """Deployment knobs for the sharded insights service.

    ``shards=0`` (the default everywhere) keeps the classic in-process
    service; any positive count turns on the multi-process deployment.
    """

    shards: int = 0
    #: Directory for sockets and annotation state; a private temp dir
    #: (removed on close) when unset.  Kept short: ``AF_UNIX`` paths cap
    #: at ~107 characters.
    socket_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise ConfigError(f"shards must be >= 0, got {self.shards}")


class ShardSupervisor:
    """Owns the worker processes of one sharded deployment.

    ``journal_dir`` is the lifecycle journal's directory; each shard
    journals under ``<journal_dir>/shard-NN``, and ``None`` journals
    nothing.
    """

    def __init__(self, config: ShardConfig, journal_dir: Optional[str] = None,
                 recorder=NULL_RECORDER, faults=None) -> None:
        if config.shards < 1:
            raise ConfigError(
                "ShardSupervisor needs shards >= 1 "
                f"(got {config.shards}); use the in-process service "
                "for shards=0")
        self.config = config
        self.journal_dir = journal_dir
        self.recorder = recorder
        self.faults = faults if faults is not None else NULL_FAULTS
        # Fork: fast, and the workers share the warmed import state.
        self._ctx = multiprocessing.get_context("fork")
        self._own_dir = config.socket_dir is None
        self._dir = config.socket_dir or tempfile.mkdtemp(prefix="repro-sh-")
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = \
            [None] * config.shards
        self.restarts = [0] * config.shards
        self.spawns = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # layout

    def socket_path(self, shard_id: int) -> str:
        return os.path.join(self._dir, f"s{shard_id}.sock")

    def state_dir(self, shard_id: int) -> str:
        return os.path.join(self._dir, f"state-{shard_id:02d}")

    def shard_journal_dir(self, shard_id: int) -> Optional[str]:
        if self.journal_dir is None:
            return None
        return os.path.join(self.journal_dir,
                            f"shard-{shard_id:02d}")

    def _spec(self, shard_id: int) -> WorkerSpec:
        return WorkerSpec(
            shard_id=shard_id,
            shards=self.config.shards,
            socket_path=self.socket_path(shard_id),
            state_dir=self.state_dir(shard_id),
            journal_dir=self.shard_journal_dir(shard_id),
        )

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        """Spawn every shard and wait until each answers a ping."""
        for shard_id in range(self.config.shards):
            self._spawn(shard_id)
        for shard_id in range(self.config.shards):
            self._wait_ready(shard_id)

    def _spawn(self, shard_id: int) -> None:
        self.faults.fire(fault_points.SHARD_SPAWN)
        process = self._ctx.Process(
            target=worker_main, args=(self._spec(shard_id),),
            name=f"repro-shard-{shard_id}", daemon=True)
        process.start()
        self._procs[shard_id] = process
        self.spawns += 1
        self.recorder.event(obs_events.SHARD_SPAWNED, shard=shard_id,
                            pid=process.pid)

    def _wait_ready(self, shard_id: int) -> None:
        """Poll-connect until the worker's listener answers a ping."""
        deadline = time.monotonic() + SPAWN_TIMEOUT_SECONDS
        path = self.socket_path(shard_id)
        while True:
            try:
                sock = self.connect(shard_id)
            except (OSError, ShardError):
                sock = None
            if sock is not None:
                try:
                    send_frame(sock, {"id": 0, "method": "ping",
                                      "params": {}})
                    reply = recv_frame(sock)
                    if reply and reply.get("result", {}).get("ok"):
                        return
                except (OSError, ShardError):
                    pass
                finally:
                    sock.close()
            process = self._procs[shard_id]
            if process is not None and not process.is_alive():
                raise ShardError(
                    f"shard {shard_id} died during startup "
                    f"(exitcode {process.exitcode}); socket {path}")
            if time.monotonic() > deadline:
                raise ShardError(
                    f"shard {shard_id} did not become ready within "
                    f"{SPAWN_TIMEOUT_SECONDS}s ({path})")
            time.sleep(0.005)

    def connect(self, shard_id: int) -> socket.socket:
        """Dial one shard; the caller owns the returned socket."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(RPC_TIMEOUT_SECONDS)
        try:
            sock.connect(self.socket_path(shard_id))
        except OSError:
            sock.close()
            raise
        return sock

    def is_alive(self, shard_id: int) -> bool:
        process = self._procs[shard_id]
        return process is not None and process.is_alive()

    def kill(self, shard_id: int) -> None:
        """SIGKILL one shard (chaos campaigns; no cleanup runs)."""
        process = self._procs[shard_id]
        if process is None or not process.is_alive():
            return
        process.kill()
        process.join(timeout=SPAWN_TIMEOUT_SECONDS)
        self.recorder.event(obs_events.SHARD_DIED, shard=shard_id,
                            pid=process.pid)

    def restart(self, shard_id: int) -> bool:
        """Respawn a dead shard; ``False`` when policy says leave it dead.

        The restarted worker reloads its annotation partition and keeps
        appending to its existing WAL, so the shard rejoins with the
        state it had acknowledged before dying.
        """
        if self._closed:
            return False
        process = self._procs[shard_id]
        if process is not None and process.is_alive():
            return True  # already healed
        if self.restarts[shard_id] >= MAX_RESTARTS_PER_SHARD:
            return False
        if process is not None:
            process.join(timeout=1.0)
        self.restarts[shard_id] += 1
        self._spawn(shard_id)
        self._wait_ready(shard_id)
        self.recorder.event(obs_events.SHARD_RESTARTED, shard=shard_id,
                            attempt=self.restarts[shard_id])
        return True

    def close(self) -> None:
        """Terminate every worker and reclaim the scratch directory."""
        if self._closed:
            return
        self._closed = True
        procs, self._procs = self._procs, [None] * self.config.shards
        for process in procs:
            if process is None:
                continue
            if process.is_alive():
                process.terminate()
            process.join(timeout=SPAWN_TIMEOUT_SECONDS)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)
        if self._own_dir:
            shutil.rmtree(self._dir, ignore_errors=True)
