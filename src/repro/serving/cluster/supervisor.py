"""The cluster supervisor: one object that owns the whole serving tier.

:class:`Cluster` wires the pieces together — a :class:`WorkerPool` spawning
generations of workers, the :class:`WorkerTable` the router reads, the
:class:`Router` on the public port, and a monitor thread — and owns the
three lifecycle stories the tier promises:

**Crash recovery.**  The monitor waits on the serving generation's
process sentinels, so it wakes the moment a worker dies (a ``kill -9``
included, with or without traffic), and it wakes at once whenever the
router hits a connection failure (``WorkerTable.note_failure``), or else
every heartbeat interval.  A dead worker is respawned while the router's
retry deadline is still running: the in-flight batch retries onto a
surviving (or freshly respawned) worker and the client sees a complete,
bit-identical response — just slower.  Liveness is checked two ways:
``Process.is_alive`` (catches process death instantly) and a rate-limited
HTTP ``/healthz`` probe (catches a wedged-but-running worker after
:data:`HEARTBEAT_MISSES` consecutive failures).  The monitor is the only
place that polls worker processes; the router's relay never does.  A
worker whose last :data:`~repro.serving.cluster.workers.FAILED_ANSWERS_LIMIT`
relayed answers were all 500s is replaced too: the router wakes the monitor
at that count, so a worker whose query handler fails every request leaves
rotation instead of costing every request that draws it a retry.

**Hot reload.**  ``reload()`` resolves the store's current versions; when
they differ from the served generation it spawns a *complete new
generation* (all-ready or the reload fails and the old generation keeps
serving), atomically swaps the router's table pointer, then gracefully
drains the old workers.  A request in flight on an old worker either
finishes before that worker exits or fails at the router, which retries
it on the new generation (worker drain joins no handler thread); requests
racing the swap retry the same way.  Nothing is dropped, and no moment
exists where a client can observe a mix of versions in one response.

**Graceful shutdown.**  ``stop()`` drains outside-in: stop accepting at the
router and close the public port, close the router's pooled worker
connections, *then* drain the workers.  Router handler threads are daemon
threads that no step joins, so idle keep-alive client connections never
hold ``stop()`` open; a relay still in flight may fail, and the client's
retry covers it.  SIGTERM on
``serve_forever`` triggers exactly this path via the same
:func:`~repro.serving.server.install_graceful_shutdown` hook as the
single-process server.
"""

from __future__ import annotations

import threading
import time
import traceback
from multiprocessing.connection import wait
from pathlib import Path
from typing import Sequence

from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.serving import wire
from repro.serving.cluster.router import Router, create_router_server
from repro.serving.cluster.workers import WorkerHandle, WorkerPool, WorkerTable
from repro.serving.server import install_graceful_shutdown
from repro.serving.store import ReleaseStore

__all__ = ["Cluster"]

#: how often the monitor wakes when no worker death or router failure wakes
#: it sooner.
HEARTBEAT_INTERVAL = 0.25
#: the least time between two HTTP ``/healthz`` probes of one worker.
HTTP_HEARTBEAT_INTERVAL = 2.0
#: consecutive failed probes after which a live worker counts as wedged.
HEARTBEAT_MISSES = 3
#: the socket timeout of one HTTP ``/healthz`` heartbeat.
HEARTBEAT_TIMEOUT = 5.0


class Cluster:
    """A multi-process serving tier: router + N workers over one release
    store."""

    def __init__(
        self,
        store: ReleaseStore | str | Path,
        names: Sequence[str] | None = None,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        mmap: bool = True,
    ) -> None:
        if workers < 1:
            raise ReproError("a cluster needs at least one worker")
        self.store = store if isinstance(store, ReleaseStore) else ReleaseStore(store)
        self.names = list(names) if names else None
        self.num_workers = workers
        self.host = host
        self.requested_port = port
        self._pool = WorkerPool(self.store.root, mmap=mmap)
        self.table = WorkerTable()
        self.router = Router(self.table)
        self._server = None
        self._serve_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None
        self._reload_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stop_requested = threading.Event()
        self._wake = wire.Waker()
        self._respawns = 0
        self._last_probe: dict[str, float] = {}
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _resolve_versions(self) -> dict[str, int]:
        names = self.names if self.names else self.store.names()
        if not names:
            raise ReleaseNotFoundError(
                f"store {self.store.root} holds no releases"
            )
        return {name: self.store.resolve_version(name) for name in names}

    def start(self) -> "Cluster":
        if self._started:
            return self
        versions = self._resolve_versions()
        handles = self._pool.spawn_generation(versions, 1, self.num_workers)
        self.table.swap(handles, 1, versions)
        self.router.reload_fn = self.reload
        self.router.respawns_fn = lambda: self._respawns
        self.table.on_failure = self._note_failure
        self._server = create_router_server(self.router, self.host, self.requested_port)
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-cluster-router",
            daemon=True,
        )
        self._serve_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-cluster-monitor", daemon=True
        )
        self._monitor_thread.start()
        self._started = True
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            raise ReproError("cluster is not started")
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def generation(self) -> int:
        return self.table.generation

    @property
    def respawns(self) -> int:
        return self._respawns

    def workers(self) -> list[WorkerHandle]:
        return self.table.workers()

    # ------------------------------------------------------------------
    # Monitoring / crash recovery
    # ------------------------------------------------------------------
    def _note_failure(self, worker: WorkerHandle) -> None:  # noqa: ARG002
        self._wake.wake()

    def _monitor(self) -> None:
        respawned = True
        while not self._stopping.is_set():
            # A dead worker's sentinel stays readable: after a failed
            # respawn only the tick or a router failure wakes the retry.
            sentinels = [
                worker.process.sentinel
                for worker in self.table.workers()
                if respawned and worker.generation == self.table.generation
            ]
            wait([self._wake.sock, *sentinels], timeout=HEARTBEAT_INTERVAL)
            self._wake.clear()
            if self._stopping.is_set():
                return
            try:
                respawned = self._check_workers()
            except Exception:  # noqa: BLE001 - the monitor must survive
                traceback.print_exc()  # to stderr: a failing pass leaves a trace

    def _check_workers(self) -> bool:
        """One pass over the serving generation; False when a respawn
        failed."""
        now = time.monotonic()
        respawned = True
        for worker in self.table.workers():
            if worker.generation != self.table.generation:
                continue  # an old generation draining; not ours to police
            if not worker.is_alive():
                respawned &= self._respawn(worker)
                continue
            if worker.failing:
                # alive and heartbeating, but every request it answers is a
                # 500: replace it as a wedged one
                worker.kill()
                respawned &= self._respawn(worker)
                continue
            last = self._last_probe.get(worker.worker_id, 0.0)
            if now - last < HTTP_HEARTBEAT_INTERVAL:
                continue
            self._last_probe[worker.worker_id] = now
            if worker.heartbeat(timeout=HEARTBEAT_TIMEOUT):
                worker.missed_heartbeats = 0
            else:
                worker.missed_heartbeats += 1
                if worker.missed_heartbeats >= HEARTBEAT_MISSES:
                    # alive but wedged: reclaim the slot the hard way
                    worker.kill()
                    respawned &= self._respawn(worker)
        return respawned

    def _respawn(self, dead: WorkerHandle) -> bool:
        """Replace ``dead``; False when no replacement could start."""
        versions = dict(self.table.versions)
        generation = self.table.generation
        try:
            replacement = self._pool.spawn_worker(versions, generation)
        except ReproError:
            # store vanished or resources exhausted; the next monitor pass
            # retries, and the router keeps retrying surviving workers.
            return False
        if self.table.replace(dead, replacement):
            self._respawns += 1
            self._last_probe.pop(dead.worker_id, None)
        else:  # a generation swap won the race; the newcomer is surplus
            replacement.stop(timeout=5.0)
        try:
            dead.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        dead.process.join(timeout=0)
        return True

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload(self) -> dict:
        """Serve the store's *current* versions, atomically and losslessly.

        Returns a summary dict (also the ``/admin/reload`` response body).
        No-op when the resolved versions already match the active
        generation.
        """
        with self._reload_lock:
            versions = self._resolve_versions()
            if versions == self.table.versions:
                return {
                    "reloaded": False,
                    "generation": self.table.generation,
                    "versions": versions,
                }
            generation = self.table.generation + 1
            handles = self._pool.spawn_generation(
                versions, generation, self.num_workers
            )
            old = self.table.swap(handles, generation, versions)
            self._wake.wake()  # watch the new generation's sentinels
            self._drain_workers(old)
            return {
                "reloaded": True,
                "generation": generation,
                "versions": versions,
            }

    @staticmethod
    def _drain_workers(workers: list[WorkerHandle], timeout: float = 30.0) -> None:
        threads = [
            threading.Thread(target=worker.stop, kwargs={"timeout": timeout})
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout + 5.0)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful outside-in drain; idempotent."""
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        self._stopping.set()
        self._wake.wake()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10.0)
        # Stop accepting and close the public port; workers drain last.
        # server_close() joins no router handler (they are daemon threads),
        # so a relay still in flight may lose its worker and fail — the
        # client's retry covers it.
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        self.router.close()
        self.table.on_failure = None
        self._drain_workers(self.table.swap([], self.table.generation, {}))
        self._wake.close()

    def _request_stop(self) -> None:
        self._stop_requested.set()

    def serve_forever(self) -> None:  # pragma: no cover - CLI entry point
        """Block until SIGTERM/SIGINT (or KeyboardInterrupt), then drain."""
        if not self._started:
            self.start()
        restore = install_graceful_shutdown(self._request_stop)
        try:
            while not self._stop_requested.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            restore()
            self.stop()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
