"""Pre-forked query workers: spawn, liveness, respawn, drain.

One worker is one OS process running the plain single-process server
(:func:`repro.serving.server.create_server` over a
:class:`~repro.serving.server.QueryService`) on an ephemeral localhost
port.  Every worker of a generation opens the *same* pinned release
versions with ``mmap=True``, so N workers cost ~one resident copy of the
release: the ``.dpsb`` pages live once in the page cache and every process
maps them read-only (PR 7's measurement, now multiplied by the pool).

Process discipline (all of it load-bearing for the cluster tests):

* **spawn, not fork** — workers start through the ``spawn`` start method,
  so they never inherit the supervisor's locks, sockets or numpy state
  mid-operation; everything a worker needs travels as a picklable config
  dict plus one duplex control pipe.
* **readiness handshake** — the child builds its service, binds port 0 and
  reports ``("ready", port)`` (or ``("error", message)``) before the
  supervisor counts it as a member; a worker that cannot load the release
  never receives traffic.
* **orphan prevention** — a daemon thread in the worker blocks on the
  control pipe.  If the supervisor dies — even ``kill -9``, where no
  cleanup runs — the OS closes the pipe, the read raises ``EOFError`` and
  the worker ``os._exit``\\ s.  Routers crash; workers must not linger.
* **graceful drain** — a ``"stop"`` control message (or SIGTERM directly
  to the worker) stops accepting and closes the service before the
  process exits, the same drain order as the single-process path.
  Handler threads are daemon threads and are not joined: a request in
  flight when the worker exits fails at the router, which retries it on a
  live worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from typing import Mapping

from repro.exceptions import ReproError
from repro.serving import wire

__all__ = ["WorkerHandle", "WorkerPool", "WorkerTable", "worker_main"]

#: Workers are spawned, never forked: a forked child would inherit the
#: supervisor's lock and socket state at an arbitrary instant.
SPAWN = multiprocessing.get_context("spawn")


def _watch_control(conn, server) -> None:
    """Worker-side control loop: drain on ``"stop"``, die with the parent.

    Runs on a daemon thread so a blocked ``recv`` never holds the worker
    open.  EOF/OSError means the supervisor process is gone (closed pipe —
    including ``kill -9``, where nothing else would tell us): exit
    immediately rather than serve as an orphan nobody routes to or reaps.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(3)
        if message == "stop":
            # shutdown() blocks until serve_forever exits; the main thread
            # then finishes the drain (close the service, exit).
            server.shutdown()
            return


def worker_main(config: dict, conn) -> None:
    """Entry point of one spawned worker process.

    ``config`` is a plain picklable dict: ``store_root``, ``versions``
    (name -> pinned version), ``mmap``, ``host``.  ``conn`` is the child
    end of the control pipe.
    """
    # Imports happen in the child (spawn re-imports the world anyway); kept
    # inside the function so importing this module stays cheap.
    from repro import faults
    from repro.serving.server import QueryService, create_server, install_graceful_shutdown
    from repro.serving.store import ReleaseStore

    try:
        # Chaos schedules travel by environment (spawn inherits os.environ):
        # DPSC_FAULTS / _SEED / _SCOPE / _LOG arm this worker's failpoints
        # before any release is loaded, so every site is in scope.
        faults.arm_from_env()
        store = ReleaseStore(config["store_root"])
        service = QueryService.from_store(
            store,
            versions={name: int(v) for name, v in config["versions"].items()},
            mmap=bool(config.get("mmap", True)),
            micro_batch=False,
        )
        server = create_server(service, config.get("host", "127.0.0.1"), 0)
    except Exception as error:  # noqa: BLE001 - reported to the supervisor
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (OSError, ValueError):
            pass
        os._exit(1)
    watcher = threading.Thread(
        target=_watch_control, args=(conn, server), name="repro-worker-control",
        daemon=True,
    )
    watcher.start()
    restore = install_graceful_shutdown(server.shutdown)
    conn.send(("ready", int(server.server_address[1])))
    try:
        server.serve_forever()
    finally:
        restore()
        server.server_close()  # daemon handler threads are not joined
        service.close()
        try:
            conn.send(("stopped",))
        except (OSError, ValueError):
            pass


class WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(
        self,
        worker_id: str,
        generation: int,
        process,
        conn,
        port: int,
    ) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.process = process
        self.conn = conn
        self.port = port
        self.started_at = time.time()
        #: consecutive failed heartbeats (reset on success); the monitor
        #: respawns a worker that misses several in a row even while its
        #: process object still reports alive (wedged, not dead).
        self.missed_heartbeats = 0

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def heartbeat(self, timeout: float = 2.0) -> bool:
        """One HTTP liveness probe (``/healthz`` answers 200 and parses),
        sent straight to the worker's port: no environment proxy applies."""
        try:
            connection = wire.Connection("127.0.0.1", self.port, timeout)
            try:
                status, _, body = connection.request("GET", "/healthz")
            finally:
                connection.close()
            return status == 200 and json.loads(body.decode("utf-8")).get("status") == "ok"
        except (OSError, wire.ProtocolError, ValueError):
            return False

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain, escalating to terminate/kill on a deadline."""
        if self.process.is_alive():
            try:
                self.conn.send("stop")
            except (OSError, ValueError):
                pass
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(2.0)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join(2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def kill(self) -> None:
        """SIGKILL, no drain — the crash the respawn path exists for."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(2.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive() else "dead"
        return (
            f"WorkerHandle({self.worker_id}, gen={self.generation}, "
            f"port={self.port}, pid={self.pid}, {state})"
        )


class WorkerPool:
    """Spawns workers over one release store; owns no routing policy."""

    def __init__(
        self,
        store_root,
        *,
        host: str = "127.0.0.1",
        mmap: bool = True,
        spawn_timeout: float = 60.0,
    ) -> None:
        self.store_root = str(store_root)
        self.host = host
        self.mmap = mmap
        self.spawn_timeout = spawn_timeout
        self._sequence = 0
        self._lock = threading.Lock()

    def _next_id(self) -> str:
        with self._lock:
            worker_id = f"w{self._sequence}"
            self._sequence += 1
            return worker_id

    def _config(self, versions: Mapping[str, int]) -> dict:
        return {
            "store_root": self.store_root,
            "versions": {name: int(v) for name, v in versions.items()},
            "mmap": self.mmap,
            "host": self.host,
        }

    def spawn_worker(
        self, versions: Mapping[str, int], generation: int
    ) -> WorkerHandle:
        """One ready worker (readiness handshake completed), or raise."""
        return self.spawn_generation(versions, generation, 1)[0]

    def spawn_generation(
        self, versions: Mapping[str, int], generation: int, count: int
    ) -> list[WorkerHandle]:
        """``count`` ready workers serving the same pinned ``versions``.

        All processes start before any readiness is awaited, so a
        generation of N costs one interpreter cold-start, not N in series.
        On any failure every already-started member is torn down — a
        generation is all-ready or absent, never half-alive.
        """
        config = self._config(versions)
        started: list[tuple[str, object, object]] = []
        try:
            for _ in range(count):
                worker_id = self._next_id()
                parent_conn, child_conn = SPAWN.Pipe(duplex=True)
                process = SPAWN.Process(
                    target=worker_main,
                    args=(config, child_conn),
                    name=f"repro-cluster-{worker_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()  # parent copy; EOF detection needs it gone
                started.append((worker_id, process, parent_conn))
            handles = []
            deadline = time.monotonic() + self.spawn_timeout
            for worker_id, process, parent_conn in started:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not parent_conn.poll(remaining):
                    raise ReproError(
                        f"worker {worker_id} did not become ready within "
                        f"{self.spawn_timeout:.0f}s"
                    )
                message = parent_conn.recv()
                if message[0] != "ready":
                    raise ReproError(
                        f"worker {worker_id} failed to start: {message[1]}"
                    )
                handles.append(
                    WorkerHandle(
                        worker_id, generation, process, parent_conn, int(message[1])
                    )
                )
            return handles
        except BaseException:
            for _, process, parent_conn in started:
                if process.is_alive():
                    process.terminate()
                    process.join(2.0)
                try:
                    parent_conn.close()
                except OSError:  # pragma: no cover
                    pass
            raise


class WorkerTable:
    """The router's atomic view of the active worker generation.

    One lock, one list: ``swap`` replaces the whole generation (hot
    reload), ``replace`` swaps a single respawned member in.  The router
    only ever reads a snapshot (``live()``), so a swap mid-request simply
    means retries land on the new generation.  ``note_failure`` is the
    router -> supervisor fast path: a connection failure wakes the monitor
    immediately instead of waiting out the heartbeat interval.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: list[WorkerHandle] = []
        self.generation = 0
        self.versions: dict[str, int] = {}
        #: supervisor wake-up callback, set by the cluster once the monitor
        #: exists (``None`` before start / after stop).
        self.on_failure = None

    def swap(
        self,
        workers: list[WorkerHandle],
        generation: int,
        versions: Mapping[str, int],
    ) -> list[WorkerHandle]:
        with self._lock:
            old = self._workers
            self._workers = list(workers)
            self.generation = generation
            self.versions = dict(versions)
            return old

    def replace(self, old: WorkerHandle, new: WorkerHandle) -> bool:
        with self._lock:
            try:
                index = self._workers.index(old)
            except ValueError:
                return False  # superseded by a generation swap meanwhile
            self._workers[index] = new
            return True

    def workers(self) -> list[WorkerHandle]:
        with self._lock:
            return list(self._workers)

    def live(self) -> list[WorkerHandle]:
        return [worker for worker in self.workers() if worker.is_alive()]

    def note_failure(self, worker: WorkerHandle) -> None:
        callback = self.on_failure
        if callback is not None:
            callback(worker)
