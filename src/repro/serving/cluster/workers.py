"""Pre-forked query workers: fork-server starts, liveness, respawn, drain.

One worker is one OS process running the plain single-process server
(:func:`repro.serving.server.create_server` over a
:class:`~repro.serving.server.QueryService`) on an ephemeral localhost
port.  Every worker of a generation opens the *same* pinned release
versions with ``mmap=True``, so N workers cost ~one resident copy of the
release: the ``.dpsb`` pages live once in the page cache and every process
maps them read-only (PR 7's measurement, now multiplied by the pool).

Process discipline (all of it load-bearing for the cluster tests):

* **forked by one fork server, never by the supervisor** — workers start
  through ``multiprocessing``'s ``forkserver`` context (:func:`_context`).
  The first worker of a process starts the fork server: a fresh
  interpreter that imports what a worker runs once (:func:`_preload`) and
  then only forks, from an idle loop that runs no Python thread.  So a
  worker never inherits the supervisor's locks, sockets or threads
  mid-operation, and every later worker (a respawn, a reload's
  generation) is a fork of the preloaded image, not an interpreter start
  that re-imports the world.  Everything a worker needs travels as a
  picklable config dict plus one duplex control pipe.  That includes the
  supervisor's environment at this start (``DPSC_FAULTS*`` included),
  since a fork-server child inherits the fork server's.
* **readiness handshake** — the child builds its service, binds port 0 and
  reports ``("ready", port)`` (or ``("error", message)``) before the
  supervisor counts it as a member; a worker that cannot load the release
  never receives traffic.
* **orphan prevention** — a daemon thread in the worker blocks on the
  control pipe.  If the supervisor dies — even ``kill -9``, where no
  cleanup runs — the OS closes the pipe, the read raises ``EOFError`` and
  the worker ``os._exit``\\ s.  The fork server exits once the supervisor
  and every worker it forked are gone.  Routers crash; workers must not
  linger.
* **graceful drain** — a ``"stop"`` control message (or SIGTERM directly
  to the worker) stops accepting and closes the service before the
  process exits, the same drain order as the single-process path.
  Handler threads are daemon threads and are not joined: a request in
  flight when the worker exits fails at the router, which retries it on
  another worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
import time
import types
from typing import Mapping

from repro import faults
from repro.exceptions import ReproError
from repro.serving import wire
from repro.serving.server import QueryService, create_server, install_graceful_shutdown
from repro.serving.store import ReleaseStore

__all__ = ["WorkerHandle", "WorkerPool", "WorkerTable", "worker_main"]

#: how long a generation's workers may take to report ready, in seconds.
SPAWN_TIMEOUT = 60.0
#: consecutive 500 answers after which the monitor replaces a worker: its
#: process and ``/healthz`` may be fine while its query handler fails every
#: request, and each request that draws it pays one failed round trip.
FAILED_ANSWERS_LIMIT = 8


def _preload() -> list[str]:
    """The modules the fork server imports once, for every worker it forks.

    This module imports at its top everything :func:`worker_main` runs
    (the server, the release store, the failpoints and with them numpy and
    the array counter), so importing it preloads the whole worker and a
    fork of the fork server imports nothing more.  A worker also re-runs the
    supervisor's main module as ``__mp_main__`` before it unpickles its
    target (``repro.cli`` under ``dpsc serve``, or a script), so the
    modules that main module imported are preloaded too, and the re-run
    finds them imported.  The main module itself is
    not: ``runpy`` warns about re-running a module already imported, and
    CPython 3.10–3.13 never pass the fork server a script's path.
    ``multiprocessing`` re-runs no ``__main__`` module of a package
    (``python -m pytest``), so then nothing more is preloaded.  A preload
    that fails to import is skipped, and the worker imports it itself.
    """
    main = sys.modules["__main__"]
    name = getattr(getattr(main, "__spec__", None), "name", None) or ""
    modules = {__name__}
    if not name.endswith("__main__"):
        for value in list(vars(main).values()):  # one snapshot under the GIL
            module = (
                value.__name__
                if isinstance(value, types.ModuleType)
                else getattr(value, "__module__", None)
            )
            if isinstance(module, str) and module not in ("__main__", name) and module in sys.modules:
                modules.add(module)
    return sorted(modules)


def _context():
    """The ``forkserver`` context every worker starts through, with its
    preload set.  It exists on POSIX only, so it is looked up when a
    worker starts, not at import."""
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(_preload())
    return context


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
    """Entry point of one worker process.

    ``config`` is a plain picklable dict: ``store_root`` (absolute),
    ``versions`` (name -> pinned version), ``mmap`` and ``environ`` (the
    supervisor's environment when it started this worker).  ``conn`` is
    the child end of the control pipe.  The worker listens on an ephemeral
    localhost port.
    """
    try:
        # A fork-server child starts with the fork server's environment;
        # take the supervisor's instead.  Chaos schedules travel in it:
        # DPSC_FAULTS / _SEED / _SCOPE / _LOG arm this worker's failpoints
        # before any release is loaded, so every site is in scope.
        os.environ.clear()
        os.environ.update(config["environ"])
        faults.arm_from_env()
        store = ReleaseStore(config["store_root"])
        service = QueryService.from_store(
            store,
            versions={name: int(v) for name, v in config["versions"].items()},
            mmap=bool(config.get("mmap", True)),
            micro_batch=False,
        )
        server = create_server(service, "127.0.0.1", 0)
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
        #: consecutive 500 answers relayed from this worker
        #: (:meth:`note_answer`); the monitor respawns a :attr:`failing` one.
        self.failed_answers = 0

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def note_answer(self, status: int) -> bool:
        """Count one relayed answer: a 500 adds one to
        :attr:`failed_answers`, a 504 deadline refusal (the client's expiry,
        refused before the query handler runs) leaves it, and any other
        answer resets it.  Returns :attr:`failing`."""
        if status == 500:
            self.failed_answers += 1
        elif status != 504:
            self.failed_answers = 0
        return self.failing

    @property
    def failing(self) -> bool:
        """True once :data:`FAILED_ANSWERS_LIMIT` answers in a row were 500s."""
        return self.failed_answers >= FAILED_ANSWERS_LIMIT

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

    def __init__(self, store_root, *, mmap: bool = True) -> None:
        # absolute: a later chdir of the supervisor must not move the
        # store of a worker it starts then
        self.store_root = os.path.abspath(store_root)
        self.mmap = mmap
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
            "environ": dict(os.environ),
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

        All processes start before any readiness is awaited, so the
        members load their releases side by side.  Each start is a fork of
        the preloaded fork server, which the first start of the process
        launches (:func:`_context`).  On any failure every already-started
        member is torn down — a generation is all-ready or absent, never
        half-alive.
        """
        config = self._config(versions)
        context = _context()
        started: list[tuple[str, object, object]] = []
        try:
            for _ in range(count):
                worker_id = self._next_id()
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=worker_main,
                    args=(config, child_conn),
                    name=f"repro-cluster-{worker_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()  # parent copy; EOF detection needs it gone
                started.append((worker_id, process, parent_conn))
            handles = []
            deadline = time.monotonic() + SPAWN_TIMEOUT
            for worker_id, process, parent_conn in started:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not parent_conn.poll(remaining):
                    raise ReproError(
                        f"worker {worker_id} did not become ready within "
                        f"{SPAWN_TIMEOUT:.0f}s"
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
    only ever reads a snapshot (``workers()``), so a swap mid-request simply
    means retries land on the new generation.  It never polls a member's
    process, whose ``is_alive()`` is a selector round on a fork-server
    child: a dead member's port refuses the attempt anyway.  ``live()``
    serves the scrapes and gauges.  ``note_failure`` is the
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
