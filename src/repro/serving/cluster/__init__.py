"""``repro.serving.cluster`` — the multi-process serving tier.

A hierarchy-of-coordinators over the single-process server: a root
:class:`Router` on the public port delegates to worker processes,
each an ordinary :class:`~repro.serving.server.QueryService` over the same
mmap'd ``.dpsb`` release (~one resident copy regardless of worker count).

* :mod:`repro.serving.cluster.workers` — worker processes forked by one
  preloaded fork server, readiness handshake, orphan prevention, the pool
  and the router's worker table;
* :mod:`repro.serving.cluster.router` — relays every request but
  ``/healthz``, ``/metrics`` and ``/admin/reload`` to one worker as
  received and writes back the worker's status, ``Content-Type`` and body
  unchanged; a request a worker failed goes at once to the next worker;
  load shedding, tier-wide ``/metrics`` and ``/healthz``;
* :mod:`repro.serving.cluster.supervisor` — :class:`Cluster`: lifecycle,
  heartbeat monitoring, crash respawn, atomic hot reload, graceful drain.

Entry points: ``Cluster(store, workers=N).start()`` in-process, or
``dpsc serve --store ... --workers N`` from the command line.
"""

from repro.serving.cluster.router import Router, RouterHTTPError, create_router_server
from repro.serving.cluster.supervisor import Cluster
from repro.serving.cluster.workers import (
    WorkerHandle,
    WorkerPool,
    WorkerTable,
    worker_main,
)

__all__ = [
    "Cluster",
    "Router",
    "RouterHTTPError",
    "WorkerHandle",
    "WorkerPool",
    "WorkerTable",
    "create_router_server",
    "worker_main",
]
