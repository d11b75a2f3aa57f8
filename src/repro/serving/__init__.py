"""Query serving: release store, budget ledger, HTTP server, worker tier.

The paper's structures are *release once, query forever*: construction spends
privacy budget, every query afterwards is free post-processing.  This package
is the production path from a built :class:`~repro.core.private_trie.
PrivateCountingTrie` to serving millions of pattern queries.  The package
exports that class as :class:`CompiledTrie` too — one class object under two
names: contiguous numpy arrays whose single and vectorized batch queries
walk one dense transition table.

``store``
    :class:`ReleaseStore` — versioned, digest-checked on-disk persistence of
    releases (save / load / list / pin / migrate) in either payload format.
``binfmt``
    the ``vNNNN.dpsb`` binary columnar release format: the counter's
    flat arrays as raw aligned buffers behind a self-describing header, so
    :meth:`ReleaseStore.load_compiled` can map a release read-only —
    O(header) cold start, one shared page-cache copy across N processes.
``ledger``
    :class:`BudgetLedger` and :func:`build_release` — cumulative privacy
    accounting across releases of the same database, refusing builds that
    would exceed a global ``(epsilon, delta)`` cap.
``schedule``
    :class:`EpochScheduler` — the continual-release loop: for every
    pending epoch of an append-only :class:`~repro.api.CorpusStream`,
    build the epoch's release under the ``O(log T)`` dyadic-tree budget
    schedule (:class:`~repro.dp.ContinualAccountant`), charge the ledger
    (the schedule's one record), publish the next store version and
    hot-reload the serving tier (``dpsc epochs run/status``; see
    ``docs/CONTINUAL.md``).
``server`` / ``client``
    A thread-per-connection JSON API (``/query``, ``/batch``, ``/mine``,
    ``/releases``, ``/healthz``) with request micro-batching and
    per-release routing, plus a client that pools keep-alive connections.
    ``/batch`` answers raw little-endian float64 instead of JSON when
    ``Accept`` names ``application/x-dpsc-f64``, and takes its patterns as
    NUL-separated UTF-8 instead of JSON under ``Content-Type:
    application/x-dpsc-patterns``; the client asks and sends both ways.
``wire``
    The one HTTP/1.1 subset every hop speaks — server, client, router
    relay and worker heartbeat: ``GET``/``POST``, ``Content-Length``
    bodies, keep-alive, strict heads and JSON protocol errors, one write
    per message.
``loadtest``
    A deterministic concurrency harness: seeded mixed workloads replayed
    from barrier-started threads — or spawned client *processes*
    (``run_load_test_processes``) — checked bit-identical against a serial
    replay (``dpsc bench-load``, E23).
``cluster``
    The multi-process serving tier: a router on the public port that relays
    each request whole to one of N pre-forked workers mmap-sharing one
    release copy,
    with crash respawn, atomic hot reload and tier-wide metrics
    aggregation (``dpsc serve --workers N``, E27).
``resilience``
    The failure-handling primitives the tier composes end to end: seeded
    decorrelated-jitter :class:`BackoffPolicy`, propagated per-request
    :class:`Deadline` (:data:`DEADLINE_HEADER`), :class:`AdmissionGate`
    load shedding and :func:`call_with_retries` — exercised under seeded
    fault injection (:mod:`repro.faults`) by the chaos drill (E29;
    ``docs/RESILIENCE.md``).  The router's retry rule lives in
    :mod:`repro.serving.cluster.router`: a failed request goes at once to
    the next worker.

Everything above is safe under the concurrency it advertises: counters
are immutable snapshots whose lazy views are built once under a lock, and
the ledger
and store write their JSON state atomically under advisory file locks —
see the "Concurrency & durability" section of ``docs/SERVING.md`` and
``dpsc serve`` / ``dpsc query`` / ``dpsc releases`` / ``dpsc bench-load``
for the command-line entry points.
"""

from repro.core.private_trie import PrivateCountingTrie as CompiledTrie
from repro.serving.binfmt import read_binary, write_binary
from repro.serving.cluster import Cluster
from repro.serving.client import (
    DEFAULT_ENDPOINT_TIMEOUTS,
    ServingClient,
    ServingClientError,
)
from repro.serving.ledger import BudgetLedger, build_release
from repro.serving.resilience import (
    DEADLINE_HEADER,
    AdmissionGate,
    BackoffPolicy,
    Deadline,
    call_with_retries,
)
from repro.serving.loadtest import (
    LoadTestError,
    LoadTestResult,
    Operation,
    execute_operation,
    generate_workload,
    run_load_test,
    run_load_test_processes,
)
from repro.serving.schedule import EpochRelease, EpochScheduler
from repro.serving.server import (
    MicroBatcher,
    QueryService,
    create_server,
    install_graceful_shutdown,
    serve_forever,
)
from repro.serving.store import ReleaseRecord, ReleaseStore

__all__ = [
    "Cluster",
    "CompiledTrie",
    "EpochRelease",
    "EpochScheduler",
    "ServingClient",
    "ServingClientError",
    "DEFAULT_ENDPOINT_TIMEOUTS",
    "DEADLINE_HEADER",
    "AdmissionGate",
    "BackoffPolicy",
    "Deadline",
    "call_with_retries",
    "BudgetLedger",
    "build_release",
    "LoadTestError",
    "LoadTestResult",
    "Operation",
    "execute_operation",
    "generate_workload",
    "run_load_test",
    "run_load_test_processes",
    "MicroBatcher",
    "QueryService",
    "create_server",
    "install_graceful_shutdown",
    "serve_forever",
    "ReleaseRecord",
    "ReleaseStore",
    "read_binary",
    "write_binary",
]
