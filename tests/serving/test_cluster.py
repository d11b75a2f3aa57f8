"""Tests for the sharded multi-process serving tier (repro.serving.cluster).

Everything here spawns real worker processes, so this module runs in its
own CI job with a hard timeout (like ``test_concurrency.py``) instead of
inside the tier-1 matrix.  The properties under test are the tier's
acceptance contract:

* every endpoint answers **bit-identically** to the single-process server,
  including sharded-and-reassembled uniform batches;
* the router's ``/healthz`` counters advance by exactly the traffic sent,
  and its merged ``/metrics`` passes the exposition validator with gauges
  per-worker-labelled (never summed);
* a worker ``kill -9``'d mid-batch costs nothing: the router retries on a
  live sibling and the supervisor respawns the dead one;
* killing the router process leaves **no orphan workers**;
* hot reload swaps worker generations without dropping a request, and the
  router keeps no connection to a retired worker;
* a burst of concurrent forwards leaves at most ``split_threads`` idle
  router connections per worker (checked against in-process stand-in
  workers, not spawned ones).

``ServingClient`` asks ``/batch`` for raw float64 answers, so every
``client.batch`` here runs the f64 path; the raw-bytes parity test covers
the JSON answer too.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.obs import validate_exposition
from repro.serving import (
    Cluster,
    QueryService,
    ReleaseStore,
    ServingClient,
    generate_workload,
    run_load_test_processes,
)
from repro.serving.cluster import (
    Router,
    WorkerHandle,
    WorkerTable,
    create_router_server,
    shard_of,
)
from repro.serving.server import F64_MEDIA_TYPE, encode_f64
from tests.serving.test_server import post_with_content_length

UNIFORM = ["ab", "ba", "bb", "aa", "ba"] * 4  # one length -> split-eligible
MIXED = ["ab", "aba", "b", "abab", "", "zz"]  # mixed lengths -> passthrough


@pytest.fixture(scope="module")
def structure():
    from repro.core.database import StringDatabase

    rng = np.random.default_rng(3)
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    return build_private_counting_structure(
        StringDatabase(["abab", "abba", "baba", "bbbb", "aabb"]), params, rng=rng
    )


@pytest.fixture(scope="module")
def store(structure, tmp_path_factory):
    store = ReleaseStore(tmp_path_factory.mktemp("cluster-store"))
    store.save("demo", structure)
    return store


@pytest.fixture(scope="module")
def reference(store):
    """Serial single-process answers every cluster response must equal."""
    service = QueryService.from_store(store, micro_batch=False)
    yield service
    service.close()


@pytest.fixture(scope="module")
def cluster(store):
    with Cluster(store, workers=2, split_min_patterns=8) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def client(cluster):
    with ServingClient(cluster.url) as client:
        yield client


class TestShardOf:
    def test_stable_and_in_range(self):
        assignment = [shard_of(index, 4) for index in range(64)]
        assert assignment == [shard_of(index, 4) for index in range(64)]
        assert set(assignment) <= set(range(4))

    def test_spreads_over_shards(self):
        used = {shard_of(index, 4) for index in range(64)}
        assert used == set(range(4))

    def test_index_arrays_shard_like_ints(self):
        indices = [0, 1, 7, 4095, 2**31 + 5, 2**32 - 1]
        for shards in (2, 3, 8):
            array = shard_of(np.asarray(indices, dtype=np.uint64), shards)
            assert array.tolist() == [shard_of(index, shards) for index in indices]


class TestParity:
    def test_query(self, client, reference):
        for pattern in ("ab", "ba", "zz", "", "abab"):
            assert client.query(pattern) == reference.query(pattern)

    def test_split_batch_bit_identical(self, client, reference, cluster):
        before = client.healthz()["split_batches"]
        assert client.batch(UNIFORM) == reference.batch(UNIFORM)
        assert client.healthz()["split_batches"] > before  # split path engaged

    def test_passthrough_batch_bit_identical(self, client, reference):
        assert client.batch(MIXED) == reference.batch(MIXED)

    def test_small_batch_not_split(self, client, reference):
        before = client.healthz()["split_batches"]
        assert client.batch(["ab", "ba"]) == reference.batch(["ab", "ba"])
        assert client.healthz()["split_batches"] == before

    def test_mine(self, client, reference):
        assert client.mine(1.0) == reference.mine(1.0)

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_unusable_content_length_is_json_400_and_closes(self, cluster, value):
        head, payload = post_with_content_length(cluster.url, value)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert "Content-Length" in payload["error"]

    def test_releases(self, client, reference):
        via_router = client.releases()
        serial = reference.releases_info()
        # compiled_bytes counts the result cache too, so it tracks each
        # process's traffic history — compare everything else exactly.
        for info in via_router + serial:
            assert info.pop("compiled_bytes") > 0
        assert via_router == serial

    @pytest.mark.parametrize("accept", [None, F64_MEDIA_TYPE], ids=["json", "f64"])
    def test_raw_response_bytes_identical(self, cluster, client, store, reference, accept):
        service = QueryService.from_store(store, micro_batch=False)
        from repro.serving import create_server

        server = create_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        headers = {"Content-Type": "application/json"}
        if accept is not None:
            headers["Accept"] = accept

        def raw(url, patterns):
            request = urllib.request.Request(
                f"{url}/batch",
                data=json.dumps({"patterns": patterns}).encode("utf-8"),
                headers=headers,
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.headers["Content-Type"], response.read()

        try:
            single_url = f"http://127.0.0.1:{server.server_address[1]}"
            # UNIFORM is split across the workers, MIXED passes through whole
            for patterns, splits in ((UNIFORM, 1), (MIXED, 0)):
                before = client.healthz()["split_batches"]
                single = raw(single_url, patterns)
                assert raw(cluster.url, patterns) == single
                assert client.healthz()["split_batches"] - before == splits
                if accept is None:
                    assert single[0] == "application/json"
                else:
                    expected = np.asarray(reference.batch(patterns), "<f8").tobytes()
                    assert single == (F64_MEDIA_TYPE, expected)
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestHealthAndMetrics:
    def test_healthz_shape(self, client, cluster):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        workers = health["workers"]
        assert workers["alive"] == 2
        assert workers["generation"] == cluster.generation
        assert len(workers["members"]) == 2

    def test_router_edge_counter_deltas(self, client):
        before = client.healthz()
        for pattern in ("ab", "ba", "bb"):
            client.query(pattern)
        client.batch(MIXED)
        client.mine(1.0)
        after = client.healthz()
        assert after["queries"] - before["queries"] == 3
        assert after["batches"] - before["batches"] == 1
        assert after["batch_patterns"] - before["batch_patterns"] == len(MIXED)
        assert after["mines"] - before["mines"] == 1

    def test_merged_metrics_validate(self, client):
        client.query("ab")  # ensure traffic on both tiers
        text = client.metrics()
        assert validate_exposition(text) > 0
        assert "dpsc_router_requests_total" in text

    def test_gauges_per_worker_never_summed(self, client):
        snapshot = client.metrics_snapshot()
        uptime = snapshot["dpsc_uptime_seconds"]
        assert uptime["kind"] == "gauge"
        workers = {entry["labels"].get("worker") for entry in uptime["series"]}
        assert len(workers) == 2 and None not in workers


class TestWorkerCrash:
    def test_kill9_mid_batch_is_invisible_and_respawned(self, store, reference):
        expected = reference.batch(UNIFORM)
        with Cluster(
            store, workers=2, split_min_patterns=8, heartbeat_interval=0.1
        ) as cluster:
            client = ServingClient(cluster.url, timeout=60)
            mismatches: list[int] = []
            errors: list[str] = []

            def hammer():
                for round_index in range(40):
                    try:
                        if client.batch(UNIFORM) != expected:
                            mismatches.append(round_index)
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))

            thread = threading.Thread(target=hammer)
            thread.start()
            time.sleep(0.05)
            cluster.workers()[0].kill()  # SIGKILL mid-stream
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert errors == []
            assert mismatches == []
            deadline = time.monotonic() + 30
            while cluster.respawns < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert cluster.respawns >= 1
            deadline = time.monotonic() + 30
            while len(cluster.table.live()) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(cluster.table.live()) == 2
            # The tier still answers bit-identically after the respawn.
            assert client.batch(UNIFORM) == expected


_HOST_SCRIPT = """\
import json, sys, time
from repro.serving import Cluster, ReleaseStore

# The __main__ guard is load-bearing: spawn workers re-import this module.
if __name__ == "__main__":
    cluster = Cluster(ReleaseStore(sys.argv[1]), workers=2)
    cluster.start()
    print(json.dumps([worker.pid for worker in cluster.workers()]), flush=True)
    while True:
        time.sleep(1)
"""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


class TestOrphanPrevention:
    def test_sigkilled_router_leaves_no_orphan_workers(self, store, tmp_path):
        script = tmp_path / "host_cluster.py"
        script.write_text(_HOST_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, str(script), str(store.root)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            line = process.stdout.readline()
            pids = json.loads(line)
            assert len(pids) == 2 and all(_pid_alive(pid) for pid in pids)
            os.kill(process.pid, signal.SIGKILL)  # no chance to clean up
            process.wait(timeout=10)
            deadline = time.monotonic() + 15
            while any(_pid_alive(pid) for pid in pids):
                assert time.monotonic() < deadline, f"orphans: {pids}"
                time.sleep(0.1)
        finally:
            if process.poll() is None:  # pragma: no cover - drill failed
                process.kill()
            process.stdout.close()


class TestHotReload:
    def test_reload_swaps_generation_without_dropping_requests(
        self, structure, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        with Cluster(store, workers=2, split_min_patterns=8) as cluster, ServingClient(
            cluster.url, timeout=60
        ) as client:
            expected = client.batch(UNIFORM)
            stop = threading.Event()
            errors: list[str] = []
            mismatches = 0

            def hammer():
                nonlocal mismatches
                while not stop.is_set():
                    try:
                        if client.batch(UNIFORM) != expected:
                            mismatches += 1
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                # Same payload saved again -> new version, identical answers,
                # so bit-checks stay valid across the swap.
                store.save("demo", structure)
                summary = cluster.reload()
            finally:
                stop.set()
                thread.join(timeout=60)
            assert summary["reloaded"] is True
            assert summary["generation"] == 2
            assert errors == []
            assert mismatches == 0
            assert cluster.generation == 2
            assert client.healthz()["workers"]["generation"] == 2

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/fd and /proc/net/tcp"
    )
    def test_reloads_leave_no_close_wait_socket_to_retired_workers(
        self, structure, reference, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        retired: set[int] = set()
        with Cluster(store, workers=2, split_min_patterns=8) as cluster, ServingClient(
            cluster.url, timeout=60
        ) as client:

            def traffic() -> None:
                # split batch (shard threads), passthrough batch (handler
                # thread) and a query (router micro-batcher)
                for patterns in (UNIFORM, MIXED):
                    assert client.batch(patterns) == reference.batch(patterns)
                assert client.query("ab") == reference.query("ab")

            for _ in range(6):
                traffic()
                retired |= {worker.port for worker in cluster.workers()}
                store.save("demo", structure)
                assert cluster.reload()["reloaded"] is True
            traffic()
            assert cluster.generation == 7
            assert retired.isdisjoint(worker.port for worker in cluster.workers())
            leaked = [port for port in close_wait_peer_ports() if port in retired]
            assert leaked == [], f"CLOSE_WAIT sockets to retired worker ports {leaked}"

    def test_reload_is_noop_when_versions_unchanged(self, cluster):
        summary = cluster.reload()
        assert summary["reloaded"] is False
        assert summary["generation"] == cluster.generation


def close_wait_peer_ports() -> list[int]:
    """Peer ports of this process's TCP sockets in CLOSE_WAIT (the peer
    closed, this process has not)."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed since listdir
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    ports = []
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except FileNotFoundError:
            continue
        for row in rows:
            fields = row.split()
            # fields: sl local remote state ... inode (index 9); 08 = CLOSE_WAIT
            if fields[3] == "08" and fields[9] in inodes:
                ports.append(int(fields[2].rsplit(":", 1)[1], 16))
    return ports


class _BurstHandler(BaseHTTPRequestHandler):
    """Stand-in worker ``/batch``: zeros as float64, answered only once every
    request of the burst has arrived (``server.arrived``) and the test has
    set ``server.release``."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        patterns = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.arrived.wait(timeout=10)
        self.server.release.wait(timeout=10)
        body = encode_f64(np.zeros(len(patterns["patterns"])))
        self.send_response(200)
        self.send_header("Content-Type", F64_MEDIA_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        pass


class _BurstWorker(ThreadingHTTPServer):
    """An in-process stand-in worker that counts its open connections."""

    daemon_threads = True

    def __init__(self, arrived: threading.Barrier, release: threading.Event) -> None:
        super().__init__(("127.0.0.1", 0), _BurstHandler)
        self.arrived = arrived
        self.release = release
        self.lock = threading.Lock()
        self.accepted = 0
        self.open = 0

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.accepted += 1
            self.open += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self.lock:
            self.open -= 1


class _Running:
    pid = None

    @staticmethod
    def is_alive() -> bool:
        return True


class TestWorkerConnectionPool:
    CLIENTS = 6
    SPLIT_THREADS = 2  # the router keeps this many idle connections per worker

    @pytest.mark.parametrize("retire", [False, True], ids=["kept", "retired"])
    def test_a_burst_leaves_a_bounded_pool(self, retire):
        """Six concurrent clients open six router->worker connections; once
        they close, each worker keeps at most ``split_threads`` of them, and
        a worker that left the table mid-burst keeps none."""
        arrived = threading.Barrier(self.CLIENTS + 1)
        release = threading.Event()
        workers = [_BurstWorker(arrived, release) for _ in range(2)]
        for worker in workers:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        handles = [
            WorkerHandle(f"w{i}", 1, _Running(), None, worker.server_address[1])
            for i, worker in enumerate(workers)
        ]
        table = WorkerTable()
        table.swap(handles, 1, {"demo": 1})
        router = Router(
            table,
            micro_batch=False,
            split_threads=self.SPLIT_THREADS,
            split_min_patterns=10**6,
        )
        server = create_router_server(router)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        results: list[list[float]] = []

        def call() -> None:
            with ServingClient(url, timeout=20) as client:
                results.append(client.batch(["ab", "ba"]))

        threads = [threading.Thread(target=call) for _ in range(self.CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            arrived.wait(timeout=10)  # every request is inside a worker
            if retire:
                table.swap(handles[1:], 2, {"demo": 1})
            release.set()
            for thread in threads:
                thread.join(timeout=20)
            assert results == [[0.0, 0.0]] * self.CLIENTS
            assert sum(worker.accepted for worker in workers) == self.CLIENTS
            limits = [0 if retire else self.SPLIT_THREADS, self.SPLIT_THREADS]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and any(
                worker.open > limit for worker, limit in zip(workers, limits)
            ):
                time.sleep(0.02)
            still_open = [worker.open for worker in workers]
            assert all(n <= limit for n, limit in zip(still_open, limits)), still_open
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            router.close()
            for worker in workers:
                worker.shutdown()
                worker.server_close()


class TestShutdown:
    def test_stop_kills_workers_and_is_idempotent(self, store):
        cluster = Cluster(store, workers=2)
        cluster.start()
        pids = [worker.pid for worker in cluster.workers()]
        cluster.stop()
        deadline = time.monotonic() + 15
        while any(_pid_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, "workers survived stop()"
            time.sleep(0.05)
        cluster.stop()  # second stop must be a no-op

    def test_stop_is_prompt_with_an_idle_pooled_client(self, store, reference):
        cluster = Cluster(store, workers=2)
        cluster.start()
        workers = cluster.workers()
        with ServingClient(cluster.url) as client:
            assert client.batch(UNIFORM) == reference.batch(UNIFORM)
            opened = client.telemetry.get("dpsc_client_connections_opened_total")
            assert opened.value == 1  # now idle in the client's pool
            started = time.monotonic()
            stopper = threading.Thread(target=cluster.stop)
            stopper.start()
            stopper.join(timeout=60)
            assert not stopper.is_alive()
            # well inside the 30 s drain after which stop() would terminate
            # workers: no handler on an idle connection holds anything open
            assert time.monotonic() - started < 10.0
        assert [worker.process.exitcode for worker in workers] == [0, 0]


class TestProcessLoadtest:
    def test_multi_process_clients_bit_identical_with_counters(
        self, cluster, reference
    ):
        workload = generate_workload(reference, 60, seed=11)
        result = run_load_test_processes(
            cluster.url, workload, processes=2, check=True, verify_counters=True
        )
        assert result.bit_identical
        assert result.counters_consistent
        assert result.processes == 2
        assert result.operations == 60
