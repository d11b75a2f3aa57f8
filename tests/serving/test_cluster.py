"""Tests for the sharded multi-process serving tier (repro.serving.cluster).

Everything here spawns real worker processes, so this module runs in its
own CI job with a hard timeout (like ``test_concurrency.py``) instead of
inside the tier-1 matrix.  The properties under test are the tier's
acceptance contract:

* every endpoint answers **bit-identically** to the single-process server,
  and a batch of any size goes whole to exactly one worker;
* every answer the tier gets only from a worker — malformed bodies,
  unknown releases and paths, ``GET /query`` — has the single-process
  status, ``Content-Type`` and body;
* a control byte in a request target is escaped by the relay, so it never
  reaches a worker's request line, and the forward is not retried as a
  connection failure;
* the router's ``/healthz`` counters advance by exactly the traffic sent
  (``/batch`` patterns from the worker's ``X-DPSC-Patterns``, in both
  answer formats), and its merged ``/metrics`` passes the exposition
  validator with gauges per-worker-labelled (never summed);
* a worker ``kill -9``'d mid-batch costs nothing: the router retries on a
  live sibling and the supervisor respawns the dead one, and one killed
  with no traffic is replaced as soon as it dies, not on the monitor's
  next tick;
* killing the router process leaves **no orphan workers** and no fork
  server, and an ``http_proxy`` in the environment fails no heartbeat of
  a healthy one;
* every worker, a respawned one included, is forked by one fork server,
  and a fault schedule put in the environment after that fork server
  started still arms the next cluster's workers;
* hot reload swaps worker generations without dropping a request, and the
  router keeps no connection to a retired worker;
* the relay never polls a worker's process (``WorkerHandle.is_alive``);
* a ``/query`` reaches its worker carrying the client's
  ``X-DPSC-Deadline``; a worker that answers every request 500 costs a
  request at most one retry and no ``RETRY_WAIT``; the round-robin start
  is drawn once per request; a request that every live worker failed
  waits ``RETRY_WAIT`` once and goes round again, gets the freshest 5xx
  at ``RETRY_TIMEOUT`` (a JSON 503 when no worker is live) and a 504 at
  its deadline; a refused connection goes on to the next worker and is
  reported to the supervisor; past ``MAX_INFLIGHT``
  the router sheds with ``503 + Retry-After``, which ``ServingClient``
  honours; a burst of concurrent forwards leaves at most
  ``MAX_IDLE_PER_WORKER`` idle router connections per worker (all checked
  against in-process stand-in workers, not spawned ones); and a worker
  whose every answer is a 500 is replaced once ``FAILED_ANSWERS_LIMIT``
  of them come in a row, after which requests take no retry;
* the supervisor's monitor writes the traceback of a failing pass to
  stderr and keeps running.

``ServingClient`` asks ``/batch`` for raw float64 answers, so every
``client.batch`` here runs the f64 path; the raw-bytes parity test covers
the JSON answer too.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro import faults
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
)
from repro.serving.cluster.workers import FAILED_ANSWERS_LIMIT
from repro.serving.resilience import DEADLINE_HEADER, BackoffPolicy, Deadline
from repro.serving.server import F64_MEDIA_TYPE, encode_f64
from tests.serving.test_client_transport import batch_patterns
from tests.serving.test_server import post_with_content_length

UNIFORM = ["ab", "ba", "bb", "aa", "ba"] * 4  # one length: the uniform path
MIXED = ["ab", "aba", "b", "abab", "", "zz"]  # mixed lengths


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
    with Cluster(store, workers=2) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def single_url(store):
    """A single-process server over the same store, for answer parity."""
    from repro.serving import create_server

    service = QueryService.from_store(store, micro_batch=False)
    server = create_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    service.close()


def exchange(url: str, method: str, path: str, body: bytes | None = None):
    """One raw request: the answer's status, ``Content-Type`` and body."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def client(cluster):
    with ServingClient(cluster.url) as client:
        yield client


def worker_batch_counters(cluster) -> tuple[int, int]:
    """``batches`` and ``batch_patterns`` summed over the workers' own
    ``/healthz`` (the router's count only what reached the router)."""
    batches = patterns = 0
    for worker in cluster.workers():
        url = f"http://127.0.0.1:{worker.port}/healthz"
        with urllib.request.urlopen(url, timeout=10) as response:
            health = json.loads(response.read())
        batches += health["batches"]
        patterns += health["batch_patterns"]
    return batches, patterns


class TestParity:
    def test_query(self, client, reference):
        for pattern in ("ab", "ba", "zz", "", "abab"):
            assert client.query(pattern) == reference.query(pattern)

    def test_batch_goes_whole_to_one_worker(self, client, reference, cluster):
        for patterns in ((UNIFORM * 205)[:4096], MIXED):
            before = worker_batch_counters(cluster)
            assert client.batch(patterns) == reference.batch(patterns)
            after = worker_batch_counters(cluster)
            assert after[0] - before[0] == 1  # batches
            assert after[1] - before[1] == len(patterns)  # batch_patterns

    def test_passthrough_batch_bit_identical(self, client, reference):
        assert client.batch(MIXED) == reference.batch(MIXED)

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
        # compiled_bytes counts the lazily built views too, so it tracks
        # each process's traffic history — compare everything else exactly.
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
            for patterns in (UNIFORM, MIXED):
                single = raw(single_url, patterns)
                assert raw(cluster.url, patterns) == single
                if accept is None:
                    assert single[0] == "application/json"
                else:
                    expected = np.asarray(reference.batch(patterns), "<f8").tobytes()
                    assert single == (F64_MEDIA_TYPE, expected)
        finally:
            server.shutdown()
            server.server_close()
            service.close()


#: requests whose answers the tier gets only from a worker: (method, path,
#: body, the single-process status).
WORKER_ANSWERS = {
    "body-not-json": ("POST", "/query", b"{not json", 400),
    "body-not-an-object": ("POST", "/batch", b"[1, 2]", 400),
    "pattern-not-a-string": ("POST", "/query", b'{"pattern": 7}', 400),
    "patterns-not-a-list": ("POST", "/batch", b'{"patterns": "ab"}', 400),
    "patterns-not-strings": ("POST", "/batch", b'{"patterns": ["ab", 1]}', 400),
    "threshold-not-a-number": ("POST", "/mine", b'{"threshold": "high"}', 400),
    "query-unknown-release": (
        "POST", "/query", b'{"pattern": "ab", "release": "nope"}', 404,
    ),
    "batch-unknown-release": (
        "POST", "/batch", b'{"patterns": ["ab"], "release": "nope"}', 404,
    ),
    "get-unknown-path": ("GET", "/nope", None, 404),
    "post-unknown-path": ("POST", "/nope", b"{}", 404),
    "get-query": ("GET", "/query?pattern=ab", None, 200),
    "get-query-unknown-release": ("GET", "/query?pattern=ab&release=nope", None, 404),
}


@pytest.mark.parametrize("case", sorted(WORKER_ANSWERS))
def test_relayed_answers_match_the_single_process(cluster, single_url, case):
    method, path, body, status = WORKER_ANSWERS[case]
    single = exchange(single_url, method, path, body)
    assert single[0] == status
    assert exchange(cluster.url, method, path, body) == single


#: client inputs a worker once failed with a 500, which the router retried
#: on every worker until its retry timeout: (path, body, the single-process
#: status).
CLIENT_FAULTS = {
    "release-a-list": ("/query", b'{"pattern": "A", "release": [1]}', 400),
    "release-an-object": ("/batch", b'{"patterns": ["A"], "release": {}}', 400),
    "batch-lone-surrogate": ("/batch", b'{"patterns": ["\\ud800", "ab"]}', 200),
}


@pytest.mark.parametrize("case", sorted(CLIENT_FAULTS))
def test_a_client_fault_is_answered_at_once_without_retries(
    cluster, client, single_url, case
):
    path, body, status = CLIENT_FAULTS[case]
    retries = client.healthz()["retries"]
    started = time.monotonic()
    answer = exchange(cluster.url, "POST", path, body)
    assert time.monotonic() - started < 1.0
    assert answer[0] == status
    assert answer == exchange(single_url, "POST", path, body)
    assert client.healthz()["retries"] == retries


def raw_get(url: str, target: bytes) -> tuple[bytes, bytes]:
    """A ``GET`` whose request target is sent as the raw bytes ``target``
    (``http.client`` refuses control bytes): status line and body."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(b"GET " + target + b" HTTP/1.1\r\nConnection: close\r\n\r\n")
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0], body


def test_a_control_byte_in_the_target_is_relayed_not_retried(client, cluster, single_url):
    """The relay escapes a target byte ``http.client`` cannot send instead
    of failing the forward as a connection error on every worker."""
    target = b"/query?pattern=a\x01b"
    retries = client.healthz()["retries"]
    assert raw_get(cluster.url, target) == raw_get(single_url, target)
    assert client.healthz()["retries"] == retries


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
        body = json.dumps({"patterns": UNIFORM}).encode("utf-8")
        status, content_type, _ = exchange(client.base_url, "POST", "/batch", body)
        assert (status, content_type) == (200, "application/json")
        client.mine(1.0)
        after = client.healthz()
        assert after["queries"] - before["queries"] == 3
        assert after["batches"] - before["batches"] == 2
        assert after["batch_patterns"] - before["batch_patterns"] == len(MIXED) + len(
            UNIFORM
        )
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
    def test_kill9_mid_batch_is_invisible_and_respawned(
        self, store, reference, monkeypatch
    ):
        expected = reference.batch(UNIFORM)
        monkeypatch.setattr("repro.serving.cluster.supervisor.HEARTBEAT_INTERVAL", 0.1)
        with Cluster(store, workers=2) as cluster:
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

    def test_a_worker_killed_without_traffic_is_replaced_at_once(self, store, monkeypatch):
        """The monitor waits on the serving workers' process sentinels, so
        a worker killed while no request draws it is replaced long before
        the next heartbeat tick."""
        monkeypatch.setattr("repro.serving.cluster.supervisor.HEARTBEAT_INTERVAL", 5.0)
        with Cluster(store, workers=2) as cluster:
            victim = cluster.workers()[0]
            killed = time.monotonic()
            os.kill(victim.pid, signal.SIGKILL)
            while cluster.respawns < 1 and time.monotonic() - killed < 10:
                time.sleep(0.01)
            replaced_s = time.monotonic() - killed
            assert cluster.respawns == 1
            assert replaced_s < 1.0
            assert victim not in cluster.workers()
            assert all(worker.heartbeat() for worker in cluster.workers())


_HOST_SCRIPT = """\
import json, sys, time
from repro.serving import Cluster, ReleaseStore

# The __main__ guard is load-bearing: every worker re-runs this script.
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


def _parent_pid(pid: int) -> int:
    """The parent of process ``pid``: a worker's is the fork server."""
    if sys.platform.startswith("linux"):
        with open(f"/proc/{pid}/stat") as handle:
            # pid (comm) state ppid ...; comm may hold spaces and parentheses
            return int(handle.read().rpartition(")")[2].split()[1])
    ps = subprocess.run(
        ["ps", "-o", "ppid=", "-p", str(pid)], capture_output=True, text=True, check=True
    )
    return int(ps.stdout)


class TestOrphanPrevention:
    def test_sigkilled_router_leaves_no_orphan_workers(self, store, tmp_path):
        """Neither a worker nor the fork server that forked them outlives
        the supervisor's ``kill -9``."""
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
            fork_servers = {_parent_pid(pid) for pid in pids}
            assert len(fork_servers) == 1 and process.pid not in fork_servers
            pids += fork_servers
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


class TestForkServer:
    def test_workers_arm_faults_set_after_the_fork_server_started(
        self, store, tmp_path, monkeypatch
    ):
        """A fork-server child inherits the environment the fork server
        started with.  A ``worker.handle`` schedule put in ``os.environ``
        after one cluster has come and gone must still arm the next
        cluster's workers, the way E29 arms them."""
        with Cluster(store, workers=1):
            pass  # the fork server runs from here on, without the schedule
        log = tmp_path / "faults.jsonl"
        spec = faults.FaultSpec(site="worker.handle", action="delay", delay_ms=0.0)
        for key, value in faults.env_for([spec], scope="worker", log_path=log).items():
            monkeypatch.setenv(key, value)
        with Cluster(store, workers=2) as cluster, ServingClient(cluster.url) as client:
            for _ in range(4):
                client.query("ab")
            pids = {worker.pid for worker in cluster.workers()}
        fired = faults.read_log(log)
        assert len(fired) == 4
        assert {entry["site"] for entry in fired} == {"worker.handle"}
        assert {entry["pid"] for entry in fired} == pids

    def test_a_respawned_worker_is_forked_by_the_first_fork_server(
        self, store, monkeypatch
    ):
        """Every worker, the first generation's and a respawned one alike,
        is a fork of one fork server, not of the supervisor."""
        monkeypatch.setattr("repro.serving.cluster.supervisor.HEARTBEAT_INTERVAL", 0.05)
        with Cluster(store, workers=2) as cluster:
            first = [worker.pid for worker in cluster.workers()]
            fork_servers = {_parent_pid(pid) for pid in first}
            assert len(fork_servers) == 1 and os.getpid() not in fork_servers
            cluster.workers()[0].kill()
            deadline = time.monotonic() + 30
            while len(cluster.table.live()) < 2 or cluster.respawns < 1:
                assert time.monotonic() < deadline, "no respawn"
                time.sleep(0.02)
            (respawned,) = [w.pid for w in cluster.workers() if w.pid not in first]
            assert _parent_pid(respawned) in fork_servers


class TestHotReload:
    def test_reload_swaps_generation_without_dropping_requests(
        self, structure, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        with Cluster(store, workers=2) as cluster, ServingClient(
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
        with Cluster(store, workers=2) as cluster, ServingClient(
            cluster.url, timeout=60
        ) as client:

            def traffic() -> None:
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


class _QueryHandler(BaseHTTPRequestHandler):
    """Stand-in worker ``/query``: records the deadline header it received
    and answers ``server.status`` with a fixed count, or 500 while
    ``server.failures`` counts down."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in two writes

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.deadlines.append(self.headers.get(DEADLINE_HEADER))
        status = self.server.status
        if self.server.failures:
            self.server.failures -= 1
            status = 500
        body = json.dumps({"release": "demo", "count": 1.5}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        pass


class _Running:
    pid = None

    @staticmethod
    def is_alive() -> bool:
        return True


def _query_worker(status: int = 200, failures: int = 0) -> ThreadingHTTPServer:
    """A started stand-in worker whose ``/query`` answers 500 to its first
    ``failures`` requests and ``status`` after them."""
    worker = ThreadingHTTPServer(("127.0.0.1", 0), _QueryHandler)
    worker.daemon_threads = True
    worker.status = status
    worker.failures = failures
    worker.deadlines = []
    threading.Thread(target=worker.serve_forever, daemon=True).start()
    return worker


class _RefusingWorker:
    """A stand-in worker whose port refuses every connection, as a crashed
    worker's does: bound, so no one else takes it, but never listening."""

    def __init__(self) -> None:
        self.socket = socket.socket()
        self.socket.bind(("127.0.0.1", 0))
        self.server_address = self.socket.getsockname()

    def shutdown(self) -> None:
        pass

    def server_close(self) -> None:
        self.socket.close()


@contextlib.contextmanager
def _router_over(workers: list[ThreadingHTTPServer]):
    """A started router over running stand-in ``workers``: the router and
    its URL.  Stops the router and the workers on exit."""
    table = WorkerTable()
    table.swap(
        [
            WorkerHandle(f"w{i}", 1, _Running(), None, worker.server_address[1])
            for i, worker in enumerate(workers)
        ],
        1,
        {"demo": 1},
    )
    router = Router(table)
    server = create_router_server(router)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield router, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        router.close()
        for worker in workers:
            worker.shutdown()
            worker.server_close()


def _post(url: str, path: str, payload: dict, headers: dict | None = None):
    """One ``POST`` over ``http.client``: the answer's status, headers and
    decoded JSON body."""
    conn = http.client.HTTPConnection(url.split("//", 1)[1], timeout=10)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = conn.getresponse()
        return response.status, response.headers, json.loads(response.read())
    finally:
        conn.close()


def test_router_query_carries_the_client_deadline_to_the_worker():
    worker = _query_worker()
    with _router_over([worker]) as (_, url):
        deadline = Deadline.after(30.0).header_value()
        status, _, answer = _post(url, "/query", {"pattern": "ab"}, {DEADLINE_HEADER: deadline})
        assert status == 200
        assert answer["count"] == 1.5
        assert worker.deadlines == [deadline]


def test_the_relay_never_asks_whether_a_worker_is_alive(monkeypatch):
    """``is_alive()`` of a fork-server child is a selector round; only the
    supervisor's monitor polls worker processes.  100 requests relayed
    over stand-in workers, which no monitor watches, make no
    ``WorkerHandle.is_alive`` call on them (a monitor of another cluster
    in this process may poll its own workers meanwhile)."""
    polled: list[WorkerHandle] = []
    is_alive = WorkerHandle.is_alive

    def spy(self) -> bool:
        polled.append(self)
        return is_alive(self)

    monkeypatch.setattr(WorkerHandle, "is_alive", spy)
    with _router_over([_query_worker(), _query_worker()]) as (router, url):
        stand_ins = router.table.workers()
        conn = http.client.HTTPConnection(url.split("//", 1)[1], timeout=10)
        try:
            for _ in range(100):
                conn.request("POST", "/query", body=b'{"pattern": "ab"}')
                response = conn.getresponse()
                assert (response.status, json.loads(response.read())["count"]) == (200, 1.5)
        finally:
            conn.close()
    assert [worker for worker in polled if worker in stand_ins] == []


def test_a_failing_worker_costs_a_request_one_retry_and_no_wait(monkeypatch):
    """One of two workers answers every request 500.  A request that drew
    it goes at once to the other one, so every answer is a 200 after at
    most one router retry, and no request waits ``RETRY_WAIT``: that pause
    comes only after every live worker has failed one request."""
    monkeypatch.setattr("repro.serving.cluster.router.RETRY_WAIT", 3.0)
    failing = _query_worker(500)
    with _router_over([failing, _query_worker()]) as (router, url):
        conn = http.client.HTTPConnection(url.split("//", 1)[1], timeout=10)
        retries = []
        started = time.monotonic()
        try:
            for _ in range(20):  # sequential keep-alive requests
                before = router.health()["retries"]
                conn.request("POST", "/query", body=b'{"pattern": "ab"}')
                response = conn.getresponse()
                assert (response.status, json.loads(response.read())["count"]) == (200, 1.5)
                retries.append(router.health()["retries"] - before)
        finally:
            conn.close()
        elapsed = time.monotonic() - started
    assert max(retries) == 1
    assert sum(retries) == len(failing.deadlines)  # one retry per 500
    assert elapsed < 1.5  # well inside one RETRY_WAIT


def test_the_round_robin_start_is_drawn_once_per_request():
    """Of three workers the first answers 500, and a request that drew it
    goes on to the second.  So of 30 requests the failing worker and the
    third each get 10 and the second 20: one round-robin tick per request,
    not one per attempt."""
    failing, second, third = _query_worker(500), _query_worker(), _query_worker()
    with _router_over([failing, second, third]) as (router, url):
        for _ in range(30):
            status, _, answer = _post(url, "/query", {"pattern": "ab"})
            assert (status, answer["count"]) == (200, 1.5)
        retries = router.health()["retries"]
    assert [len(worker.deadlines) for worker in (failing, second, third)] == [10, 20, 10]
    assert retries == 10


def test_a_request_every_live_worker_failed_waits_once_and_goes_round_again(monkeypatch):
    """Both workers fail the request's first round.  After one
    ``RETRY_WAIT`` it starts again at the worker it drew, which answers
    now: two retries, and the other worker is not tried twice."""
    monkeypatch.setattr("repro.serving.cluster.router.RETRY_WAIT", 0.2)
    recovering, failing = _query_worker(failures=1), _query_worker(500)
    with _router_over([recovering, failing]) as (router, url):
        started = time.monotonic()
        status, _, answer = _post(url, "/query", {"pattern": "ab"})
        elapsed = time.monotonic() - started
        retries = router.health()["retries"]
    assert (status, answer["count"]) == (200, 1.5)
    assert (len(recovering.deadlines), len(failing.deadlines)) == (2, 1)
    assert retries == 2
    assert elapsed >= 0.2


def test_when_every_worker_keeps_failing_the_freshest_5xx_is_relayed(monkeypatch):
    """Past ``RETRY_TIMEOUT`` the request gets the last worker answer it
    had, as the worker sent it: the second worker's 503, since every round
    ends there."""
    monkeypatch.setattr("repro.serving.cluster.router.RETRY_WAIT", 0.05)
    monkeypatch.setattr("repro.serving.cluster.router.RETRY_TIMEOUT", 0.5)
    first, second = _query_worker(500), _query_worker(503)
    with _router_over([first, second]) as (router, url):
        started = time.monotonic()
        status, _, answer = _post(url, "/query", {"pattern": "ab"})
        elapsed = time.monotonic() - started
        retries = router.health()["retries"]
    assert (status, answer) == (503, {"release": "demo", "count": 1.5})
    assert elapsed >= 0.5
    rounds = len(first.deadlines)
    assert rounds >= 2
    assert len(second.deadlines) == rounds
    assert retries == 2 * rounds


def test_with_no_live_worker_a_request_gets_a_json_503_at_retry_timeout(monkeypatch):
    monkeypatch.setattr("repro.serving.cluster.router.RETRY_TIMEOUT", 0.3)
    with _router_over([]) as (router, url):
        started = time.monotonic()
        status, _, answer = _post(url, "/query", {"pattern": "ab"})
        elapsed = time.monotonic() - started
        retries = router.health()["retries"]
    assert status == 503
    assert answer["error"] == "no live worker answered POST /query"
    assert elapsed >= 0.3
    assert retries == 0  # nothing was tried


def test_a_refused_connection_goes_to_the_next_worker_and_wakes_the_supervisor():
    """A worker port that refuses connections costs a request that drew it
    one retry on the next worker, and each refusal is reported through
    ``WorkerTable.note_failure``, which wakes the supervisor."""
    refusing = _RefusingWorker()
    with _router_over([refusing, _query_worker()]) as (router, url):
        noted = []
        router.table.on_failure = noted.append
        for _ in range(10):
            status, _, answer = _post(url, "/query", {"pattern": "ab"})
            assert (status, answer["count"]) == (200, 1.5)
        retries = router.health()["retries"]
    assert retries == 5
    assert [worker.port for worker in noted] == [refusing.server_address[1]] * 5


def test_an_expired_deadline_ends_the_retries_with_504(monkeypatch):
    """A request whose only worker keeps failing stops at its client's
    deadline, long before ``RETRY_TIMEOUT``: no one waits for its answer
    any more."""
    monkeypatch.setattr("repro.serving.cluster.router.RETRY_WAIT", 0.05)
    monkeypatch.setattr("repro.serving.cluster.router.RETRY_TIMEOUT", 30.0)
    failing = _query_worker(500)
    with _router_over([failing]) as (router, url):
        deadline = Deadline.after(0.4).header_value()
        started = time.monotonic()
        status, _, answer = _post(url, "/query", {"pattern": "ab"}, {DEADLINE_HEADER: deadline})
        elapsed = time.monotonic() - started
        exceeded = router.health()["deadline_exceeded"]
    assert status == 504
    assert answer["error"] == "deadline expired while forwarding POST /query"
    assert 0.3 <= elapsed < 5.0
    assert exceeded == 1
    assert len(failing.deadlines) >= 2  # it kept retrying until then


class _BurstHandler(BaseHTTPRequestHandler):
    """Stand-in worker ``/batch`` (either request format): zeros as float64,
    answered only once
    ``server.arrived`` lets it pass (a barrier: every request of a burst has
    arrived) and the test has set ``server.release``."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        patterns = batch_patterns(self.headers["Content-Type"], body)
        self.server.arrived.wait(timeout=10)
        self.server.release.wait(timeout=10)
        body = encode_f64(np.zeros(len(patterns)))
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

    def __init__(
        self, arrived: threading.Barrier | threading.Event, release: threading.Event
    ) -> None:
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


class TestWorkerConnectionPool:
    CLIENTS = 6
    IDLE_CAP = 2  # the router keeps this many idle connections per worker

    @pytest.mark.parametrize("retire", [False, True], ids=["kept", "retired"])
    def test_a_burst_leaves_a_bounded_pool(self, retire, monkeypatch):
        """Six concurrent clients open six router->worker connections; once
        they close, each worker keeps at most ``MAX_IDLE_PER_WORKER`` of
        them, and a worker that left the table mid-burst keeps none."""
        monkeypatch.setattr(
            "repro.serving.cluster.router.MAX_IDLE_PER_WORKER", self.IDLE_CAP
        )
        arrived = threading.Barrier(self.CLIENTS + 1)
        release = threading.Event()
        workers = [_BurstWorker(arrived, release) for _ in range(2)]
        for worker in workers:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        results: list[list[float]] = []
        with _router_over(workers) as (router, url):

            def call() -> None:
                with ServingClient(url, timeout=20) as client:
                    results.append(client.batch(["ab", "ba"]))

            threads = [threading.Thread(target=call) for _ in range(self.CLIENTS)]
            try:
                for thread in threads:
                    thread.start()
                arrived.wait(timeout=10)  # every request is inside a worker
                if retire:
                    router.table.swap(router.table.workers()[1:], 2, {"demo": 1})
                release.set()
                for thread in threads:
                    thread.join(timeout=20)
                assert results == [[0.0, 0.0]] * self.CLIENTS
                assert sum(worker.accepted for worker in workers) == self.CLIENTS
                limits = [0 if retire else self.IDLE_CAP, self.IDLE_CAP]
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and any(
                    worker.open > limit for worker, limit in zip(workers, limits)
                ):
                    time.sleep(0.02)
                still_open = [worker.open for worker in workers]
                assert all(n <= limit for n, limit in zip(still_open, limits)), still_open
            finally:
                release.set()


def test_the_router_sheds_past_max_inflight_and_the_client_comes_back(monkeypatch):
    """With ``MAX_INFLIGHT`` 1 and one request held inside its worker, the
    next request gets ``503 + Retry-After`` with a JSON error and counts as
    a shed; a ``ServingClient`` call shed the same way succeeds once it has
    waited the ``Retry-After``, far sooner than its backoff would."""
    monkeypatch.setattr("repro.serving.cluster.router.MAX_INFLIGHT", 1)
    arrived, release = threading.Event(), threading.Event()
    arrived.set()  # each request waits for ``release`` only
    worker = _BurstWorker(arrived, release)
    threading.Thread(target=worker.serve_forever, daemon=True).start()
    results: dict[str, object] = {}

    def call(name: str, client: ServingClient) -> None:
        started = time.monotonic()
        with client:
            results[name] = client.batch(["ab", "ba"])
        results[f"{name}_seconds"] = time.monotonic() - started
        results[f"{name}_retries"] = client.num_retries

    with _router_over([worker]) as (router, url):
        held = threading.Thread(target=call, args=("held", ServingClient(url, timeout=20)))
        held.start()
        deadline = time.monotonic() + 10
        while worker.accepted < 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # the held request is admitted and inside the worker
        status, headers, answer = _post(url, "/batch", {"patterns": ["ab"]})
        assert status == 503
        assert headers["Retry-After"] == "0.25"
        assert "capacity" in answer["error"]
        assert router.health()["sheds"] == 1
        slow_backoff = BackoffPolicy(base=5.0, cap=5.0)
        shed = ServingClient(url, timeout=20, backoff=slow_backoff)
        comes_back = threading.Thread(target=call, args=("shed", shed))
        comes_back.start()
        while router.health()["sheds"] < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert router.health()["sheds"] == 2
        release.set()
        for thread in (held, comes_back):
            thread.join(timeout=20)
            assert not thread.is_alive()
    assert results["held"] == results["shed"] == [0.0, 0.0]
    assert results["held_retries"] == 0
    assert results["shed_retries"] >= 1
    assert 0.25 <= results["shed_seconds"] < 5.0


class _FailingHandler(BaseHTTPRequestHandler):
    """Stand-in worker whose ``/healthz`` is fine and whose every ``POST``
    is answered 500, as a worker's whose query handler fails is."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._answer(200, {"status": "ok"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posts += 1
        self._answer(500, {"error": "internal error: every request fails"})

    def _answer(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        pass


class _StandInProcess:
    """The process of an in-process stand-in worker: alive until killed,
    which stops its server and, like a process's death, makes its
    ``sentinel`` readable; also the no-op control pipe of its handle."""

    pid = None

    def __init__(self, server: ThreadingHTTPServer) -> None:
        self.server = server
        self.alive = True
        self._sentinel, self._life = socket.socketpair()
        self.sentinel = self._sentinel.fileno()

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        if self.alive:
            self.alive = False
            self._life.close()
            self.server.shutdown()
            self.server.server_close()

    terminate = kill

    def join(self, timeout: float | None = None) -> None:
        pass

    def send(self, message) -> None:
        pass

    def close(self) -> None:
        pass


def test_a_worker_that_answers_every_request_500_is_replaced(store):
    """A worker whose process and ``/healthz`` are fine but whose every
    answer is a 500 leaves rotation: at ``FAILED_ANSWERS_LIMIT`` 500s in a
    row the router wakes the monitor, which kills it and spawns a
    replacement, and later requests take no router retry."""
    failing = ThreadingHTTPServer(("127.0.0.1", 0), _FailingHandler)
    failing.daemon_threads = True
    failing.posts = 0
    threading.Thread(target=failing.serve_forever, daemon=True).start()
    process = _StandInProcess(failing)
    with Cluster(store, workers=1) as cluster:
        table = cluster.table
        stand_in = WorkerHandle(
            "failing", table.generation, process, process, failing.server_address[1]
        )
        table.swap([stand_in, *table.workers()], table.generation, table.versions)
        deadline = time.monotonic() + 30
        while cluster.respawns < 1 and time.monotonic() < deadline:
            assert _post(cluster.url, "/query", {"pattern": "ab"})[0] == 200
            time.sleep(0.005)
        assert cluster.respawns == 1
        assert not process.alive
        assert stand_in not in cluster.workers()
        assert failing.posts >= FAILED_ANSWERS_LIMIT
        retries = cluster.router.health()["retries"]
        for _ in range(20):
            assert _post(cluster.url, "/query", {"pattern": "ab"})[0] == 200
        assert cluster.router.health()["retries"] == retries


def test_a_504_neither_counts_nor_clears_the_500s_in_a_row():
    handle = WorkerHandle("w", 1, _Running(), None, 0)
    statuses = [500] * (FAILED_ANSWERS_LIMIT - 1)
    assert not any(handle.note_answer(status) for status in statuses)
    assert not handle.note_answer(504)
    assert handle.note_answer(500)  # the limit-th 500 in a row
    assert not handle.note_answer(200)
    assert handle.failed_answers == 0


#: a healthy worker's HTTP heartbeat, and a one-worker tier probed every
#: 0.2 s, under an ``http_proxy`` that refuses every connection
_PROXIED_HEARTBEAT = """
import sys, threading, time
from repro.serving import Cluster, QueryService, ReleaseStore, create_server
from repro.serving.cluster import WorkerHandle, supervisor

class Running:
    pid = None

    def is_alive(self):
        return True

store = ReleaseStore(sys.argv[1])
service = QueryService.from_store(store, micro_batch=False)
server = create_server(service)
threading.Thread(target=server.serve_forever, daemon=True).start()
probe = WorkerHandle("w0", 1, Running(), None, server.server_address[1]).heartbeat()
supervisor.HTTP_HEARTBEAT_INTERVAL, supervisor.HEARTBEAT_MISSES = 0.2, 2
with Cluster(store, workers=1) as cluster:
    time.sleep(1.5)
    respawns = cluster.respawns
print(probe, respawns)
"""


def test_an_http_proxy_does_not_fail_healthy_heartbeats(store):
    """The heartbeat goes straight to the worker's port.  Run in a
    subprocess: a proxy-reading client caches the environment's proxies
    per process."""
    env = {k: v for k, v in os.environ.items() if k.lower() not in ("no_proxy", "http_proxy")}
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env.update(http_proxy="http://127.0.0.1:9", HTTP_PROXY="http://127.0.0.1:9")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", _PROXIED_HEARTBEAT, str(store.root)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout.split() == [b"True", b"0"]


def test_the_monitor_reports_a_failing_pass_and_keeps_running(
    store, capfd, monkeypatch
):
    """A pass of the supervisor's monitor that raises leaves its traceback
    on stderr, and the next pass still runs.  No worker is spawned."""
    monkeypatch.setattr("repro.serving.cluster.supervisor.HEARTBEAT_INTERVAL", 0.01)
    cluster = Cluster(store, workers=1)
    passes: list[int] = []
    second = threading.Event()

    def check_workers() -> None:
        passes.append(len(passes))
        if len(passes) == 1:
            raise RuntimeError("injected monitor failure")
        second.set()

    cluster._check_workers = check_workers
    monitor = threading.Thread(target=cluster._monitor, daemon=True)
    monitor.start()
    try:
        assert second.wait(timeout=10)
    finally:
        cluster._stopping.set()
        cluster._wake.wake()
        monitor.join(timeout=10)
    assert not monitor.is_alive()
    err = capfd.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: injected monitor failure" in err


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
