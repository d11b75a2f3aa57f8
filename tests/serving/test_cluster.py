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
* hot reload swaps worker generations without dropping a request.
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
from repro.serving.cluster import shard_of
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

    def test_raw_response_bytes_identical(self, cluster, store):
        service = QueryService.from_store(store, micro_batch=False)
        from repro.serving import create_server

        server = create_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            body = json.dumps({"patterns": UNIFORM}).encode("utf-8")

            def raw(url):
                request = urllib.request.Request(
                    f"{url}/batch",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.read()

            single = raw(f"http://127.0.0.1:{server.server_address[1]}")
            assert raw(cluster.url) == single
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
        with Cluster(store, workers=2, split_min_patterns=8) as cluster:
            client = ServingClient(cluster.url, timeout=60)
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

    def test_reload_is_noop_when_versions_unchanged(self, cluster):
        summary = cluster.reload()
        assert summary["reloaded"] is False
        assert summary["generation"] == cluster.generation


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
