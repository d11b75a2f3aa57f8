"""The binary ``/batch`` request (``application/x-dpsc-patterns``).

``ServingClient.batch`` sends a batch as its patterns in UTF-8 with one NUL
byte between them, and the release in the query string; ``dpsc serve``
decodes the body once and hands the text to the trie kernel, and the
router relays it as it relays any body.  A batch the format cannot carry
(empty, or with a pattern holding NUL) goes as JSON.

The property: on ``dpsc serve`` and through the router (relaying to it),
with ``release=`` set and unset, ``client.batch(ps)`` is the release's
``batch_query(ps)`` for lists of empty patterns, astral code points, lone
surrogates and NUL-containing patterns, and for the empty batch.  Raw
requests on both servers: a body that is not UTF-8 is a JSON 400, an
unknown ``?release=`` a 404, and a declared body over ``MAX_BODY`` a 413.
On ``dpsc serve``, a binary request counts, times, refuses an expired
deadline and hits the ``worker.handle`` failpoint as a JSON one does.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.serving import QueryService, ServingClient, create_server, wire
from repro.serving.cluster import Router, WorkerHandle, WorkerTable, create_router_server
from repro.serving.resilience import DEADLINE_HEADER
from repro.serving.server import PATTERNS_MEDIA_TYPE, encode_patterns
from tests.serving.test_release_format import make_structure
from tests.serving.test_wire import _Running, until_closed

RELEASES = {
    "demo": {"": 9.0, "a": 4.0, "ab": 5.0, "ba": 3.0, "abab": 1.5, "b\U0001F600": 2.5},
    "other": {"": 1.0, "ab": -2.0, "b": 7.25},
}


@pytest.fixture(scope="module")
def releases():
    return {name: make_structure(counts) for name, counts in RELEASES.items()}


@pytest.fixture(scope="module")
def service(releases):
    service = QueryService(releases, default_release="demo", micro_batch=False)
    yield service
    service.close()


@pytest.fixture(scope="module")
def servers(service):
    """``dpsc serve`` and a router relaying to it: name -> (host, port)."""
    server = create_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    table = WorkerTable()
    table.swap(
        [WorkerHandle("w0", 1, _Running(), None, server.server_address[1])],
        1,
        {name: 1 for name in RELEASES},
    )
    router = Router(table)
    router_server = create_router_server(router)
    threading.Thread(target=router_server.serve_forever, daemon=True).start()
    yield {"serve": server.server_address[:2], "router": router_server.server_address[:2]}
    for running in (router_server, server):
        running.shutdown()
        running.server_close()
    router.close()


@pytest.fixture(scope="module")
def clients(servers):
    clients = {
        name: ServingClient(f"http://{host}:{port}") for name, (host, port) in servers.items()
    }
    yield clients
    for client in clients.values():
        client.close()


@pytest.fixture(params=["serve", "router"])
def address(request, servers):
    return servers[request.param]


#: characters of the released patterns, a miss, an astral code point, two
#: lone surrogates and NUL
PATTERNS = st.lists(
    st.text(st.sampled_from(["a", "b", "z", "\U0001F600", "\ud800", "\udfff", "\x00"]), max_size=5),
    max_size=24,
)


@given(patterns=PATTERNS, release=st.sampled_from([None, "demo", "other"]))
@settings(max_examples=60, deadline=None)
def test_client_batch_is_the_release_batch_query(clients, releases, patterns, release):
    expected = releases[release or "demo"].batch_query(patterns).tolist()
    for client in clients.values():
        assert client.batch(patterns, release=release) == expected


def test_the_empty_batch_on_both_servers(clients):
    for client in clients.values():
        assert client.batch([]) == []
        assert client.batch([], release="other") == []


def test_what_the_format_cannot_carry_is_left_to_json():
    assert encode_patterns(["ab", "", "\ud800", "\U0001F600"]) == (
        b"ab\x00\x00\xed\xa0\x80\x00\xf0\x9f\x98\x80"
    )
    assert encode_patterns([""]) == b""
    assert encode_patterns([]) is None
    assert encode_patterns(["a\x00b", "ab"]) is None
    assert encode_patterns(["ab", 7]) is None


def binary_batch(target: str, body: bytes, *headers: str) -> bytes:
    """A raw ``POST`` of a binary ``/batch`` body that closes its connection."""
    head = "".join(f"{line}\r\n" for line in headers)
    return (
        f"POST {target} HTTP/1.1\r\nContent-Type: {PATTERNS_MEDIA_TYPE}\r\n{head}"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


def test_a_binary_batch_answers_json_counts(address, releases):
    [(line, headers, body)] = until_closed(address, binary_batch("/batch?release=other", b"ab\x00b\x00"))
    assert (line, headers["Content-Type"]) == ("HTTP/1.1 200 OK", "application/json")
    expected = releases["other"].batch_query(["ab", "b", ""]).tolist()
    assert json.loads(body) == {"release": "other", "counts": expected}


def test_a_body_that_is_not_utf8_is_a_json_400(address):
    [(line, headers, body)] = until_closed(address, binary_batch("/batch", b"ab\x00\xff"))
    assert line.startswith("HTTP/1.1 400 ")
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"error": "request body is not valid UTF-8"}


def test_an_unknown_release_is_a_json_404(address):
    [(line, headers, body)] = until_closed(address, binary_batch("/batch?release=nope", b"ab"))
    assert line.startswith("HTTP/1.1 404 ")
    assert headers["Content-Type"] == "application/json"
    assert "'nope'" in json.loads(body)["error"]


def test_a_declared_body_over_max_body_is_413(address):
    head = (
        f"POST /batch HTTP/1.1\r\nContent-Type: {PATTERNS_MEDIA_TYPE}\r\n"
        f"Content-Length: {wire.MAX_BODY + 1}\r\n\r\n"
    ).encode()
    [(line, headers, body)] = until_closed(address, head)
    assert line.startswith("HTTP/1.1 413 ")
    assert headers["Connection"] == "close"
    assert str(wire.MAX_BODY) in json.loads(body)["error"]


def batch_numbers(service: QueryService) -> tuple[int, int, int]:
    """``/batch`` requests, patterns and latency observations so far."""
    latency = service.metrics.snapshot()["dpsc_request_seconds"]["series"]
    observed = next(
        entry["value"]["count"] for entry in latency if entry["labels"]["endpoint"] == "batch"
    )
    return service.num_batches, service.num_batch_patterns, observed


def test_a_binary_batch_counts_and_is_timed_as_a_json_one(servers, service):
    address = servers["serve"]
    before = batch_numbers(service)
    until_closed(address, binary_batch("/batch", b"ab\x00\x00a"))
    assert batch_numbers(service) == tuple(n + k for n, k in zip(before, (1, 3, 1)))


def test_an_expired_deadline_is_refused_with_504(servers, service):
    refused = service.num_deadline_exceeded
    request = binary_batch("/batch", b"ab", f"{DEADLINE_HEADER}: 1.0")
    [(line, _, body)] = until_closed(servers["serve"], request)
    assert line.startswith("HTTP/1.1 504 ")
    assert "deadline" in json.loads(body)["error"]
    assert service.num_deadline_exceeded == refused + 1


def test_the_handler_failpoint_fires_on_a_binary_batch(servers):
    with faults.armed([{"site": "worker.handle", "action": "raise"}], seed=0):
        [(line, _, body)] = until_closed(servers["serve"], binary_batch("/batch", b"ab"))
    assert line.startswith("HTTP/1.1 500 ")
    assert json.loads(body)["error"]
