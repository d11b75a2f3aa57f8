"""The HTTP/1.1 subset every hop speaks (repro.serving.wire).

Each rule of the contract is checked over a raw socket on both servers
that answer clients, ``dpsc serve`` and the tier's router (here relaying
to an in-process ``dpsc serve`` as its one worker): the 413, 414 and 431
limits (413 from the head alone, before any ``100 Continue``), 400 for a
bad request line, a space before a colon and
conflicting ``Content-Length`` values, 501 for ``Transfer-Encoding`` and
unknown methods, every error body JSON and every error closing the
connection.  So do keep-alive, HTTP/1.0, ``Connection: close``,
``Expect: 100-continue`` and pipelining.

Two hypothesis properties hold the codec to the standard library: for
generated header blocks, :func:`wire.read_headers` either reads each
header the servers use as ``http.client.parse_headers`` does, or refuses
the block; and every answer :func:`wire.encode_answer` writes parses with
``http.client.HTTPResponse`` to the same status, headers and body.

The client cases run ``ServingClient`` against an IPv6 literal base URL
and against canned raw-socket servers whose answers are cut short or
chunked.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import QueryService, ServingClient, create_server, wire
from repro.serving.client import ServingClientError
from repro.serving.cluster import Router, WorkerHandle, WorkerTable, create_router_server
from repro.serving.resilience import BackoffPolicy
from tests.serving.test_release_format import make_structure

COUNTS = {"ab": 5.0, "ba": 3.0}
FAST = BackoffPolicy(base=0.005, cap=0.01)


class _Running:
    """A worker process stand-in that is always alive."""

    pid = None

    def is_alive(self) -> bool:
        return True


def _serve(server) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def dpsc_server():
    service = QueryService({"demo": make_structure(COUNTS)}, micro_batch=False)
    server = create_server(service)
    thread = _serve(server)
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


@pytest.fixture(scope="module")
def router_server(dpsc_server):
    table = WorkerTable()
    table.swap([WorkerHandle("w0", 1, _Running(), None, dpsc_server[1])], 1, {"demo": 1})
    router = Router(table)
    server = create_router_server(router)
    thread = _serve(server)
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    router.close()


@pytest.fixture(params=["serve", "router"])
def address(request):
    return request.getfixturevalue("dpsc_server" if request.param == "serve" else "router_server")


def split_answers(data: bytes) -> list[tuple[str, dict[str, str], bytes]]:
    """Every answer in ``data``: status line, headers, body."""
    answers = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers.get("Content-Length", 0))
        answers.append((lines[0], headers, rest[:length]))
        data = rest[length:]
    return answers


def until_closed(address, data: bytes) -> list[tuple[str, dict[str, str], bytes]]:
    """Send ``data`` in one write and read until the server closes the
    connection (a server that keeps it open fails the read's timeout)."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return split_answers(received)


def post(path: str, payload: dict, *headers: str) -> bytes:
    body = json.dumps(payload).encode()
    head = "".join(f"{line}\r\n" for line in headers)
    return f"POST {path} HTTP/1.1\r\n{head}Content-Length: {len(body)}\r\n\r\n".encode() + body


#: request -> the status it gets; each error answer closes the connection
REFUSED = {
    "request-line-too-long": (b"GET /" + b"a" * wire.MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
    "header-line-too-long": (
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * wire.MAX_LINE + b"\r\n\r\n",
        431,
    ),
    "101-headers": (
        b"GET /healthz HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n",
        431,
    ),
    "two-words": (b"GET /healthz\r\n\r\n", 400),
    "four-words": (b"GET /healthz x HTTP/1.1\r\n\r\n", 400),
    "double-space": (b"GET  /healthz HTTP/1.1\r\n\r\n", 400),
    "transfer-encoding": (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n"
        b'{"pattern":"ab"}\r\n0\r\n\r\n',
        501,
    ),
    "put": (b"PUT /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
    "head": (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501),
    "space-before-colon": (b'POST /query HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}', 400),
    "obs-fold": (b"GET /healthz HTTP/1.1\r\nAccept: a\r\n b\r\n\r\n", 400),
    "conflicting-content-length": (
        b"POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
        400,
    ),
    "http-2": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    "content-length-of-5000-digits": (
        b"POST /query HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
        413,
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_request_gets_a_json_error_and_a_close(address, case):
    request, status = REFUSED[case]
    [(line, headers, body)] = until_closed(address, request)
    assert line.startswith(f"HTTP/1.1 {status} ")
    assert headers["Connection"] == "close"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body)["error"]
    assert headers["Server"].startswith("repro-dpsc")
    assert headers["Date"].endswith(" GMT")


def test_the_limits_admit_what_they_bound(address):
    target = b"/healthz?" + b"a" * (wire.MAX_LINE - 30)
    headers = b"".join(b"X-%d: 1\r\n" % i for i in range(wire.MAX_HEADERS - 1))
    request = b"GET " + target + b" HTTP/1.1\r\n" + headers + b"Connection: close\r\n\r\n"
    [(line, _, body)] = until_closed(address, request)
    assert line == "HTTP/1.1 200 OK"
    assert json.loads(body)["status"] in ("ok", "degraded")


def _head_declaring(length: int, expect: bool) -> bytes:
    """A ``POST /batch`` head declaring a body of ``length`` bytes."""
    expect_line = "Expect: 100-continue\r\n" if expect else ""
    return (
        f"POST /batch HTTP/1.1\r\nContent-Type: application/json\r\n{expect_line}"
        f"Content-Length: {length}\r\n\r\n"
    ).encode()


@pytest.mark.parametrize("expect", [False, True], ids=["plain", "expect-100-continue"])
def test_a_body_over_max_body_is_refused_from_its_head(address, expect):
    """Nothing of the body is sent: the answer comes from the head alone,
    and it is the 413 itself, not a ``100 Continue`` first."""
    [(line, headers, body)] = until_closed(address, _head_declaring(wire.MAX_BODY + 1, expect))
    assert line.startswith("HTTP/1.1 413 ")
    assert headers["Connection"] == "close"
    assert headers["Content-Type"] == "application/json"
    assert str(wire.MAX_BODY) in json.loads(body)["error"]


def test_a_body_of_max_body_is_invited(address):
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(_head_declaring(wire.MAX_BODY, expect=True))
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"


def test_equal_repeated_content_lengths_are_one(address):
    body = b'{"pattern": "ab"}'
    request = (
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\nContent-Length: %d\r\n"
        b"Connection: close\r\n\r\n" % (len(body), len(body))
    ) + body
    [(line, _, answer)] = until_closed(address, request)
    assert line == "HTTP/1.1 200 OK"
    assert json.loads(answer)["count"] == 5.0


def test_leading_zeros_of_a_content_length_are_not_significant(address):
    """Only significant digits count toward the many-digit cut-off that
    reads as too large: a padded length of a small body is that body."""
    body = b'{"pattern": "ab"}'
    request = (
        b"POST /query HTTP/1.1\r\nContent-Length: %s%d\r\nConnection: close\r\n\r\n"
        % (b"0" * 40, len(body))
    ) + body
    [(line, _, answer)] = until_closed(address, request)
    assert line == "HTTP/1.1 200 OK"
    assert json.loads(answer)["count"] == 5.0


def test_http_1_0_closes_after_its_answer(address):
    [(line, headers, body)] = until_closed(address, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert line == "HTTP/1.1 200 OK"
    assert headers["Connection"] == "close"
    assert "status" in json.loads(body)


def test_connection_close_ends_the_connection(address):
    [(line, headers, body)] = until_closed(
        address, post("/query", {"pattern": "ba"}, "Connection: close")
    )
    assert line == "HTTP/1.1 200 OK"
    assert headers["Connection"] == "close"
    assert json.loads(body)["count"] == 3.0


def test_pipelined_requests_get_their_answers_in_order(address):
    first = post("/query", {"pattern": "ab"})
    second = post("/query", {"pattern": "ba"}, "Connection: close")
    answers = until_closed(address, first + second)
    assert [line for line, _, _ in answers] == ["HTTP/1.1 200 OK"] * 2
    assert "Connection" not in answers[0][1]  # keep-alive is the default
    assert [json.loads(body)["count"] for _, _, body in answers] == [5.0, 3.0]


def test_100_continue_arrives_before_the_body_is_sent(address):
    body = json.dumps({"patterns": ["ab", "ba"] * 300}).encode()
    assert len(body) > 1024
    head = (
        f"POST /batch HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(head)
        interim = sock.recv(65536)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    [(line, _, answer)] = split_answers(received)
    assert line == "HTTP/1.1 200 OK"
    assert json.loads(answer)["counts"] == [5.0, 3.0] * 300


# ----------------------------------------------------------------------
# The codec against the standard library
# ----------------------------------------------------------------------
#: the request headers the servers read
USED = (
    "Content-Length", "Connection", "Expect", "Accept", "Content-Type", "X-DPSC-Deadline"
)

_cased = st.sampled_from(USED).flatmap(
    lambda name: st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(name, upper))
    )
)
_value = st.text(" \t,;=ab1-09\x85\xa0é", max_size=8)
_ending = st.sampled_from(["\r\n", "\n"])
#: a well-formed header line of a used header, in any case, with optional
#: whitespace around its value and either line ending
_clean = st.tuples(_cased, st.sampled_from([":", ": ", ":\t", ":  "]), _value, _ending)
#: a line with one defect that the subset refuses or the stdlib reads
#: differently: whitespace before the colon, a control byte or bare CR in
#: the value, a doubled CR, a name that is not a token, a fold, no colon
_control = st.sampled_from("\r\x00\x0b\x1f\x7f")
_odd = st.one_of(
    st.tuples(_cased, st.sampled_from([" :", "\t:", " : "]), _value, _ending),
    st.tuples(_cased, st.just(":"), _value, _control, _value, _ending),
    st.tuples(_cased, st.just(":"), _value, st.just("\r\r\n")),
    st.tuples(st.text("aZ-_.!~0:; \t\x00é", max_size=6), st.just(":"), _value, _ending),
    st.tuples(st.sampled_from([" ", "\t"]), _value, _ending),  # folded
    st.tuples(_value, _ending),  # no colon
)
#: a block of well-formed lines with at most one odd line among them
_blocks = st.tuples(
    st.lists(_clean.map("".join), max_size=7),
    st.lists(_odd.map("".join), max_size=1),
    st.integers(0, 7),
).map(lambda parts: parts[0][: parts[2]] + parts[1] + parts[0][parts[2]:])


@settings(max_examples=400, deadline=None)
@given(_blocks)
def test_read_headers_agrees_with_the_stdlib_parser_or_refuses(lines):
    block = ("".join(lines) + "\r\n").encode("latin-1")
    try:
        ours = wire.read_headers(io.BytesIO(block))
    except wire.ProtocolError as error:
        assert error.status == 400
        return
    theirs = http.client.parse_headers(io.BytesIO(block))
    for name in USED:
        value = theirs.get(name)
        assert ours.get(name.lower()) == (None if value is None else value.strip(" \t"))


class _Replay:
    """A socket stand-in that ``http.client.HTTPResponse`` reads from."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


_RESERVED = {"server", "date", "content-type", "content-length", "connection", "transfer-encoding"}
_token = st.text("abcXYZ-_.!~09", min_size=1, max_size=8)
_header_value = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f"),
    max_size=12,
).map(lambda value: value.strip(" "))


@settings(max_examples=300, deadline=None)
@given(
    status=st.sampled_from([200, 400, 404, 414, 431, 500, 501, 503, 504, 505]),
    body=st.binary(max_size=64),
    content_type=st.tuples(_token, _token).map("/".join),
    extra=st.dictionaries(
        _token.filter(lambda name: name.lower() not in _RESERVED), _header_value, max_size=4
    ).filter(lambda headers: len({name.lower() for name in headers}) == len(headers)),
    close=st.booleans(),
)
def test_encoded_answers_parse_with_the_stdlib(status, body, content_type, extra, close):
    data = wire.encode_answer(status, body, content_type, extra, server="repro-dpsc", close=close)
    response = http.client.HTTPResponse(_Replay(data))
    response.begin()
    assert response.status == status
    assert response.getheader("Content-Type") == content_type
    assert response.getheader("Server") == "repro-dpsc"
    for name, value in extra.items():
        assert response.getheader(name) == value
    assert response.will_close == close
    assert response.read() == body


def test_http_date_is_rfc_9110():
    parsed = time.strptime(wire.http_date(), "%a, %d %b %Y %H:%M:%S GMT")
    assert abs(time.mktime(parsed) - time.mktime(time.gmtime())) <= 2


@pytest.mark.parametrize(
    "netloc, expected",
    [
        ("127.0.0.1:8080", ("127.0.0.1", 8080)),
        ("example.org", ("example.org", 80)),
        ("[::1]:9000", ("::1", 9000)),
        ("[::1]", ("::1", 80)),
        ("host:", ("host", 80)),
    ],
)
def test_parse_netloc(netloc, expected):
    assert wire.parse_netloc(netloc, 80) == expected


@pytest.mark.parametrize("netloc", ["host:http", "host:70000", "[::1", "[::1]x"])
def test_parse_netloc_refuses_bad_ports(netloc):
    with pytest.raises(ValueError):
        wire.parse_netloc(netloc, 80)


# ----------------------------------------------------------------------
# ServingClient over the codec
# ----------------------------------------------------------------------
class _Canned:
    """A raw-socket server on ``host`` that answers the request on each
    connection with ``answer`` and then closes it, or keeps it open when
    ``hold``; ``requests`` holds what it received."""

    def __init__(self, answer: bytes, *, hold: bool = False, host: str = "127.0.0.1") -> None:
        self.answer = answer
        self.hold = hold
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.listener = socket.create_server((host, 0), family=family)
        port = self.listener.getsockname()[1]
        self.url = f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"
        self.held: list[socket.socket] = []
        self.requests: list[bytes] = []
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            self.requests.append(sock.recv(65536))  # the request is one small write
            sock.sendall(self.answer)
            if self.hold:
                self.held.append(sock)
            else:
                sock.close()

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.listener.close()
        for sock in self.held:
            sock.close()
        self.thread.join(timeout=5)


_HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
ANSWER = _HEAD + b'Content-Length: 14\r\n\r\n{"count": 5.0}'
SHORT = _HEAD + b'Content-Length: 100\r\n\r\n{"count": 1'
CHUNKED = _HEAD + b'Transfer-Encoding: chunked\r\n\r\ne\r\n{"count": 1.0}\r\n0\r\n\r\n'


@pytest.mark.parametrize("answer", [SHORT, CHUNKED], ids=["short-body", "chunked"])
def test_an_unreadable_answer_is_retried_then_surfaced(answer):
    server = _Canned(answer)
    try:
        started = time.monotonic()
        with ServingClient(server.url, timeout=2.0, retries=2, backoff=FAST) as client:
            with pytest.raises(ServingClientError) as excinfo:
                client.query("ab")
        assert time.monotonic() - started < 2.0
        assert excinfo.value.status == 0
        assert excinfo.value.attempts == 3
        assert len(server.requests) == 3
    finally:
        server.close()


def test_a_short_body_on_an_open_connection_ends_at_the_deadline():
    server = _Canned(SHORT, hold=True)
    try:
        started = time.monotonic()
        with ServingClient(server.url, timeout=0.5, retries=2, backoff=FAST) as client:
            with pytest.raises(ServingClientError, match="deadline"):
                client.query("ab")
        assert time.monotonic() - started < 1.5
    finally:
        server.close()


def test_an_ipv6_literal_base_url_works():
    try:
        server = _Canned(ANSWER, host="::1")
    except OSError:
        pytest.skip("no IPv6 loopback")
    host = server.url.split("//", 1)[1].encode()
    try:
        with ServingClient(server.url) as client:
            assert client.query("ab") == 5.0
        assert server.requests[0].startswith(b"POST /query HTTP/1.1\r\nHost: " + host + b"\r\n")
        assert host.startswith(b"[::1]:")
    finally:
        server.close()
