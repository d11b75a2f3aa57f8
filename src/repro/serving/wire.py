"""The one HTTP/1.1 subset every hop of the serving tier speaks.

``dpsc serve``, the tier's router and its workers answer with it; the
:class:`~repro.serving.client.ServingClient`, the router's relay and the
supervisor's heartbeat ask with it.  It is the part of RFC 9112 these hops
use and nothing more, so a request costs one parse of its head and one
write of its answer:

* **Methods and versions.**  ``GET`` and ``POST`` over ``HTTP/1.1`` or
  ``HTTP/1.0``.  Keep-alive is the HTTP/1.1 default; an HTTP/1.0 request,
  a ``Connection: close`` request or an answer that says
  ``Connection: close`` ends the connection after that answer.
* **Bodies.**  Delimited by ``Content-Length`` only.  A request with
  ``Transfer-Encoding`` is refused with 501, and an answer with it is a
  :class:`ProtocolError`.  ``Expect: 100-continue`` gets an interim
  ``HTTP/1.1 100 Continue`` before the body is read.
* **Limits.**  A request line over :data:`MAX_LINE` bytes is 414; a longer
  header line, or more than :data:`MAX_HEADERS` header lines, is 431.  A
  declared body over :data:`MAX_BODY` bytes is 413, answered before any
  ``100 Continue`` and without reading the body.
* **Strict heads.**  A request line that is not three words, a header line
  without a colon, with whitespace before it (RFC 9112 §5.1), with a
  control byte in its value or folded onto the next line, and two
  different ``Content-Length`` values (§6.3) are 400.  An unknown method
  is 501 and an HTTP version other than 1.0 and 1.1 is 505.  Each of these
  answers closes the connection.

Header names are case-insensitive, so :func:`read_headers` returns them
lowercased, with the first value of a repeated name.  Servers answer with
:func:`encode_answer` (status line, headers and body as one buffer, so one
``sendall``) and clients ask through :class:`Connection`.  No environment
proxy is ever read: a :class:`Connection` goes to the host it names.
"""

from __future__ import annotations

import functools
import re
import socket
import socketserver
import ssl
import time
from http import HTTPStatus
from typing import Mapping

__all__ = [
    "BAD_CONTENT_LENGTH",
    "MAX_BODY",
    "MAX_HEADERS",
    "MAX_LINE",
    "METHODS",
    "Connection",
    "ProtocolError",
    "RemoteDisconnected",
    "Request",
    "Server",
    "encode_answer",
    "http_date",
    "parse_netloc",
    "read_headers",
    "read_request",
]

#: the longest request, status or header line accepted, in bytes.
MAX_LINE = 65536
#: the most header lines one request or answer may carry.
MAX_HEADERS = 100
#: the largest request body accepted, in bytes: far above any batch the
#: clients send (a 4096-pattern ``/batch`` is tens of KiB), far below what
#: one handler thread can hold in memory.
MAX_BODY = 64 * 1024 * 1024
#: the methods the subset serves; any other is answered 501.
METHODS = frozenset({"GET", "POST"})
#: the 400 answer to an unusable ``Content-Length``.
BAD_CONTENT_LENGTH = "Content-Length must be a non-negative integer"

_VERSIONS = ("HTTP/1.1", "HTTP/1.0")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
#: a header line: an RFC 9110 token, a colon, a value without control
#: bytes (horizontal tab is whitespace), and one line ending.
_FIELD_LINE = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+:[^\x00-\x08\x0a-\x1f\x7f]*\r?\n")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class ProtocolError(Exception):
    """A message outside the subset.  A server answers it with ``status``
    and closes the connection; a client treats it as a failed exchange,
    retryable like a dropped connection."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class RemoteDisconnected(ConnectionResetError):
    """The peer closed the connection before an answer's status line, as a
    server does with a keep-alive connection that sat idle."""


def read_headers(rfile) -> dict[str, str]:
    """The header block of a message, up to and including its blank line:
    lowercased name -> value without surrounding whitespace (the first
    value of a repeated name).  Raises :class:`ProtocolError` (431 or 400)
    for a block outside the subset, or one cut short by end of stream."""
    headers: dict[str, str] = {}
    lines = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if line == b"\r\n" or line == b"\n":
            return headers
        if len(line) > MAX_LINE:
            raise ProtocolError(f"a header line is longer than {MAX_LINE} bytes", 431)
        lines += 1
        if lines > MAX_HEADERS:
            raise ProtocolError(f"more than {MAX_HEADERS} header lines", 431)
        if _FIELD_LINE.fullmatch(line) is None:
            raise ProtocolError(f"malformed header line {line[:80]!r}")
        name, _, value = line.partition(b":")
        key = name.lower().decode("ascii")
        text = value.strip().decode("latin-1")  # the validated line ends in whitespace only
        if headers.setdefault(key, text) != text and key == "content-length":
            raise ProtocolError("conflicting Content-Length values")


def _closes(headers: Mapping[str, str]) -> bool:
    """True when a ``Connection`` header names ``close``."""
    value = headers.get("connection")
    return value is not None and "close" in (
        token.strip().lower() for token in value.split(",")
    )


def _content_length(headers: Mapping[str, str]) -> int | None:
    """The ``Content-Length``, or ``None`` when it is not a non-negative
    integer.  Past 18 significant digits it reads as ``10**18``, beyond
    any body: ``int`` refuses a long enough digit string outright."""
    value = headers.get("content-length", "0")
    if not (value.isascii() and value.isdigit()):
        return None
    digits = value.lstrip("0")
    return int(digits or "0") if len(digits) <= 18 else 10**18


class Request:
    """One parsed request: ``method``, ``target`` (as sent, latin-1),
    ``version``, ``headers`` (as :func:`read_headers` returns them), the
    ``body`` bytes, and whether the connection stays open after the answer
    (``keep_alive``)."""

    __slots__ = ("method", "target", "version", "headers", "body", "keep_alive")

    def __init__(self, method, target, version, headers, body, keep_alive) -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


def read_request(rfile, wfile) -> Request | None:
    """The next request on a server connection, or ``None`` once the
    client has closed it (before a request line, or inside a body).
    ``wfile`` receives the interim ``100 Continue``.  Raises
    :class:`ProtocolError` for a request outside the subset; its head has
    then been read as far as the error."""
    line = rfile.readline(MAX_LINE + 1)
    while line == b"\r\n" or line == b"\n":  # RFC 9112 §2.2 lets a server skip these
        line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise ProtocolError(f"the request line is longer than {MAX_LINE} bytes", 414)
    words = line.rstrip(b"\r\n").decode("latin-1").split(" ")
    if len(words) != 3 or not all(words):
        raise ProtocolError(f"malformed request line {line[:80]!r}")
    method, target, version = words
    headers = read_headers(rfile)
    if version not in _VERSIONS:
        raise ProtocolError(f"HTTP version {version[:20]!r} is not supported", 505)
    if method not in METHODS:
        raise ProtocolError(f"method {method[:20]!r} is not supported", 501)
    if "transfer-encoding" in headers:
        raise ProtocolError("Transfer-Encoding is not supported; send Content-Length", 501)
    length = _content_length(headers)
    if length is None:
        raise ProtocolError(BAD_CONTENT_LENGTH)
    if length > MAX_BODY:
        raise ProtocolError(f"a request body is limited to {MAX_BODY} bytes", 413)
    keep_alive = version == "HTTP/1.1"
    if keep_alive and headers.get("expect", "").lower() == "100-continue":
        wfile.write(_CONTINUE)
    body = rfile.read(length) if length else b""
    if len(body) < length:
        return None
    return Request(method, target, version, headers, body, keep_alive and not _closes(headers))


@functools.lru_cache(maxsize=1)
def _format_date(second: int) -> str:
    t = time.gmtime(second)
    return (
        f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} {t.tm_year} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


def http_date() -> str:
    """The current time as an HTTP ``Date`` value (RFC 9110 §5.6.7),
    formatted at most once per second."""
    return _format_date(int(time.time()))


def encode_answer(
    status: int,
    body: bytes,
    content_type: str,
    headers: Mapping[str, str] | None = None,
    *,
    server: str,
    close: bool = False,
) -> bytes:
    """A whole answer as one buffer: status line, ``Server``, ``Date``,
    ``Content-Type``, ``Content-Length``, then ``headers``, then
    ``Connection: close`` when ``close``, then the body."""
    head = (
        f"HTTP/1.1 {status} {_PHRASES.get(status, '')}\r\nServer: {server}\r\n"
        f"Date: {http_date()}\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if headers:
        head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


class Server(socketserver.ThreadingTCPServer):
    """A thread-per-connection TCP server for a handler that speaks this
    subset.  Handler threads are daemon threads, so closing the server
    joins none of them."""

    allow_reuse_address = True
    daemon_threads = True


def parse_netloc(netloc: str, default_port: int) -> tuple[str, int]:
    """``host[:port]`` or ``[ipv6][:port]`` as ``(host, port)``; raises
    ``ValueError`` for a port that is not a number below 65536."""
    if netloc.startswith("["):
        host, bracket, rest = netloc[1:].partition("]")
        if not bracket or (rest and not rest.startswith(":")):
            raise ValueError(f"malformed IPv6 address in {netloc!r}")
        port = rest[1:]
    else:
        host, _, port = netloc.rpartition(":") if ":" in netloc else (netloc, "", "")
    if not port:
        return host, default_port
    if not (port.isascii() and port.isdigit() and int(port) < 65536):
        raise ValueError(f"bad port {port!r} in {netloc!r}")
    return host, int(port)


class Connection:
    """One client connection to ``host:port``, plain or TLS, that carries
    one request at a time and stays open between them.

    Each request goes out in one ``sendall``, and its answer's body is read
    by ``Content-Length``.  After an answer, :attr:`will_close` says whether
    the server ends the connection.  ``timeout`` bounds the connect and
    every read and write until ``sock.settimeout`` changes it.  TLS uses
    ``ssl.create_default_context()`` and checks the certificate against
    ``host``.  ``authority`` is the ``Host`` header (``host:port`` by
    default).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None,
        *,
        tls: bool = False,
        authority: str | None = None,
    ) -> None:
        sock = socket.create_connection((host, port), timeout)
        try:
            # the request is one write, but a body past one segment would
            # still wait for the peer's delayed ACK under Nagle
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tls:
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self._rfile = sock.makefile("rb")
        self._host = authority or (f"[{host}]:{port}" if ":" in host else f"{host}:{port}")
        self.will_close = False

    def request(
        self,
        method: str,
        target: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One exchange: the answer's status, headers (as
        :func:`read_headers` returns them) and body.  Raises
        :class:`RemoteDisconnected` when the server closed the connection
        before answering, :class:`ProtocolError` for an answer outside the
        subset, and ``OSError`` for a failed connection."""
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
        if headers:
            head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        self.sock.sendall((head + "\r\n").encode("latin-1") + (body or b""))
        return self._read_answer()

    def _read_answer(self) -> tuple[int, dict[str, str], bytes]:
        rfile = self._rfile
        status = 100
        while 100 <= status < 200:  # interim answers carry no body
            line = rfile.readline(MAX_LINE + 1)
            if not line:
                raise RemoteDisconnected("the server closed the connection before answering")
            words = line.rstrip(b"\r\n").split(b" ", 2)
            if (
                len(words) < 2
                or not words[0].startswith(b"HTTP/1.")
                or len(words[1]) != 3
                or not words[1].isdigit()
            ):
                raise ProtocolError(f"malformed status line {line[:80]!r}")
            status = int(words[1])
            headers = read_headers(rfile)
        if "transfer-encoding" in headers:
            raise ProtocolError("an answer with Transfer-Encoding is not supported")
        length = _content_length(headers) if "content-length" in headers else None
        if length is None:
            raise ProtocolError("an answer without a usable Content-Length")
        body = rfile.read(length)
        if len(body) < length:
            raise ProtocolError(f"the answer's body ended after {len(body)} of {length} bytes")
        self.will_close = words[0] == b"HTTP/1.0" or _closes(headers)
        return status, headers, body

    def close(self) -> None:
        self._rfile.close()
        self.sock.close()
