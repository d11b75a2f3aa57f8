"""The reference exchange: the same request and answer shapes as the
program's lookups and scans, through the bare standard library.

On a shared 2-vCPU virtual machine the host's speed swung by 1.7-2x
between runs minutes apart (the serving latencies of
identical code doubled and halved with the neighbours' load).  Each phase
therefore alternates, block by block, with its reference exchange, and the
gated figures are the phase's median latency over the reference's median
latency in the neighbouring block: what the program adds on top of the
floor every implementation of the same exchange pays on that host at that
moment.  The reference is benchmark code only, so a change to the program
moves the ratio by exactly its own effect.

The reference is a ``ThreadingHTTPServer`` process with a handler that
only decodes the JSON request and encodes a JSON answer of the same size,
called with ``urllib`` on a fresh connection per call, the way
``ServingClient`` calls ``dpsc serve``.

    python3 perfbench/reference.py --serve   # prints the bound port
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

#: answers with 3 decimals, like the releases' counts
COUNTS = [round(900.0 + (i * 7919 % 200_000) / 1000.0, 3) for i in range(1 << 16)]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        pass

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8"))
        if "patterns" in request:
            answer = {"release": "reference", "counts": COUNTS[: len(request["patterns"])]}
        else:
            answer = {"release": "reference", "count": COUNTS[len(request["pattern"])]}
        body = json.dumps(answer).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ReferenceServer:
    """The reference HTTP server, in its own process and session."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.strip().isdigit():
                raise RuntimeError("the reference server did not start")
        except BaseException:
            self.stop()
            raise
        self.url = f"http://127.0.0.1:{int(line)}"

    def _post(self, payload: dict) -> dict:
        request = urllib.request.Request(
            self.url + "/",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Accept": "application/json", "Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

    def lookup_call(self, patterns: list[str], stream: list[int]):
        def call(k: int) -> str | None:
            pattern = patterns[stream[k % len(stream)]]
            got = self._post({"pattern": pattern})["count"]
            return None if got == COUNTS[len(pattern)] else f"reference lookup: got {got!r}"

        return call

    def scan_call(self, batches: list[list[str]]):
        def call(k: int) -> str | None:
            batch = batches[k % len(batches)]
            got = self._post({"patterns": batch})["counts"]
            return None if got == COUNTS[: len(batch)] else "reference scan: wrong counts"

        return call

    def stop(self) -> None:
        """SIGKILL the session and wait for the process to end."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit("usage: reference.py --serve")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    server.serve_forever()
