"""``dpsc query`` against a live server, run in-process.

One pattern goes to ``/query``, several to ``/batch`` (answered in raw
float64, since the command uses ``ServingClient``), ``--mine`` to
``/mine``; an unreachable ``--url`` is an error exit.
"""

from __future__ import annotations

import threading

import pytest

from repro.cli import main
from repro.serving import QueryService, create_server
from tests.serving.test_release_format import make_structure

#: counts with distinct one-decimal values, so the printed rows pin them
COUNTS = {"ab": 5.0, "ba": 3.5, "abab": 1.5, "b": 40.0, "bab": -2.5}


@pytest.fixture(scope="module")
def served():
    compiled = make_structure(COUNTS)
    service = QueryService({"demo": compiled}, micro_batch=False)
    server = create_server(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", compiled
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


def test_one_pattern_prints_its_count(served, capsys):
    url, compiled = served
    assert main(["query", "ba", "--url", url]) == 0
    assert capsys.readouterr().out == f"{compiled.query('ba'):.1f}\n"


def test_several_patterns_print_one_row_each(served, capsys):
    url, compiled = served
    patterns = ["abab", "zz", "bab"]
    assert main(["query", *patterns, "--url", url]) == 0
    counts = compiled.batch_query(patterns).tolist()
    assert capsys.readouterr().out.splitlines() == [
        f"{pattern:16s} {count:12.1f}" for pattern, count in zip(patterns, counts)
    ]


def test_mine_prints_its_rows_or_says_none_passed(served, capsys):
    url, compiled = served
    assert main(["query", "--mine", "2.0", "--url", url]) == 0
    rows = [f"{pattern:16s} {count:12.1f}" for pattern, count in compiled.mine(2.0)]
    assert rows and capsys.readouterr().out.splitlines() == rows
    assert main(["query", "--mine", "1000", "--url", url]) == 0
    assert capsys.readouterr().out == "(no pattern exceeded the threshold)\n"


def test_an_unreachable_url_exits_2(capsys):
    argv = ["query", "ab", "ba", "--url", "http://127.0.0.1:1", "--timeout", "0.5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
