"""``--no-batch`` is refused wherever it would do nothing.

The cluster tier has no micro-batcher, so ``dpsc serve --workers N`` and
``dpsc bench-load --store S --workers N`` exit 2 on ``--no-batch`` before
any store is opened or any server starts.
"""

from __future__ import annotations

import pytest

from repro.cli import main

ERROR = "error: --no-batch applies to the single-process server only\n"


@pytest.mark.parametrize(
    "command",
    [
        ["serve", "--workers", "2"],
        ["bench-load", "--workers", "2"],
    ],
    ids=["serve", "bench-load"],
)
def test_no_batch_with_workers_exits_2(command, tmp_path, capsys):
    store = tmp_path / "store"
    assert main([*command, "--store", str(store), "--no-batch"]) == 2
    assert capsys.readouterr().err == ERROR
    assert not store.exists()
