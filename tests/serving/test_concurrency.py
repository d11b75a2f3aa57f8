"""Deterministic concurrency and durability stress tests for the serving
stack.

These tests are the falsifiers for the guarantees documented in the
"Concurrency & durability" section of ``docs/SERVING.md``:

* the compiled trie's only mutable state, its lazily built walk views,
  survives barrier-started first calls on a just-mmap'd release: under a
  tight GIL switch interval every thread answers exactly the serial
  counts and all of them see one transition table;
* a mixed /query /batch /mine /healthz storm is bit-identical to a serial
  replay with consistent health counters (the acceptance criterion:
  >= 8 threads x >= 2k operations);
* ledger and store writes are atomic — a simulated kill mid-write leaves
  ``ledger.json`` and ``index.json`` loadable with their pre-write
  contents — and two curator handles on the same files cannot double-spend
  budget or clobber each other's index entries.

Everything is seeded and barrier-started: no sleeps, no timing assumptions.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.serving._fsio as fsio
from repro.core.construction import build_private_counting_structure
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyBudget
from repro.exceptions import BudgetExceededError
from repro.serving import (
    BudgetLedger,
    QueryService,
    ReleaseStore,
    binfmt,
    generate_workload,
    run_load_test,
)
from repro.serving.loadtest import execute_operation, expected_counter_deltas


@pytest.fixture(scope="module")
def structure():
    """One deterministic (noiseless) released structure."""
    rng = np.random.default_rng(5)
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    return build_private_counting_structure(
        StringDatabase(["abab", "abba", "baba", "bbbb", "aabb", "abel", "bela"]),
        params,
        rng=rng,
    )


@pytest.fixture
def tight_gil():
    """Shrink the GIL switch interval so racy interleavings are forced to
    happen within a few thousand iterations instead of a few billion."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _run_threads(workers) -> list[str]:
    """Barrier-start ``workers``; collect exceptions instead of dying."""
    errors: list[str] = []
    errors_lock = threading.Lock()
    barrier = threading.Barrier(len(workers))

    def guard(run):
        barrier.wait()
        try:
            run()
        except Exception as error:  # noqa: BLE001 - the assertion target
            with errors_lock:
                errors.append(repr(error))

    threads = [threading.Thread(target=guard, args=(run,)) for run in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestCompiledSnapshot:
    def test_first_calls_on_a_fresh_mmap_build_one_table(
        self, structure, tmp_path, tight_gil
    ):
        """Eight barrier-started threads make the first calls on a
        just-mmap'd release, half ``query`` and half ``batch_query``, so
        they race to build the lazy views.  Every answer must equal the
        serial one, and the table each thread sees right after its first
        call must be the same object (two builds that race past the views
        lock would publish two)."""
        path = tmp_path / "v0001.dpsb"
        binfmt.write_binary(path, structure)
        stored = sorted(pattern for pattern, _ in structure.items())
        width = max(len(p) for p in stored)
        probes = stored + ["", "zz", "\x00", "a\U0001F600", stored[-1] * 3]
        uniform = [p for p in stored if len(p) == width] * 3
        serial = binfmt.read_binary(path, mmap=True)
        expected_single = [serial.query(p) for p in probes]
        expected_batches = [
            serial.batch_query(probes).tolist(),
            serial.batch_query(uniform).tolist(),
        ]
        assert expected_single == [structure.query(p) for p in probes]

        for _ in range(10):
            compiled = binfmt.read_binary(path, mmap=True)
            assert compiled._lazy.walk is None
            seen: list[object] = []

            def querier():
                got = [compiled.query(probes[0])]
                seen.append(compiled._lazy.walk[0].obj)
                got += [compiled.query(p) for p in probes[1:]]
                assert got == expected_single

            def batcher():
                got = [compiled.batch_query(probes).tolist()]
                seen.append(compiled._transitions)
                got.append(compiled.batch_query(uniform).tolist())
                assert got == expected_batches

            errors = _run_threads([querier] * 4 + [batcher] * 4)
            assert errors == []
            assert len(seen) == 8
            assert all(table is seen[0] for table in seen)
            compiled.assert_immutable()

    def test_compiled_arrays_are_immutable_snapshots(self, structure):
        structure.query("ab")
        structure.batch_query(["ab", "ba", "ab", "ba"])
        structure.assert_immutable()
        with pytest.raises(ValueError):
            structure._counts[0] = 1.0
        with pytest.raises(ValueError):
            structure._transitions[0] = 1


class TestMixedTrafficStorm:
    """The acceptance stress: >= 8 threads x >= 2k mixed operations,
    bit-identical to a serial replay, with consistent health counters."""

    @pytest.mark.parametrize("micro_batch", [True, False])
    def test_mixed_storm_bit_identical(self, structure, micro_batch):
        service = QueryService(
            {"alpha": structure, "beta": structure},
            micro_batch=micro_batch,
            max_wait=0.001,
        )
        try:
            workload = generate_workload(service, 2_048, seed=11)
            expected = [execute_operation(service, operation) for operation in workload]
            result = run_load_test(
                service, workload, threads=8, expected=expected, check=True
            )
            assert result.bit_identical
            assert result.counters_consistent
            assert result.operations == 2_048
        finally:
            service.close()

    def test_counter_deltas_are_exact(self, structure):
        service = QueryService({"alpha": structure}, micro_batch=True)
        try:
            workload = generate_workload(service, 512, seed=3)
            deltas = expected_counter_deltas(workload)
            before = service.health()
            run_load_test(service, workload, threads=6, verify_counters=False)
            run_load_test(service, workload, threads=6, verify_counters=False)
            after = service.health()
            for key, delta in deltas.items():
                # Four replays total: each run_load_test without `expected`
                # performs its own serial replay plus the concurrent one.
                assert after[key] - before[key] == 4 * delta, key
        finally:
            service.close()


class TestCrashSafety:
    """Kill-mid-write simulations: the previous complete file must survive."""

    def _crash_on_replace(self, monkeypatch):
        real_replace = os.replace

        def exploding_replace(src, dst):
            # Simulate the process dying mid-write: the tmp file is
            # truncated garbage and the rename never happens.
            with open(src, "w", encoding="utf-8") as handle:
                handle.write('{"trunc')
            raise OSError("simulated crash during atomic replace")

        monkeypatch.setattr(fsio.os, "replace", exploding_replace)
        return real_replace

    def test_ledger_survives_kill_mid_save(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0, 1e-5), path=path)
        ledger.charge("db", PrivacyBudget(4.0), label="v1")
        before = path.read_text()

        self._crash_on_replace(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            ledger.charge("db", PrivacyBudget(1.0), label="v2")
        monkeypatch.undo()

        # The accounting file still holds the complete pre-write ledger.
        assert path.read_text() == before
        reloaded = BudgetLedger(PrivacyBudget(10.0, 1e-5), path=path)
        assert reloaded.spent("db").epsilon == pytest.approx(4.0)

    def test_store_index_survives_kill_mid_save(
        self, tmp_path, structure, monkeypatch
    ):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        index_path = tmp_path / "store" / "index.json"
        before = index_path.read_text()

        real_replace = self._crash_on_replace(monkeypatch)
        # Let the version payload write through; crash only on the index.
        def replace_payload_only(src, dst):
            if str(dst).endswith("index.json"):
                raise OSError("simulated crash during atomic replace")
            return real_replace(src, dst)

        monkeypatch.setattr(fsio.os, "replace", replace_payload_only)
        with pytest.raises(OSError, match="simulated crash"):
            store.save("demo", structure)
        monkeypatch.undo()

        assert index_path.read_text() == before
        reopened = ReleaseStore(tmp_path / "store")
        assert reopened.versions("demo") == [1]
        assert dict(reopened.load("demo").items()) == dict(structure.items())
        # The next save skips past the crash's orphan v0002 payload (payload
        # files are immutable, never overwritten) and lands on v3.
        record = reopened.save("demo", structure)
        assert record.version == 3
        assert reopened.versions("demo") == [1, 3]

    def test_ledger_keeps_accounting_when_its_file_vanishes(self, tmp_path):
        # A deleted ledger file must not wipe the in-memory accounting:
        # memory is then the only copy, and forgetting it would let the
        # curator double-spend against an empty ledger.
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0), path=path)
        ledger.charge("db", PrivacyBudget(8.0))
        path.unlink()
        with pytest.raises(BudgetExceededError):
            ledger.charge("db", PrivacyBudget(8.0))
        assert ledger.spent("db").epsilon == pytest.approx(8.0)
        # A charge that fits re-persists the full accounting.
        ledger.charge("db", PrivacyBudget(1.0))
        reloaded = BudgetLedger(PrivacyBudget(10.0), path=path)
        assert reloaded.spent("db").epsilon == pytest.approx(9.0)

    def test_store_never_overwrites_payloads_after_index_loss(
        self, tmp_path, structure
    ):
        # Losing index.json must not restart version numbering over the
        # surviving (immutable) payload files.
        root = tmp_path / "store"
        store = ReleaseStore(root)
        v1_path = Path(store.save("demo", structure).path)
        store.save("demo", structure)
        v1_payload = v1_path.read_bytes()
        (root / "index.json").unlink()
        # The live handle keeps its in-memory index: next version is 3.
        assert store.save("demo", structure).version == 3
        # A fresh handle starts from an empty index but still must not
        # clobber the existing payload files on disk (in either payload
        # format — the collision scan checks both extensions).
        fresh = ReleaseStore(root)
        record = fresh.save("demo", structure)
        assert record.version == 4
        assert v1_path.read_bytes() == v1_payload

    def test_crash_before_replace_never_pollutes_the_target(
        self, tmp_path, monkeypatch
    ):
        # Drive atomic_write_text's own crash path: die after the tmp file
        # holds the new bytes but before the rename publishes them.  The
        # target must keep its old contents and the tmp must be cleaned up.
        target = tmp_path / "data.json"
        fsio.atomic_write_json(target, {"ok": True})

        def exploding_fsync(fd):
            raise OSError("killed during fsync")

        monkeypatch.setattr(fsio.os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="killed during fsync"):
            fsio.atomic_write_json(target, {"ok": False})
        monkeypatch.undo()

        assert json.loads(target.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]


class TestMultiProcessCurators:
    """Two curator handles on the same files stand in for two processes:
    each maintains independent in-memory state and must coordinate purely
    through the advisory lock + stale-signature refresh."""

    def test_two_ledgers_cannot_double_spend(self, tmp_path):
        path = tmp_path / "ledger.json"
        first = BudgetLedger(PrivacyBudget(10.0), path=path)
        second = BudgetLedger(PrivacyBudget(10.0), path=path)
        first.charge("db", PrivacyBudget(6.0), label="first-curator")
        # Pre-fix, `second` still believes nothing was spent and both
        # charges pass the affordability check (6 + 6 > 10 double-spend).
        with pytest.raises(BudgetExceededError):
            second.charge("db", PrivacyBudget(6.0), label="second-curator")
        assert second.spent("db").epsilon == pytest.approx(6.0)
        second.charge("db", PrivacyBudget(4.0), label="second-curator")
        assert first.spent("db").epsilon == pytest.approx(10.0)

    def test_two_stores_cannot_clobber_the_index(self, tmp_path, structure):
        root = tmp_path / "store"
        first = ReleaseStore(root)
        second = ReleaseStore(root)
        first.save("demo", structure)
        # Pre-fix, `second` still holds the empty index it loaded at
        # construction and its save writes version 1 again, silently
        # clobbering the first curator's entry.
        record = second.save("demo", structure)
        assert record.version == 2
        assert first.versions("demo") == [1, 2]
        assert second.versions("demo") == [1, 2]
        first.save("other", structure)
        assert second.names() == ["demo", "other"]

    def test_concurrent_thread_saves_interleave_cleanly(self, tmp_path, structure):
        store = ReleaseStore(tmp_path / "store")

        def worker(name: str):
            def run():
                for _ in range(4):
                    store.save(name, structure)

            return run

        errors = _run_threads([worker(f"rel{i}") for i in range(6)])
        assert errors == []
        assert store.names() == sorted(f"rel{i}" for i in range(6))
        for name in store.names():
            assert store.versions(name) == [1, 2, 3, 4]
        # And the on-disk index agrees byte-for-byte with a fresh reopen.
        reopened = ReleaseStore(tmp_path / "store")
        assert reopened.describe() == store.describe()
