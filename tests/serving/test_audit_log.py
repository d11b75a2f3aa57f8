"""Budget audit-log tests: every charge/refusal/release leaves a record,
and the JSONL trail survives kills mid-append.

The trail is append-only through ``_fsio.append_jsonl`` (O_APPEND + fsync
+ torn-line recovery); these tests drive both the ledger-level semantics
and the file-level crash behavior, reusing the simulated-kill style of
``test_concurrency.py``."""

from __future__ import annotations

import json
import os
import threading

import pytest

import repro.serving._fsio as fsio
from repro.dp.composition import PrivacyBudget
from repro.exceptions import BudgetExceededError
from repro.serving import BudgetLedger


@pytest.fixture
def ledger(tmp_path):
    return BudgetLedger(PrivacyBudget(4.0, 1e-5), path=tmp_path / "ledger.json")


class TestAuditSemantics:
    def test_default_audit_path_sits_next_to_the_ledger(self, ledger, tmp_path):
        assert ledger.audit_path == tmp_path / "ledger.audit.jsonl"

    def test_in_memory_ledger_has_no_trail(self):
        ledger = BudgetLedger(PrivacyBudget(1.0, 0.0))
        ledger.charge("db", PrivacyBudget(0.5, 0.0))
        assert ledger.audit_path is None
        assert ledger.audit_entries() == []

    @pytest.mark.parametrize(
        ("method", "keys"),
        [
            ("charge", ["epsilon", "delta"]),
            ("charge_epoch", ["epoch", "epsilon", "delta"]),
        ],
    )
    def test_a_refusal_leaves_the_ledger_file_and_appends_one_record(
        self, ledger, tmp_path, method, keys
    ):
        def charge(epoch: int) -> None:
            if method == "charge":
                ledger.charge("db", PrivacyBudget(3.0, 1e-6), "greedy")
            else:
                ledger.charge_epoch("db", epoch, 3.0, 1e-6, label="greedy")

        charge(1)
        path = tmp_path / "ledger.json"
        before = path.read_bytes()
        trail = ledger.audit_entries()
        with pytest.raises(BudgetExceededError):
            charge(2)
        assert path.read_bytes() == before
        after = ledger.audit_entries()
        assert after[:-1] == trail
        assert after[-1]["event"] == "refusal"
        assert list(after[-1]) == [
            "ts",
            "pid",
            "event",
            "database_id",
            "spent_epsilon",
            "spent_delta",
            "cap_epsilon",
            "cap_delta",
            "label",
            *keys,
        ]

    def test_every_charge_is_recorded_with_running_totals(self, ledger):
        ledger.charge("db", PrivacyBudget(1.0, 1e-6), "first")
        ledger.charge("db", PrivacyBudget(2.0, 1e-6), "second")
        entries = ledger.audit_entries()
        assert [e["event"] for e in entries] == ["charge", "charge"]
        assert [e["label"] for e in entries] == ["first", "second"]
        assert entries[0]["epsilon"] == 1.0
        assert entries[0]["spent_epsilon"] == 1.0
        assert entries[1]["spent_epsilon"] == 3.0
        for entry in entries:
            assert entry["pid"] == os.getpid()
            assert entry["ts"] > 0
            assert entry["database_id"] == "db"
            assert entry["cap_epsilon"] == 4.0

    def test_refusals_are_recorded_before_the_raise(self, ledger):
        ledger.charge("db", PrivacyBudget(3.0, 1e-6))
        with pytest.raises(BudgetExceededError):
            ledger.charge("db", PrivacyBudget(3.0, 1e-6), "greedy")
        entries = ledger.audit_entries()
        assert entries[-1]["event"] == "refusal"
        assert entries[-1]["label"] == "greedy"
        assert entries[-1]["epsilon"] == 3.0
        # The refused budget was not spent.
        assert entries[-1]["spent_epsilon"] == 3.0
        assert ledger.spent("db").epsilon == 3.0

    def test_record_release_links_version_and_digest(self, ledger):
        ledger.charge("db", PrivacyBudget(1.0, 1e-6))
        ledger.record_release("db", version=7, digest="cafe1234")
        release = ledger.audit_entries("db")[-1]
        assert release["event"] == "release"
        assert release["version"] == 7
        assert release["digest"] == "cafe1234"

    def test_entries_filter_by_database(self, ledger):
        ledger.charge("alpha", PrivacyBudget(1.0, 1e-6))
        ledger.charge("beta", PrivacyBudget(1.0, 1e-6))
        assert len(ledger.audit_entries()) == 2
        assert [e["database_id"] for e in ledger.audit_entries("beta")] == ["beta"]

    def test_concurrent_charges_all_leave_records(self, ledger):
        barrier = threading.Barrier(8)

        def charge(index: int) -> None:
            barrier.wait()
            ledger.charge("db", PrivacyBudget(0.25, 1e-7), f"thread-{index}")

        pool = [threading.Thread(target=charge, args=(i,)) for i in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        entries = ledger.audit_entries()
        assert len(entries) == 8
        assert sorted(e["label"] for e in entries) == sorted(
            f"thread-{i}" for i in range(8)
        )
        # The final running total is exact regardless of interleaving.
        assert max(e["spent_epsilon"] for e in entries) == pytest.approx(2.0)


class TestCrashSafety:
    def test_torn_final_line_is_skipped_and_repaired(self, ledger):
        ledger.charge("db", PrivacyBudget(1.0, 1e-6), "before-kill")
        # A kill mid-append leaves a partial record with no newline.
        with open(ledger.audit_path, "ab") as handle:
            handle.write(b'{"ts":123,"event":"char')
        entries = ledger.audit_entries()
        assert [e["label"] for e in entries] == ["before-kill"]
        # The next append must start on a fresh line, not extend the wreck.
        ledger.charge("db", PrivacyBudget(0.5, 1e-6), "after-kill")
        entries = ledger.audit_entries()
        assert [e["label"] for e in entries] == ["before-kill", "after-kill"]

    def test_kill_during_the_write_call_is_recoverable(self, ledger, monkeypatch):
        ledger.charge("db", PrivacyBudget(1.0, 1e-6), "survivor")
        real_write = os.write

        def dying_write(fd: int, data: bytes) -> int:
            # Flush half the bytes, then die — the torn tail a SIGKILL
            # between write syscalls would leave.
            real_write(fd, data[: len(data) // 2])
            raise OSError("simulated kill during audit append")

        monkeypatch.setattr(fsio.os, "write", dying_write)
        with pytest.raises(OSError, match="simulated kill"):
            ledger.charge("db", PrivacyBudget(0.5, 1e-6), "torn")
        monkeypatch.setattr(fsio.os, "write", real_write)
        # The surviving prefix still reads; the torn record is dropped.
        reopened = BudgetLedger(
            PrivacyBudget(4.0, 1e-5), path=ledger.audit_path.parent / "ledger.json"
        )
        labels = [e["label"] for e in reopened.audit_entries()]
        assert labels == ["survivor"]
        # And appending afterwards recovers onto a fresh line.
        reopened.charge("db", PrivacyBudget(0.25, 1e-6), "recovered")
        labels = [e["label"] for e in reopened.audit_entries()]
        assert labels == ["survivor", "recovered"]

    def test_audit_line_is_one_valid_json_object(self, ledger):
        ledger.charge("db", PrivacyBudget(1.0, 1e-6))
        raw_lines = ledger.audit_path.read_text().splitlines()
        assert len(raw_lines) == 1
        record = json.loads(raw_lines[0])
        assert record["event"] == "charge"


class TestFsioJsonl:
    def test_read_missing_file_is_empty(self, tmp_path):
        assert fsio.read_jsonl(tmp_path / "nope.jsonl") == []

    def test_reader_skips_malformed_and_non_object_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a":1}\nnot json\n[1,2]\n\n{"b":2}\n')
        assert fsio.read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_append_creates_and_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        fsio.append_jsonl(path, {"first": 1})
        fsio.append_jsonl(path, {"second": 2})
        assert fsio.read_jsonl(path) == [{"first": 1}, {"second": 2}]
        assert path.read_text().endswith("\n")
