"""Tests for the ledger's epoch accounting (continual-release charges).

The guarantees under test: every epoch — including the zero-marginal ones
of the tree schedule — gets a durable, ordered ledger entry and an audit
record; refusals are audited before the error propagates; and a simulated
kill mid-``charge_epoch`` leaves the previous complete ledger on disk
(the audit-before-save invariant may over-report, never under-report).
"""

from __future__ import annotations

import json

import pytest

import repro.serving._fsio as fsio
from repro.dp.composition import PrivacyBudget
from repro.exceptions import BudgetExceededError, PrivacyParameterError
from repro.serving import BudgetLedger


class TestEpochCharging:
    def test_zero_marginals_are_recorded(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        ledger.charge_epoch("db", 1, 2.0)
        ledger.charge_epoch("db", 2, 2.0)
        ledger.charge_epoch("db", 3, 0.0)  # non-power-of-two epoch
        assert ledger.spent("db").epsilon == pytest.approx(4.0)
        entries = ledger.epoch_entries("db")
        assert [entry["epoch"] for entry in entries] == [1, 2, 3]
        assert entries[2]["epsilon"] == 0.0
        assert ledger.next_epoch("db") == 4

    def test_epochs_must_arrive_in_order(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        ledger.charge_epoch("db", 1, 1.0)
        with pytest.raises(PrivacyParameterError, match="in order"):
            ledger.charge_epoch("db", 3, 1.0)
        with pytest.raises(PrivacyParameterError, match="in order"):
            ledger.charge_epoch("db", 1, 1.0)
        # A failed ordering check records nothing.
        assert ledger.next_epoch("db") == 2

    def test_negative_charge_rejected(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        with pytest.raises(PrivacyParameterError):
            ledger.charge_epoch("db", 1, -1.0)

    def test_databases_keep_independent_schedules(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        ledger.charge_epoch("first", 1, 1.0)
        ledger.charge_epoch("first", 2, 1.0)
        ledger.charge_epoch("second", 1, 1.0)
        assert ledger.next_epoch("first") == 3
        assert ledger.next_epoch("second") == 2
        everything = ledger.epoch_entries()
        assert [(e["database_id"], e["epoch"]) for e in everything] == [
            ("first", 1), ("first", 2), ("second", 1),
        ]

    def test_over_cap_epoch_refused_and_not_recorded(self, tmp_path):
        ledger = BudgetLedger(PrivacyBudget(3.0), path=tmp_path / "ledger.json")
        ledger.charge_epoch("db", 1, 2.0)
        with pytest.raises(BudgetExceededError) as excinfo:
            ledger.charge_epoch("db", 2, 2.0)
        assert excinfo.value.requested == (2.0, 0.0)
        assert excinfo.value.spent == (2.0, 0.0)
        assert ledger.next_epoch("db") == 2
        # The refusal is in the audit trail with its epoch number.
        refusals = [
            entry
            for entry in ledger.audit_entries("db")
            if entry["event"] == "refusal"
        ]
        assert refusals and refusals[-1]["epoch"] == 2

    def test_every_epoch_charge_is_audited(self, tmp_path):
        ledger = BudgetLedger(PrivacyBudget(10.0), path=tmp_path / "ledger.json")
        for epoch, epsilon in ((1, 2.0), (2, 2.0), (3, 0.0), (4, 2.0)):
            ledger.charge_epoch("db", epoch, epsilon)
        charges = [
            entry
            for entry in ledger.audit_entries("db")
            if entry["event"] == "charge_epoch"
        ]
        assert [entry["epoch"] for entry in charges] == [1, 2, 3, 4]
        assert charges[-1]["spent_epsilon"] == pytest.approx(6.0)


class TestEpochPersistence:
    def test_epochs_survive_reopen(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0), path=path)
        ledger.charge_epoch("db", 1, 2.0, label="window")
        ledger.charge_epoch("db", 2, 2.0, label="window")
        reopened = BudgetLedger(PrivacyBudget(10.0), path=path)
        assert reopened.next_epoch("db") == 3
        assert reopened.spent("db").epsilon == pytest.approx(4.0)
        assert [e["label"] for e in reopened.epoch_entries("db")] == [
            "window", "window",
        ]

    def test_single_shot_ledger_files_keep_their_shape(self, tmp_path):
        # No epochs charged -> no "epochs" key: pre-continual files and
        # fresh single-shot ledgers stay byte-compatible.
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0), path=path)
        ledger.charge("db", PrivacyBudget(2.0))
        assert "epochs" not in json.loads(path.read_text())
        ledger.charge_epoch("db", 1, 1.0)
        assert "epochs" in json.loads(path.read_text())

    def test_two_handles_cannot_double_book_an_epoch(self, tmp_path):
        path = tmp_path / "ledger.json"
        first = BudgetLedger(PrivacyBudget(10.0), path=path)
        second = BudgetLedger(PrivacyBudget(10.0), path=path)
        first.charge_epoch("db", 1, 2.0)
        # The second handle re-reads the file and sees epoch 1 as taken.
        with pytest.raises(PrivacyParameterError, match="in order"):
            second.charge_epoch("db", 1, 2.0)
        second.charge_epoch("db", 2, 2.0)
        assert first.next_epoch("db") == 3


class TestEpochCrashSafety:
    def test_ledger_survives_kill_mid_charge_epoch(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0), path=path)
        ledger.charge_epoch("db", 1, 4.0)
        before = path.read_text()

        def exploding_replace(src, dst):
            # Simulate the process dying mid-write: the tmp file is
            # truncated garbage and the rename never happens.
            with open(src, "w", encoding="utf-8") as handle:
                handle.write('{"trunc')
            raise OSError("simulated crash during atomic replace")

        monkeypatch.setattr(fsio.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            ledger.charge_epoch("db", 2, 1.0)
        monkeypatch.undo()

        # The balance file still holds the complete pre-crash ledger...
        assert path.read_text() == before
        reloaded = BudgetLedger(PrivacyBudget(10.0), path=path)
        assert reloaded.next_epoch("db") == 2
        assert reloaded.spent("db").epsilon == pytest.approx(4.0)
        # ...while the audit trail already shows the in-flight charge: the
        # crash over-reports (visible, privacy-safe), never under-reports.
        events = [
            (entry["event"], entry.get("epoch"))
            for entry in reloaded.audit_entries("db")
        ]
        assert ("charge_epoch", 2) in events

    def test_a_failed_save_books_nothing_in_memory_either(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0), path=path)
        ledger.charge_epoch("db", 1, 4.0)

        def failing_replace(src, dst):
            raise OSError("simulated failed atomic replace")

        monkeypatch.setattr(fsio.os, "replace", failing_replace)
        with pytest.raises(OSError):
            ledger.charge_epoch("db", 2, 1.0)
        monkeypatch.undo()
        # The handle agrees with the file: epoch 2 is still to be charged...
        assert ledger.next_epoch("db") == 2
        assert ledger.spent("db").epsilon == pytest.approx(4.0)
        # ...and the same handle books it once the disk takes the write.
        ledger.charge_epoch("db", 2, 1.0)
        reopened = BudgetLedger(PrivacyBudget(10.0), path=path)
        assert [entry["epoch"] for entry in reopened.epoch_entries("db")] == [1, 2]
        assert reopened.spent("db").epsilon == pytest.approx(5.0)

    def test_schedule_resumes_cleanly_after_crash(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0), path=path)
        ledger.charge_epoch("db", 1, 4.0)

        calls = {"n": 0}
        real_replace = fsio.os.replace

        def crash_once(src, dst):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("simulated crash during atomic replace")
            return real_replace(src, dst)

        monkeypatch.setattr(fsio.os, "replace", crash_once)
        with pytest.raises(OSError):
            ledger.charge_epoch("db", 2, 1.0)
        # A restarted curator re-reads the file and re-runs the same epoch.
        recovered = BudgetLedger(PrivacyBudget(10.0), path=path)
        recovered.charge_epoch("db", recovered.next_epoch("db"), 1.0)
        assert recovered.next_epoch("db") == 3
        assert recovered.spent("db").epsilon == pytest.approx(5.0)
