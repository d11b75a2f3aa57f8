"""Tests for the epoch scheduler (stream -> build -> ledger -> store).

The guarantees under test: epochs release in order with exactly the
tree-schedule marginals charged; every version is tagged with its epoch
and parent; replaying the same stream and seed reproduces every digest;
an unaffordable epoch is refused *before* the documents are touched; and
a restarted scheduler resumes where the durable ledger says it stopped.
"""

from __future__ import annotations

import pytest

import repro.serving._fsio as fsio
from repro.api import CorpusStream
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyBudget
from repro.exceptions import (
    BudgetExceededError,
    ReleaseNotFoundError,
    ReproError,
)
from repro.serving import BudgetLedger, EpochScheduler, ReleaseStore

EPOCHS = (
    ("abab", "abba"),
    ("baba",),
    ("aabb", "bbaa"),
    ("abab", "bbbb"),
)


@pytest.fixture
def stream():
    return CorpusStream.from_epochs(EPOCHS, name="demo")


@pytest.fixture
def params():
    return ConstructionParams(budget=PrivacyBudget(2.0), beta=0.1)


def make_scheduler(tmp_path, stream, params, *, cap=20.0, seed=7, sub="a"):
    store = ReleaseStore(tmp_path / sub / "store")
    ledger = BudgetLedger(PrivacyBudget(cap), path=tmp_path / sub / "ledger.json")
    return EpochScheduler(stream, store, ledger, params=params, seed=seed)


class TestEpochReleases:
    def test_one_version_per_epoch_with_tree_marginals(
        self, tmp_path, stream, params
    ):
        scheduler = make_scheduler(tmp_path, stream, params)
        releases = scheduler.run_pending()
        assert [release.epoch for release in releases] == [1, 2, 3, 4]
        assert [release.version for release in releases] == [1, 2, 3, 4]
        # Marginal charges follow the dyadic-tree schedule.
        assert [release.epsilon for release in releases] == [2.0, 2.0, 0.0, 2.0]
        assert releases[-1].spent_epsilon == pytest.approx(6.0)
        assert scheduler.pending_epochs() == []

    def test_store_records_epoch_and_parent(self, tmp_path, stream, params):
        scheduler = make_scheduler(tmp_path, stream, params)
        scheduler.run_pending()
        records = sorted(
            scheduler.store.list_releases(), key=lambda record: record.version
        )
        assert [record.epoch for record in records] == [1, 2, 3, 4]
        assert [record.parent_version for record in records] == [None, 1, 2, 3]
        # Single-shot saves stay untagged.
        single = scheduler.store.save("oneshot", scheduler.store.load("demo"))
        assert single.epoch is None and single.parent_version is None

    def test_version_pinning_by_epoch(self, tmp_path, stream, params):
        scheduler = make_scheduler(tmp_path, stream, params)
        scheduler.run_pending()
        assert scheduler.version_for_epoch(2) == 2
        with pytest.raises(ReleaseNotFoundError):
            scheduler.version_for_epoch(9)

    def test_epochs_release_in_order_only(self, tmp_path, stream, params):
        scheduler = make_scheduler(tmp_path, stream, params)
        with pytest.raises(ReproError, match="in order"):
            scheduler.run_epoch(2)
        scheduler.run_epoch(1)
        with pytest.raises(ReproError, match="in order"):
            scheduler.run_epoch(1)

    def test_cannot_outrun_the_stream(self, tmp_path, params):
        short = CorpusStream.from_epochs([("abab",)], name="short")
        scheduler = make_scheduler(tmp_path, short, params)
        scheduler.run_epoch()
        with pytest.raises(ReproError, match="not arrived"):
            scheduler.run_epoch()
        short.append_epoch(("baba",))
        assert scheduler.run_epoch().epoch == 2

    def test_combined_metadata_carries_cumulative_budget(
        self, tmp_path, stream, params
    ):
        scheduler = make_scheduler(tmp_path, stream, params)
        scheduler.run_pending()
        released = scheduler.store.load("demo", version=4)
        # Epoch 4 uses bit_length(4) = 3 levels of the tree.
        assert released.metadata.epsilon == pytest.approx(3 * 2.0)
        assert "heavy-path-continual epoch 4" in released.metadata.construction

    def test_status_reports_schedule_position(self, tmp_path, stream, params):
        scheduler = make_scheduler(tmp_path, stream, params)
        scheduler.run_epoch()
        scheduler.run_epoch()
        status = scheduler.status()
        assert status["released_epochs"] == 2
        assert status["pending_epochs"] == [3, 4]
        assert status["spent_epsilon"] == pytest.approx(4.0)
        assert status["naive_epsilon"] == pytest.approx(4.0)
        assert [entry["epoch"] for entry in status["epochs"]] == [1, 2]


class TestDeterminism:
    def test_replay_reproduces_every_digest(self, tmp_path, stream, params):
        first = make_scheduler(tmp_path, stream, params, sub="a")
        second = make_scheduler(tmp_path, stream, params, sub="b")
        digests_a = [release.digest for release in first.run_pending()]
        digests_b = [release.digest for release in second.run_pending()]
        assert digests_a == digests_b

    def test_seed_changes_the_noise(self, tmp_path, stream, params):
        first = make_scheduler(tmp_path, stream, params, seed=7, sub="a")
        second = make_scheduler(tmp_path, stream, params, seed=8, sub="b")
        digests_a = [release.digest for release in first.run_pending()]
        digests_b = [release.digest for release in second.run_pending()]
        assert digests_a != digests_b


class TestBudgetEnforcement:
    def test_unaffordable_epoch_refused_before_build(self, tmp_path, stream, params):
        # The cap funds epoch 1's charge (2.0) but not epoch 2's.
        scheduler = make_scheduler(tmp_path, stream, params, cap=3.0)
        scheduler.run_epoch()
        with pytest.raises(BudgetExceededError):
            scheduler.run_epoch()
        # Nothing was built, published or charged for the refused epoch...
        assert scheduler.store.versions("demo") == [1]
        assert scheduler.released_epochs == 1
        assert scheduler.ledger.next_epoch("demo") == 2
        # ...and the refusal is on the audit trail.
        refusals = [
            entry
            for entry in scheduler.ledger.audit_entries("demo")
            if entry["event"] == "refusal"
        ]
        assert refusals and refusals[-1]["epoch"] == 2
        # Zero-marginal epochs would still be free, but the schedule is
        # stuck at the unaffordable epoch 2 — order is never skipped.
        with pytest.raises(BudgetExceededError):
            scheduler.run_pending()


class TestResume:
    def test_restarted_scheduler_resumes_from_ledger(self, tmp_path, stream, params):
        first = make_scheduler(tmp_path, stream, params)
        first.run_epoch()
        first.run_epoch()
        # A new scheduler process over the same durable state.
        second = EpochScheduler(
            stream, first.store, first.ledger, params=params, seed=7
        )
        assert second.released_epochs == 2
        assert second.pending_epochs() == [3, 4]
        releases = second.run_pending()
        assert [release.epoch for release in releases] == [3, 4]
        # No double charge: the total is still the tree bound.
        assert second.ledger.spent("demo").epsilon == pytest.approx(6.0)

    def test_resumed_digests_match_uninterrupted_run(self, tmp_path, stream, params):
        straight = make_scheduler(tmp_path, stream, params, sub="a")
        expected = [release.digest for release in straight.run_pending()]
        first = make_scheduler(tmp_path, stream, params, sub="b")
        first.run_epoch()
        first.run_epoch()
        second = EpochScheduler(
            stream, first.store, first.ledger, params=params, seed=7
        )
        resumed = [release.digest for release in second.run_pending()]
        assert expected[2:] == resumed

    def test_a_scheduler_opened_before_another_released_resumes_after_it(
        self, tmp_path, stream, params
    ):
        straight = make_scheduler(tmp_path, stream, params, sub="a")
        expected = [release.digest for release in straight.run_pending()]
        first = make_scheduler(tmp_path, stream, params, sub="b")
        second = EpochScheduler(
            stream, first.store, first.ledger, params=params, seed=7
        )
        first.run_epoch()
        assert second.released_epochs == 1
        assert second.pending_epochs() == [2, 3, 4]
        releases = second.run_pending()
        assert [release.epoch for release in releases] == [2, 3, 4]
        assert [release.digest for release in releases] == expected[1:]
        assert first.ledger.spent("demo").epsilon == pytest.approx(6.0)

    def test_status_follows_a_ledger_another_handle_advanced(
        self, tmp_path, stream, params
    ):
        first = make_scheduler(tmp_path, stream, params)
        other = EpochScheduler(
            stream,
            ReleaseStore(first.store.root),
            BudgetLedger(PrivacyBudget(20.0), path=tmp_path / "a" / "ledger.json"),
            params=params,
            seed=7,
        )
        other.run_epoch()
        other.run_epoch()
        status = first.status()
        assert status["released_epochs"] == len(status["epochs"]) == 2
        assert status["pending_epochs"] == [3, 4]
        assert first.released_epochs == 2
        assert first.run_epoch().epoch == 3

    def test_a_failed_ledger_save_is_retried_by_the_same_scheduler(
        self, tmp_path, stream, params, monkeypatch
    ):
        scheduler = make_scheduler(tmp_path, stream, params)
        scheduler.run_epoch()
        real_replace = fsio.os.replace

        def failing_ledger_replace(src, dst):
            if str(dst).endswith("ledger.json"):
                raise OSError("simulated failed ledger save")
            return real_replace(src, dst)

        monkeypatch.setattr(fsio.os, "replace", failing_ledger_replace)
        with pytest.raises(OSError):
            scheduler.run_epoch()
        monkeypatch.undo()
        # Nothing was published and the schedule still stands at epoch 2.
        assert scheduler.store.versions("demo") == [1]
        assert scheduler.pending_epochs() == [2, 3, 4]
        assert scheduler.run_epoch().epoch == 2
        assert scheduler.version_for_epoch(2) == 2
