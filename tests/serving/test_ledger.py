"""Tests for the cross-release privacy-budget ledger.

The acceptance-critical property: a build whose composed ``(epsilon, delta)``
would exceed the configured global cap is *refused*, and the refusal happens
before the construction ever touches the database.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import StructureRegistry
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyBudget
from repro.exceptions import BudgetExceededError
from repro.serving import BudgetLedger, build_release


class TestCharging:
    def test_charges_within_cap_accumulate(self):
        ledger = BudgetLedger(PrivacyBudget(10.0, 1e-5))
        ledger.charge("db", PrivacyBudget(4.0, 4e-6))
        ledger.charge("db", PrivacyBudget(4.0, 4e-6))
        spent = ledger.spent("db")
        assert spent.epsilon == pytest.approx(8.0)
        assert spent.delta == pytest.approx(8e-6)
        epsilon_left, delta_left = ledger.remaining("db")
        assert epsilon_left == pytest.approx(2.0)
        assert delta_left == pytest.approx(2e-6)

    def test_epsilon_overrun_refused(self):
        ledger = BudgetLedger(PrivacyBudget(10.0, 1e-5))
        ledger.charge("db", PrivacyBudget(8.0))
        with pytest.raises(BudgetExceededError) as excinfo:
            ledger.charge("db", PrivacyBudget(3.0))
        error = excinfo.value
        assert error.requested == (3.0, 0.0)
        assert error.spent == (8.0, 0.0)
        assert error.cap == (10.0, 1e-5)

    def test_delta_overrun_refused(self):
        ledger = BudgetLedger(PrivacyBudget(100.0, 1e-6))
        ledger.charge("db", PrivacyBudget(1.0, 8e-7))
        with pytest.raises(BudgetExceededError):
            ledger.charge("db", PrivacyBudget(1.0, 8e-7))

    def test_refused_charge_records_nothing(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        ledger.charge("db", PrivacyBudget(8.0))
        with pytest.raises(BudgetExceededError):
            ledger.charge("db", PrivacyBudget(5.0))
        assert ledger.spent("db").epsilon == pytest.approx(8.0)
        # A smaller charge that fits is still accepted afterwards.
        ledger.charge("db", PrivacyBudget(2.0))
        assert ledger.spent("db").epsilon == pytest.approx(10.0)

    def test_databases_are_independent(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        ledger.charge("first", PrivacyBudget(9.0))
        ledger.charge("second", PrivacyBudget(9.0))  # its own cap, fine
        assert ledger.database_ids() == ["first", "second"]
        assert ledger.can_afford("first", PrivacyBudget(2.0)) is False
        assert ledger.can_afford("second", PrivacyBudget(1.0)) is True

    def test_exact_cap_is_allowed(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        ledger.charge("db", PrivacyBudget(10.0))
        assert ledger.can_afford("db", PrivacyBudget(0.1)) is False

    def test_entries_and_summary(self):
        ledger = BudgetLedger(PrivacyBudget(10.0))
        ledger.charge("db", PrivacyBudget(1.0), label="first-release")
        ledger.charge("db", PrivacyBudget(2.0), label="second-release")
        labels = [record.label for _, record in ledger.entries("db")]
        assert labels == ["first-release", "second-release"]
        assert "first-release" in ledger.summary()


class TestPersistence:
    def test_ledger_survives_reload(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger(PrivacyBudget(10.0, 1e-5), path=path)
        ledger.charge("db", PrivacyBudget(6.0, 5e-6), label="v1")
        reloaded = BudgetLedger(PrivacyBudget(10.0, 1e-5), path=path)
        assert reloaded.spent("db").epsilon == pytest.approx(6.0)
        assert reloaded.spent("db").delta == pytest.approx(5e-6)
        with pytest.raises(BudgetExceededError):
            reloaded.charge("db", PrivacyBudget(6.0))

    def test_reopening_cannot_relax_a_stricter_recorded_cap(self, tmp_path):
        path = tmp_path / "ledger.json"
        strict = BudgetLedger(PrivacyBudget(10.0, 1e-6), path=path)
        strict.charge("db", PrivacyBudget(8.0), label="v1")
        # Re-open with a much looser (e.g. CLI default) cap: the persisted
        # stricter policy wins component-wise.
        reopened = BudgetLedger(PrivacyBudget(100.0, 1e-5), path=path)
        assert reopened.cap.epsilon == pytest.approx(10.0)
        assert reopened.cap.delta == pytest.approx(1e-6)
        with pytest.raises(BudgetExceededError):
            reopened.charge("db", PrivacyBudget(5.0))

    def test_reopening_with_a_stricter_cap_tightens(self, tmp_path):
        path = tmp_path / "ledger.json"
        BudgetLedger(PrivacyBudget(10.0), path=path).charge(
            "db", PrivacyBudget(4.0)
        )
        tightened = BudgetLedger(PrivacyBudget(5.0), path=path)
        assert tightened.cap.epsilon == pytest.approx(5.0)
        with pytest.raises(BudgetExceededError):
            tightened.charge("db", PrivacyBudget(2.0))

    def test_reopen_with_looser_cap_persists_the_effective_cap(self, tmp_path):
        # Regression: the file must always record the cap the ledger
        # actually enforces — the component-wise min — never the looser
        # cap a reopen happened to pass.
        import json

        path = tmp_path / "ledger.json"
        BudgetLedger(PrivacyBudget(10.0, 1e-6), path=path).charge(
            "db", PrivacyBudget(4.0), label="v1"
        )
        reopened = BudgetLedger(PrivacyBudget(100.0, 1e-4), path=path)
        assert reopened.cap == PrivacyBudget(10.0, 1e-6)
        reopened.charge("db", PrivacyBudget(1.0), label="v2")
        stored = json.loads(path.read_text())["cap"]
        assert stored == {"epsilon": 10.0, "delta": 1e-6}

    def test_reopen_with_tighter_cap_is_durable_without_a_charge(self, tmp_path):
        # A tightened policy must be persisted at load time: a later
        # default-capped open (e.g. another curator process) has to see it
        # even if this handle never charges anything.
        import json

        path = tmp_path / "ledger.json"
        BudgetLedger(PrivacyBudget(10.0, 1e-5), path=path).charge(
            "db", PrivacyBudget(4.0)
        )
        BudgetLedger(PrivacyBudget(6.0, 1e-7), path=path)  # tighten, no charge
        stored = json.loads(path.read_text())["cap"]
        assert stored == {"epsilon": 6.0, "delta": 1e-7}
        third = BudgetLedger(PrivacyBudget(100.0, 1e-4), path=path)
        assert third.cap == PrivacyBudget(6.0, 1e-7)
        with pytest.raises(BudgetExceededError):
            third.charge("db", PrivacyBudget(3.0))

    def test_mixed_component_caps_take_the_min_of_each(self, tmp_path):
        path = tmp_path / "ledger.json"
        BudgetLedger(PrivacyBudget(10.0, 1e-7), path=path).charge(
            "db", PrivacyBudget(1.0)
        )
        reopened = BudgetLedger(PrivacyBudget(5.0, 1e-5), path=path)
        assert reopened.cap == PrivacyBudget(5.0, 1e-7)


class TestGuardedBuild:
    def test_build_release_charges_the_ledger(self, example_db):
        ledger = BudgetLedger(PrivacyBudget(5.0))
        params = ConstructionParams.pure(2.0, beta=0.1)
        structure = build_release(
            example_db,
            params,
            ledger=ledger,
            database_id="example",
            rng=np.random.default_rng(0),
        )
        assert structure.metadata.epsilon == 2.0
        assert ledger.spent("example").epsilon == pytest.approx(2.0)

    def test_over_cap_build_is_refused_with_no_construction(self, example_db):
        ledger = BudgetLedger(PrivacyBudget(5.0))
        params = ConstructionParams.pure(2.0, beta=0.1)
        calls: list[str] = []

        def counting_builder(database, build_params, rng=None):
            calls.append("built")
            from repro.core.construction import build_private_counting_structure

            return build_private_counting_structure(database, build_params, rng=rng)

        registry = StructureRegistry()
        registry.register("counting", counting_builder)
        for _ in range(2):
            build_release(
                example_db,
                params,
                ledger=ledger,
                database_id="example",
                rng=np.random.default_rng(0),
                kind="counting",
                registry=registry,
            )
        assert calls == ["built", "built"]
        # Third build would compose to epsilon = 6 > 5: refused *before*
        # the builder runs.
        with pytest.raises(BudgetExceededError):
            build_release(
                example_db,
                params,
                ledger=ledger,
                database_id="example",
                rng=np.random.default_rng(0),
                kind="counting",
                registry=registry,
            )
        assert calls == ["built", "built"]
        assert ledger.spent("example").epsilon == pytest.approx(4.0)

    def test_failed_build_costs_nothing(self, example_db):
        ledger = BudgetLedger(PrivacyBudget(5.0))
        params = ConstructionParams.pure(2.0, beta=0.1)

        def exploding_builder(database, build_params, rng=None):
            raise RuntimeError("construction crashed")

        registry = StructureRegistry()
        registry.register("exploding", exploding_builder)
        with pytest.raises(RuntimeError):
            build_release(
                example_db,
                params,
                ledger=ledger,
                database_id="example",
                kind="exploding",
                registry=registry,
            )
        assert ledger.spent("example").epsilon == pytest.approx(0.0, abs=1e-9)
