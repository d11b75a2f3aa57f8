"""The fluent Dataset builder: immutability, parameter threading, ledger
routing, and equivalence with the direct construction functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset
from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.core.qgram_structure import theorem3_qgram_structure, theorem4_qgram_structure
from repro.dp.composition import PrivacyBudget
from repro.exceptions import BudgetExceededError, PrivacyParameterError
from repro.serving import BudgetLedger


class TestFluentConfiguration:
    def test_with_methods_return_new_datasets(self, example_db):
        base = Dataset.from_database(example_db)
        configured = base.with_budget(5.0, 1e-6).with_beta(0.2)
        assert base.params.budget.epsilon == 1.0
        assert base.params.beta == 0.05
        assert configured.params.budget == PrivacyBudget(5.0, 1e-6)
        assert configured.params.beta == 0.2

    def test_every_knob_threads_into_params(self, example_db):
        dataset = (
            Dataset.from_database(example_db)
            .with_budget(3.0)
            .with_beta(0.2)
            .with_contribution_cap(1)
            .with_threshold(7.0)
            .noiseless()
        )
        params = dataset.params
        assert params.budget == PrivacyBudget(3.0, 0.0)
        assert params.beta == 0.2
        assert params.delta_cap == 1
        assert params.threshold == 7.0
        assert params.noiseless

    def test_from_documents_builds_a_database(self):
        dataset = Dataset.from_documents(["ab", "ba"], max_length=4)
        assert dataset.database.num_documents == 2
        assert dataset.database.max_length == 4

    def test_build_without_an_explicit_budget_is_refused(self, example_db):
        """Privacy budgets are never spent implicitly: a dataset whose
        budget was not configured refuses to build."""
        with pytest.raises(PrivacyParameterError, match="with_budget"):
            Dataset.from_database(example_db).build("heavy-path")
        # Other knobs alone do not count as configuring a budget...
        with pytest.raises(PrivacyParameterError, match="with_budget"):
            Dataset.from_database(example_db).with_beta(0.2).build("heavy-path")
        # ... while with_budget and with_params both do.
        assert Dataset.from_database(example_db).with_budget(2.0).budget_configured
        params = ConstructionParams.pure(2.0, beta=0.1)
        assert Dataset.from_database(example_db).with_params(params).budget_configured

    def test_build_matches_direct_construction_bit_for_bit(self, example_db):
        params = ConstructionParams.pure(2.0, beta=0.1)
        direct = build_private_counting_structure(
            example_db, params, rng=np.random.default_rng(42)
        )
        fluent = (
            Dataset.from_database(example_db)
            .with_params(params)
            .build("heavy-path", rng=np.random.default_rng(42))
        )
        # The report carries wall-clock timings, so compare the released
        # values: stored counts and public metadata.
        assert fluent.to_payload()["counts"] == direct.to_payload()["counts"]
        assert fluent.metadata == direct.metadata

    @pytest.mark.parametrize(
        "kind, construct",
        [("qgram-t3", theorem3_qgram_structure), ("qgram-t4", theorem4_qgram_structure)],
    )
    def test_qgram_kinds_match_their_constructions(self, example_db, kind, construct):
        params = (
            ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
            if kind == "qgram-t3"
            else ConstructionParams.approximate(
                2.0, 1e-6, beta=0.1, noiseless=True, threshold=1.0
            )
        )
        direct = construct(example_db, 2, params, rng=np.random.default_rng(0))
        fluent = (
            Dataset.from_database(example_db)
            .with_params(params)
            .build(kind, rng=np.random.default_rng(0), q=2)
        )
        assert fluent.to_payload()["counts"] == direct.to_payload()["counts"]
        assert fluent.metadata == direct.metadata


class TestLedgerRouting:
    def test_builds_charge_the_ledger(self, example_db):
        ledger = BudgetLedger(PrivacyBudget(5.0))
        dataset = (
            Dataset.from_database(example_db)
            .with_budget(2.0)
            .with_beta(0.1)
            .with_ledger(ledger, "example")
        )
        dataset.build("heavy-path", rng=np.random.default_rng(0))
        assert ledger.spent("example").epsilon == pytest.approx(2.0)

    def test_over_cap_build_is_refused(self, example_db):
        ledger = BudgetLedger(PrivacyBudget(3.0))
        dataset = (
            Dataset.from_database(example_db)
            .with_budget(2.0)
            .with_beta(0.1)
            .with_ledger(ledger, "example")
        )
        dataset.build("heavy-path", rng=np.random.default_rng(0))
        with pytest.raises(BudgetExceededError):
            dataset.build("heavy-path", rng=np.random.default_rng(0))
        assert ledger.spent("example").epsilon == pytest.approx(2.0)

    def test_ledger_guards_every_kind(self, example_db):
        ledger = BudgetLedger(PrivacyBudget(2.5))
        dataset = (
            Dataset.from_database(example_db)
            .with_budget(2.0)
            .with_beta(0.1)
            .noiseless()
            .with_threshold(1.0)
            .with_ledger(ledger, "example")
        )
        counter = dataset.build("qgram-t3", rng=np.random.default_rng(0), q=2)
        assert counter.metadata.qgram_length == 2
        with pytest.raises(BudgetExceededError):
            dataset.build("baseline", rng=np.random.default_rng(0))
