"""Tests for repro.core.qgram_structure (Theorems 3 and 4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.core.qgram_structure import (
    qgram_counting_structure,
    theorem3_qgram_structure,
    theorem4_qgram_structure,
)
from repro.exceptions import PrivacyParameterError
from repro.strings.qgrams import qgram_capped_counts, qgram_substring_counts

DOCS = st.lists(st.text(alphabet="ab", min_size=2, max_size=8), min_size=1, max_size=5)


def noiseless_pure(threshold=1.0):
    return ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=threshold)


def noiseless_approx(threshold=1.0):
    return ConstructionParams.approximate(
        1.0, 1e-5, beta=0.1, noiseless=True, threshold=threshold
    )


class TestTheorem3:
    def test_noiseless_counts_exact(self, example_db):
        structure = theorem3_qgram_structure(
            example_db, 2, noiseless_pure(), rng=np.random.default_rng(0)
        )
        exact = qgram_substring_counts(example_db.documents, 2)
        for qgram, count in exact.items():
            assert structure.query(qgram) == pytest.approx(count)
        assert structure.metadata.qgram_length == 2

    def test_longer_patterns_not_stored(self, example_db):
        structure = theorem3_qgram_structure(
            example_db, 2, noiseless_pure(), rng=np.random.default_rng(0)
        )
        assert structure.query("abe") == 0.0

    def test_q_validation(self, example_db):
        with pytest.raises(PrivacyParameterError):
            theorem3_qgram_structure(example_db, 0, noiseless_pure())
        with pytest.raises(PrivacyParameterError):
            theorem3_qgram_structure(
                example_db, example_db.max_length + 1, noiseless_pure()
            )

    def test_budget_accounting(self, example_db):
        params = ConstructionParams.pure(2.0, beta=0.1)
        structure = theorem3_qgram_structure(
            example_db, 2, params, rng=np.random.default_rng(0)
        )
        assert structure.report["privacy_spent_epsilon"] <= 2.0 + 1e-9

    def test_prebuilt_candidates_skip_candidate_stage(self, example_db):
        structure = theorem3_qgram_structure(
            example_db,
            2,
            noiseless_pure(),
            rng=np.random.default_rng(0),
            candidate_qgrams=["ab", "zz"],
        )
        assert structure.query("ab") == pytest.approx(4)
        assert structure.query("zz") == 0.0  # true count 0, pruned at tau=1

    @given(DOCS, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_matches_exact_qgram_table(self, documents, q):
        database = StringDatabase(documents)
        if q > database.max_length:
            return
        structure = theorem3_qgram_structure(
            database, q, noiseless_pure(), rng=np.random.default_rng(1)
        )
        exact = qgram_substring_counts(documents, q)
        for qgram, count in exact.items():
            assert structure.query(qgram) == pytest.approx(count)


class TestTheorem4:
    def test_requires_delta_or_noiseless(self, example_db):
        with pytest.raises(PrivacyParameterError):
            theorem4_qgram_structure(
                example_db, 2, ConstructionParams.pure(1.0, beta=0.1)
            )

    def test_noiseless_counts_exact(self, example_db):
        structure = theorem4_qgram_structure(
            example_db, 2, noiseless_approx(), rng=np.random.default_rng(0)
        )
        exact = qgram_substring_counts(example_db.documents, 2)
        for qgram, count in exact.items():
            assert structure.query(qgram) == pytest.approx(count)

    def test_document_count_semantics(self, example_db):
        params = ConstructionParams.approximate(
            1.0, 1e-5, beta=0.1, noiseless=True, threshold=1.0, delta_cap=1
        )
        structure = theorem4_qgram_structure(
            example_db, 2, params, rng=np.random.default_rng(0)
        )
        exact = qgram_capped_counts(example_db.documents, 2, delta=1)
        for qgram, count in exact.items():
            assert structure.query(qgram) == pytest.approx(count)

    def test_only_occurring_qgrams_are_stored(self, example_db):
        """Theorem 4's algorithm never evaluates strings with true count 0,
        so even with a -inf threshold nothing spurious can be stored."""
        params = ConstructionParams.approximate(
            1.0, 1e-5, beta=0.1, threshold=-math.inf
        )
        structure = theorem4_qgram_structure(
            example_db, 3, params, rng=np.random.default_rng(0)
        )
        occurring = set(qgram_substring_counts(example_db.documents, 3))
        for pattern, _ in structure.items():
            assert pattern in occurring

    def test_noisy_counts_within_bound(self, example_db):
        params = ConstructionParams.approximate(
            1.0, 1e-5, beta=0.05, threshold=-math.inf
        )
        structure = theorem4_qgram_structure(
            example_db, 2, params, rng=np.random.default_rng(2)
        )
        exact = qgram_substring_counts(example_db.documents, 2)
        for pattern, noisy in structure.items():
            assert abs(noisy - exact.get(pattern, 0)) <= structure.error_bound

    def test_budget_accounting(self, example_db):
        params = ConstructionParams.approximate(2.0, 1e-5, beta=0.1)
        structure = theorem4_qgram_structure(
            example_db, 4, params, rng=np.random.default_rng(0)
        )
        assert structure.report["privacy_spent_epsilon"] <= 2.0 + 1e-9
        assert structure.report["num_phases"] == math.floor(math.log2(4)) + 2

    @given(DOCS, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_matches_exact_on_random_databases(self, documents, q):
        database = StringDatabase(documents)
        if q > database.max_length:
            return
        structure = theorem4_qgram_structure(
            database, q, noiseless_approx(), rng=np.random.default_rng(1)
        )
        exact = qgram_substring_counts(documents, q)
        for qgram, count in exact.items():
            assert structure.query(qgram) == pytest.approx(count)
        for pattern, _ in structure.items():
            assert pattern in exact


class TestDispatch:
    def test_dispatch_selects_flavour(self, example_db):
        pure = qgram_counting_structure(
            example_db, 2, noiseless_pure(), rng=np.random.default_rng(0)
        )
        approx = qgram_counting_structure(
            example_db, 2, noiseless_approx(), rng=np.random.default_rng(0)
        )
        assert pure.metadata.construction.startswith("theorem-3")
        assert approx.metadata.construction.startswith("theorem-4")
