"""Tests for repro.core.candidate_growth (one-letter-extension ablation)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidate_growth import (
    build_onestep_candidate_set,
    onestep_candidate_alpha,
)
from repro.core.candidate_set import build_candidate_set, candidate_alpha
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.dp.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.strings.naive import all_substrings

DOCS = st.lists(st.text(alphabet="ab", min_size=1, max_size=6), min_size=1, max_size=4)


def noiseless_params(**kwargs) -> ConstructionParams:
    kwargs.setdefault("threshold", 1.0)
    return ConstructionParams.pure(epsilon=1.0, beta=0.1, noiseless=True, **kwargs)


class TestNoiselessCoverage:
    def test_levels_equal_occurring_substrings_per_length(self, example_db):
        candidates = build_onestep_candidate_set(example_db, noiseless_params())
        table = set(all_substrings(example_db.documents))
        for length, strings in candidates.levels.items():
            expected = sorted({s for s in table if len(s) == length})
            assert strings == expected

    def test_by_length_mirrors_levels(self, example_db):
        candidates = build_onestep_candidate_set(example_db, noiseless_params())
        for length, strings in candidates.by_length.items():
            assert strings == candidates.levels.get(length, [])

    def test_lengths_filter(self, example_db):
        candidates = build_onestep_candidate_set(
            example_db, noiseless_params(), lengths=[2, 3]
        )
        assert set(candidates.by_length) == {2, 3}

    def test_max_pattern_length_caps_growth(self, example_db):
        candidates = build_onestep_candidate_set(
            example_db, noiseless_params(), max_pattern_length=3
        )
        assert max(candidates.levels) <= 3

    def test_growth_stops_when_a_level_is_empty(self):
        database = StringDatabase(["ab", "ba"], max_length=6)
        candidates = build_onestep_candidate_set(database, noiseless_params())
        # No substring of length 3 exists, so lengths beyond 3 are never grown.
        assert max(candidates.levels) <= 3
        assert candidates.levels.get(3, []) == []

    @given(DOCS)
    @settings(max_examples=25, deadline=None)
    def test_exact_one_step_candidates_cover_all_substrings(self, documents):
        database = StringDatabase(documents)
        candidates = build_onestep_candidate_set(database, noiseless_params())
        covered = candidates.all_strings()
        for substring in all_substrings(documents):
            assert substring in covered

    @given(DOCS)
    @settings(max_examples=25, deadline=None)
    def test_one_step_and_doubling_agree_on_power_of_two_lengths(self, documents):
        """With exact counts and threshold 1, both strategies keep exactly the
        occurring patterns at power-of-two lengths."""
        database = StringDatabase(documents)
        onestep = build_onestep_candidate_set(database, noiseless_params())
        doubling = build_candidate_set(database, noiseless_params())
        for length in doubling.levels:
            if length in onestep.levels:
                assert set(doubling.levels[length]) == set(onestep.levels[length])


class TestNoiseCalibration:
    def test_alpha_at_least_doubling_alpha_under_same_budget(self, example_db):
        epsilon, beta = 1.0, 0.1
        ell = example_db.max_length
        doubling_levels = int(math.floor(math.log2(ell))) + 1
        onestep_levels = ell
        alpha_doubling = candidate_alpha(
            example_db.num_documents,
            ell,
            example_db.alphabet_size,
            LaplaceMechanism(epsilon / doubling_levels),
            beta / doubling_levels,
            ell,
        )
        alpha_onestep = onestep_candidate_alpha(
            example_db.num_documents,
            ell,
            example_db.alphabet_size,
            LaplaceMechanism(epsilon / onestep_levels),
            beta / onestep_levels,
            ell,
        )
        assert alpha_onestep >= alpha_doubling

    def test_alpha_ratio_grows_with_ell(self):
        epsilon, beta, n, sigma = 1.0, 0.1, 10, 4
        ratios = []
        for ell in (8, 32, 128):
            doubling_levels = int(math.floor(math.log2(ell))) + 1
            ratios.append(
                onestep_candidate_alpha(
                    n, ell, sigma, LaplaceMechanism(epsilon / ell), beta / ell, ell
                )
                / candidate_alpha(
                    n,
                    ell,
                    sigma,
                    LaplaceMechanism(epsilon / doubling_levels),
                    beta / doubling_levels,
                    ell,
                )
            )
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0]

    def test_gaussian_alpha_uses_sqrt_ell_delta(self):
        tight = onestep_candidate_alpha(
            10, 64, 4, GaussianMechanism(1.0, 1e-6), 0.01, 1
        )
        loose = onestep_candidate_alpha(
            10, 64, 4, GaussianMechanism(1.0, 1e-6), 0.01, 64
        )
        assert tight < loose

    def test_default_threshold_is_twice_alpha(self, example_db):
        params = ConstructionParams.pure(epsilon=5.0, beta=0.1)
        candidates = build_onestep_candidate_set(
            example_db, params, rng=np.random.default_rng(0)
        )
        assert candidates.threshold == pytest.approx(2.0 * candidates.alpha)


class TestPrivacyAccounting:
    def test_budget_split_over_ell_levels(self, example_db, rng):
        params = ConstructionParams.pure(epsilon=1.0, beta=0.1)
        candidates = build_onestep_candidate_set(example_db, params, rng=rng)
        # Every grown level spends epsilon / ell; the total never exceeds the
        # stage budget even when the growth stops early.
        assert candidates.accountant.total_epsilon <= params.budget.epsilon + 1e-9
        per_level = params.budget.epsilon / example_db.max_length
        for record in candidates.accountant.records:
            assert record.epsilon == pytest.approx(per_level)

    def test_gaussian_flavour_accounts_delta(self, example_db, rng):
        params = ConstructionParams.approximate(epsilon=1.0, delta=1e-6, beta=0.1)
        candidates = build_onestep_candidate_set(example_db, params, rng=rng)
        assert candidates.accountant.total_delta <= params.budget.delta + 1e-12
        assert candidates.accountant.total_epsilon <= params.budget.epsilon + 1e-9

    def test_explicit_stage_budget_used(self, example_db, rng):
        params = ConstructionParams.pure(epsilon=3.0, beta=0.1)
        candidates = build_onestep_candidate_set(
            example_db, params, budget=params.budget.scaled(1.0 / 3.0), rng=rng
        )
        assert candidates.accountant.total_epsilon <= 1.0 + 1e-9
