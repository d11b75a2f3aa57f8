"""Differential-privacy substrate: mechanisms, composition, prefix sums.

Every export resolves on first access (:mod:`repro._lazy`): a serving
process that reads a release's :class:`PrivacyBudget` never loads the
mechanisms or the prefix sums.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dp.composition import (
        CompositionRecord,
        ContinualAccountant,
        EpochCharge,
        PrivacyAccountant,
        PrivacyBudget,
    )
    from repro.dp.distributions import (
        gaussian_sum_std,
        gaussian_tail_bound,
        laplace_sum_tail_bound,
        laplace_tail_bound,
        sample_gaussian,
        sample_laplace,
    )
    from repro.dp.mechanisms import (
        CountingMechanism,
        GaussianMechanism,
        LaplaceMechanism,
        NoiselessMechanism,
        per_level_mechanism,
    )
    from repro.dp.prefix_sums import (
        NoisyPrefixSums,
        PrefixSumMechanism,
        canonical_cover,
        dyadic_intervals,
    )

__all__ = [
    "CompositionRecord",
    "ContinualAccountant",
    "EpochCharge",
    "PrivacyAccountant",
    "PrivacyBudget",
    "gaussian_sum_std",
    "gaussian_tail_bound",
    "laplace_sum_tail_bound",
    "laplace_tail_bound",
    "sample_gaussian",
    "sample_laplace",
    "CountingMechanism",
    "GaussianMechanism",
    "LaplaceMechanism",
    "NoiselessMechanism",
    "per_level_mechanism",
    "NoisyPrefixSums",
    "PrefixSumMechanism",
    "canonical_cover",
    "dyadic_intervals",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dp.composition": (
            "CompositionRecord",
            "ContinualAccountant",
            "EpochCharge",
            "PrivacyAccountant",
            "PrivacyBudget",
        ),
        "repro.dp.distributions": (
            "gaussian_sum_std",
            "gaussian_tail_bound",
            "laplace_sum_tail_bound",
            "laplace_tail_bound",
            "sample_gaussian",
            "sample_laplace",
        ),
        "repro.dp.mechanisms": (
            "CountingMechanism",
            "GaussianMechanism",
            "LaplaceMechanism",
            "NoiselessMechanism",
            "per_level_mechanism",
        ),
        "repro.dp.prefix_sums": (
            "NoisyPrefixSums",
            "PrefixSumMechanism",
            "canonical_cover",
            "dyadic_intervals",
        ),
    },
)
