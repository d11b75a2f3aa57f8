"""The public API surface: everything advertised in ``__all__`` must exist,
be importable from the package root or its subpackage, and carry a docstring."""

from __future__ import annotations

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.api",
    "repro.core",
    "repro.strings",
    "repro.dp",
    "repro.trees",
    "repro.workloads",
    "repro.analysis",
]


class TestRootPackage:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_quickstart_snippet_from_docstring_works(self):
        """The module docstring's quickstart must keep working verbatim."""
        import numpy as np

        from repro import Dataset

        counter = (
            Dataset.from_documents(["aaaa", "abe", "absab", "babe", "bee", "bees"])
            .with_budget(epsilon=2.0)
            .with_beta(0.1)
            .build("heavy-path")
        )
        assert isinstance(counter.query("ab"), float)
        assert isinstance(counter.query_many(["ab", "be"]), np.ndarray)
        assert isinstance(counter.mine(threshold=3.0), list)


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a package docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_callables_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj):
                assert obj.__doc__, f"{module_name}.{name} is missing a docstring"

    def test_core_exports_every_theorem_builder(self):
        from repro import core

        for builder in (
            "build_private_counting_structure",
            "qgram_counting_structure",
            "theorem3_qgram_structure",
            "theorem4_qgram_structure",
        ):
            assert builder in core.__all__

    def test_trees_exports_both_counting_strategies(self):
        from repro import trees

        assert "private_tree_counts" in trees.__all__
        assert "range_counting_tree_counts" in trees.__all__
        assert "leaf_sum_tree_counts" in trees.__all__

    def test_cli_registry_covers_design_index(self):
        from repro.cli import EXPERIMENT_REGISTRY

        # E1-E24 plus E26 (release formats), E27 (serving scale), E28
        # (continual release) and E29 (chaos drill); E25 is intentionally
        # unassigned.
        expected = {f"E{i}" for i in range(1, 25)} | {"E26", "E27", "E28", "E29"}
        assert set(EXPERIMENT_REGISTRY) == expected
