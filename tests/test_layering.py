"""The package layering holds: nothing in the substrates or the core imports
the layers built on top of them (docs/ARCHITECTURE.md), nothing but
:mod:`repro.analysis` imports the reference pipeline
(:mod:`repro.core.reference`), which exists for tests and E24 only, and
nothing in :mod:`repro.serving` imports a standard-library HTTP stack:
every hop speaks :mod:`repro.serving.wire` (``repro.analysis`` keeps its
``http.client`` probes as independent clients).

The check parses the source, so every import statement counts, including
those inside functions and ``TYPE_CHECKING`` blocks.  A second check
imports every module of the lower layers in a fresh interpreter and finds
no upper layer in ``sys.modules``: the package inits resolve their exports
on first access, so importing ``repro.core`` no longer loads
``repro.serving`` and everything else, and the modules an import loads are
the ones it needs.  Loading more is never undone, so one interpreter for
all lower layers proves it for each.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER = ("strings", "counting", "dp", "trees", "obs", "faults", "core")
UPPER = ("serving", "api", "analysis", "cli")
REFERENCE = "repro.core.reference"
#: the standard-library HTTP stacks repro.serving does without
HTTP_STACKS = ("http.server", "http.client", "urllib.request", "email")


def matching_imports(path: Path, wanted) -> list[tuple[int, str]]:
    """``(line, module)`` of every import in ``path`` of a module for which
    ``wanted(module)`` holds.  ``from a import b`` imports ``a`` or, when
    ``a`` itself is not wanted, possibly the submodule ``a.b``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
            if not wanted(node.module):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend((node.lineno, module) for module in modules if wanted(module))
    return sorted(found)


def is_upper(module: str) -> bool:
    parts = module.split(".")
    return parts[0] == "repro" and len(parts) > 1 and parts[1] in UPPER


def upward_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, module)`` of every import of an upper layer in ``path``."""
    return matching_imports(path, is_upper)


def reference_importers(package: Path) -> dict[str, list[tuple[int, str]]]:
    """The modules of ``package`` outside ``analysis`` that import the
    reference pipeline, with the offending imports."""
    return {
        str(path.relative_to(package)): found
        for path in sorted(package.rglob("*.py"))
        if path.relative_to(package).parts[0] != "analysis"
        and (found := matching_imports(path, lambda module: module == REFERENCE))
    }


@pytest.mark.parametrize("layer", LOWER)
def test_layer_imports_nothing_above_it(layer):
    modules = sorted((PACKAGE / layer).rglob("*.py"))
    assert modules
    violations = {
        str(path.relative_to(PACKAGE)): found
        for path in modules
        if (found := upward_imports(path))
    }
    assert violations == {}


def test_importing_the_lower_layers_loads_no_upper_layer():
    from tests.test_import_boundary import loaded_modules

    modules = [
        ".".join(("repro", *path.relative_to(PACKAGE).with_suffix("").parts)).removesuffix(
            ".__init__"
        )
        for layer in LOWER
        for path in sorted((PACKAGE / layer).rglob("*.py"))
    ]
    loaded = loaded_modules(f"import importlib\nfor name in {modules!r}:\n    importlib.import_module(name)")
    assert set(modules) <= loaded
    assert sorted(module for module in loaded if is_upper(module)) == []


def test_the_check_sees_every_import_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from typing import TYPE_CHECKING\n"
        "import repro.serving.store\n"
        "from repro import api, obs\n"
        "if TYPE_CHECKING:\n"
        "    from repro.analysis import experiments\n"
        "def f():\n"
        "    from repro.cli import main\n"
        "from repro.core import database\n"
    )
    assert upward_imports(source) == [
        (2, "repro.serving.store"),
        (3, "repro.api"),
        (5, "repro.analysis"),
        (7, "repro.cli"),
    ]


def test_only_analysis_imports_the_reference_pipeline():
    assert reference_importers(PACKAGE) == {}


def test_the_reference_check_sees_a_planted_import(tmp_path):
    for layer in ("analysis", "core", "serving"):
        (tmp_path / layer).mkdir()
    (tmp_path / "analysis" / "experiments.py").write_text(
        "from repro.core.reference import reference_counting_structure\n"
    )
    (tmp_path / "core" / "construction.py").write_text(
        "from repro.core import candidate_set, reference\n"
    )
    (tmp_path / "serving" / "store.py").write_text(
        "import json\nimport repro.core.reference as ref\n"
    )
    assert reference_importers(tmp_path) == {
        "core/construction.py": [(1, REFERENCE)],
        "serving/store.py": [(2, REFERENCE)],
    }


def is_http_stack(module: str) -> bool:
    return any(module == stack or module.startswith(f"{stack}.") for stack in HTTP_STACKS)


def http_stack_importers(package: Path) -> dict[str, list[tuple[int, str]]]:
    """The modules under ``serving`` in ``package`` that import one of
    :data:`HTTP_STACKS`, with the offending imports."""
    return {
        str(path.relative_to(package)): found
        for path in sorted((package / "serving").rglob("*.py"))
        if (found := matching_imports(path, is_http_stack))
    }


def test_serving_imports_no_stdlib_http_stack():
    assert http_stack_importers(PACKAGE) == {}


def test_the_http_stack_check_sees_a_planted_import(tmp_path):
    (tmp_path / "serving" / "cluster").mkdir(parents=True)
    (tmp_path / "analysis").mkdir()
    (tmp_path / "serving" / "client.py").write_text(
        "import http.client\nfrom http import HTTPStatus\n"
    )
    (tmp_path / "serving" / "cluster" / "router.py").write_text(
        "from http import server\n"
        "import email.utils\n"
        "def probe():\n"
        "    from urllib.request import urlopen\n"
        "from urllib.parse import quote\n"
    )
    (tmp_path / "analysis" / "experiments.py").write_text("import http.client\n")
    assert http_stack_importers(tmp_path) == {
        "serving/client.py": [(1, "http.client")],
        "serving/cluster/router.py": [
            (1, "http.server"),
            (2, "email.utils"),
            (4, "urllib.request"),
        ],
    }
