"""The package layering holds: nothing in the substrates or the core imports
the layers built on top of them (docs/ARCHITECTURE.md).

The check parses the source instead of importing it: ``import repro.core``
runs the top-level package, which loads ``repro.serving`` and everything
else, so ``sys.modules`` would prove nothing.  Every import statement
counts, including those inside functions and ``TYPE_CHECKING`` blocks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER = ("strings", "counting", "dp", "trees", "obs", "faults", "core")
UPPER = ("serving", "api", "analysis", "cli")


def upward_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, module)`` of every import of an upper layer in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
            if node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in UPPER:
                found.append((node.lineno, module))
    return sorted(found)


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
