"""What each process loads: a serving process loads only the serving code.

The paper's structures are released once and only post-processed after
that, so ``dpsc serve``, a tier worker and a client run the server, the
release store and the array counter, never the construction pipeline, the
string substrate or the experiments.  That holds because ``repro``,
``repro.core`` and ``repro.serving`` resolve their exports on first access
(:mod:`repro._lazy`) and every ``dpsc`` command imports what it runs.

Each boundary check runs in a fresh interpreter, whose ``sys.modules`` is
the record of what the import loaded.  The export check holds every name
of the three ``__all__`` lists to the object its defining module holds,
and to the imports static tools read under ``TYPE_CHECKING``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serving import ReleaseStore
from tests.serving.test_release_format import make_structure

SRC = Path(__file__).resolve().parents[1] / "src"
#: what no serving process loads: the build side of the library
BUILD_ONLY = (
    "repro.api",
    "repro.analysis",
    "repro.workloads",
    "repro.trees",
    "repro.strings",
    "repro.counting",
    "repro.core.construction",
    "repro.core.array_build",
    "repro.core.database",
)
LAZY_PACKAGES = ("repro", "repro.core", "repro.dp", "repro.obs", "repro.serving", "repro.serving.cluster")


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def build_only(modules: set[str]) -> list[str]:
    return sorted(
        module
        for module in modules
        if any(module == prefix or module.startswith(f"{prefix}.") for prefix in BUILD_ONLY)
    )


@pytest.mark.parametrize("module", ["repro.serving.server", "repro.serving.client"])
def test_a_serving_import_loads_no_build_code(module):
    loaded = loaded_modules(f"import {module}")
    assert module in loaded
    assert build_only(loaded) == []
    assert "ssl" not in loaded  # only a client of an https URL loads it


def test_dpsc_serve_help_loads_no_build_code():
    loaded = loaded_modules(
        "from repro.cli import main\n"
        "try:\n"
        "    main(['serve', '--help'])\n"
        "except SystemExit:\n"
        "    pass"
    )
    assert "repro.cli" in loaded
    assert build_only(loaded) == []


def test_dpsc_serve_loads_no_build_code(tmp_path):
    """``dpsc serve`` up to its accept loop: the store is opened and the
    release mapped, then the stand-in loop closes the service."""
    store = ReleaseStore(tmp_path / "store")
    store.save("demo", make_structure({"ab": 5.0, "ba": 3.0}))
    loaded = loaded_modules(
        "import repro.serving.server as server\n"
        "server.serve_forever = lambda service, host, port: service.close()\n"
        "from repro.cli import main\n"
        f"assert main(['serve', '--store', {str(store.root)!r}, '--port', '0']) == 0"
    )
    assert {"repro.serving.server", "repro.serving.store", "repro.serving.binfmt"} <= loaded
    assert build_only(loaded) == []


def test_the_worker_module_holds_what_a_worker_runs():
    """The fork server preloads :mod:`repro.serving.cluster.workers`, so
    importing it must load everything ``worker_main`` runs."""
    loaded = loaded_modules("import repro.serving.cluster.workers")
    assert {"repro.serving.server", "repro.serving.store", "repro.faults", "numpy"} <= loaded
    assert build_only(loaded) == []


def type_checking_imports(package) -> dict[str, tuple[str, str]]:
    """Bound name -> (module, name) of each import under the package's
    ``if TYPE_CHECKING:`` block: the exports static tools see."""
    bound = {}
    for node in ast.parse(Path(package.__file__).read_text()).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                for alias in statement.names:
                    bound[alias.asname or alias.name] = (statement.module, alias.name)
    return bound


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_every_export_is_the_object_its_defining_module_holds(package_name):
    package = importlib.import_module(package_name)
    static = type_checking_imports(package)
    assert sorted(static) == sorted(set(package.__all__) - {"__version__"})
    for name in package.__all__:
        value = getattr(package, name)
        assert name in dir(package)
        if name in static:
            source, original = static[name]
            assert value is getattr(importlib.import_module(source), original), name
        defining = getattr(value, "__module__", None)
        if isinstance(defining, str) and hasattr(value, "__qualname__"):
            assert getattr(sys.modules[defining], value.__qualname__) is value, name


def test_an_unknown_name_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.no_such_name  # noqa: B018 - the lookup is the test


def test_a_subpackage_resolves_as_an_attribute():
    """``import repro; repro.dp...`` works as it did when the package
    imported its subpackages eagerly, and loads only what it names."""
    loaded = loaded_modules("import repro\nassert repro.dp.PrivacyBudget(1.0, 0.0)")
    assert "repro.dp" in loaded
    assert "repro.serving" not in loaded
