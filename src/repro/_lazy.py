"""Package exports resolved on first access (PEP 562).

The package inits on a serving path (``repro``, ``repro.core``,
``repro.dp``, ``repro.obs``, ``repro.serving`` and
``repro.serving.cluster``) import none of their exports when they are
imported: each name is imported from its defining module the first time
it is read (``from repro import Dataset`` included), then bound in the
package like an eager import.  So a process loads only
what it uses: ``import repro.serving.server`` loads the serving code,
numpy and the array counter, not the construction pipeline, the string
substrate or the experiments.  Each package also imports its exports under
``typing.TYPE_CHECKING``, so static tools see every name bound.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a defining module to the names ``package`` exports from
    it, an alias written as in an import (``"PrivateCountingTrie as
    CompiledTrie"``).  A subpackage or submodule of ``package`` resolves
    too, so ``import repro; repro.dp.PrivacyBudget`` keeps working.
    """
    module = sys.modules[package]
    sources = {}
    for source, names in exports.items():
        for entry in names:
            original, _, alias = entry.partition(" as ")
            sources[alias or original] = (source, original)

    def __getattr__(name: str) -> object:
        if name in sources:
            source, original = sources[name]
            value = getattr(importlib.import_module(source), original)
        elif not name.startswith("__") and importlib.util.find_spec(f"{package}.{name}"):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(module, name, value)  # later reads skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(sources))

    return __getattr__, __dir__
