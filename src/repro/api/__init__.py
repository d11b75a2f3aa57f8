"""The unified public API: one façade over every counting structure.

The package's canonical surface (see ``docs/API.md``) has three parts:

:class:`PrivateCounter`
    The protocol every structure kind satisfies — ``query``, vectorized
    ``query_many``, ``mine``, ``metadata`` and the ``to_payload`` /
    ``from_payload`` release round-trip.
:class:`StructureRegistry`
    Kind names (``"heavy-path"``, ``"qgram-t3"``, ``"qgram-t4"``,
    ``"baseline"``, ``"heavy-path-continual"``) mapped to builders;
    :func:`register_structure_kind` adds
    new scenarios without touching core, after which the fluent builder, the
    serving layer and the ``dpsc --kind`` flags all accept them.
:class:`Dataset`
    The fluent entry point:
    ``Dataset.from_documents(...).with_budget(...).build(kind=...)`` gives a
    counter, and ``counter.release(store)`` publishes it.
"""

from repro.api.continual import build_continual_structure
from repro.api.dataset import Dataset
from repro.api.protocol import PrivateCounter
from repro.api.registry import (
    StructureKind,
    StructureRegistry,
    default_registry,
    register_structure_kind,
)
from repro.api.stream import CorpusStream

__all__ = [
    "CorpusStream",
    "Dataset",
    "PrivateCounter",
    "StructureKind",
    "StructureRegistry",
    "build_continual_structure",
    "default_registry",
    "register_structure_kind",
]
