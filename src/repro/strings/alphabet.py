"""Alphabet handling and integer encoding of documents.

The library's public API works with ordinary Python strings.  Internally the
string data structures (suffix arrays, suffix trees) operate on integer numpy
arrays: every character of the alphabet ``Sigma`` is mapped to a non-negative
integer code, and per-document sentinel symbols (the ``$_i`` of the paper) are
assigned codes *above* the character range so they can never collide with a
pattern character.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import InvalidDocumentError, InvalidPatternError

__all__ = ["Alphabet", "infer_alphabet"]


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet with a stable character <-> integer encoding.

    Parameters
    ----------
    symbols:
        The characters of the alphabet, in the order that defines their
        integer codes.  Duplicates are rejected.

    Notes
    -----
    The integer code of ``symbols[i]`` is ``i``.  Sentinel codes used when
    concatenating a document collection start at ``len(symbols)``; see
    :meth:`sentinel_code`.
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidDocumentError("alphabet contains duplicate symbols")
        for symbol in self.symbols:
            if not isinstance(symbol, str) or len(symbol) != 1:
                raise InvalidDocumentError(
                    f"alphabet symbols must be single characters, got {symbol!r}"
                )
            # A lone surrogate is not a Unicode scalar value: the strict
            # UTF-32 encode of the corpus that every build runs rejects it.
            if "\ud800" <= symbol <= "\udfff":
                raise InvalidDocumentError(
                    f"alphabet symbols must be Unicode scalar values, got the "
                    f"surrogate {symbol!r}"
                )
        object.__setattr__(
            self, "_index", {symbol: code for code, symbol in enumerate(self.symbols)}
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of characters, ``|Sigma|``."""
        return len(self.symbols)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __iter__(self):
        return iter(self.symbols)

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def code(self, symbol: str) -> int:
        """Return the integer code of a single character."""
        try:
            return self._index[symbol]
        except KeyError:
            raise InvalidPatternError(
                f"character {symbol!r} is not in the alphabet"
            ) from None

    def symbol(self, code: int) -> str:
        """Return the character with the given integer code."""
        if not 0 <= code < self.size:
            raise InvalidPatternError(f"code {code} is outside the alphabet range")
        return self.symbols[code]

    def encode(self, text: str) -> np.ndarray:
        """Encode a string into an ``int64`` numpy array of character codes."""
        try:
            return np.fromiter(
                (self._index[ch] for ch in text), dtype=np.int64, count=len(text)
            )
        except KeyError as exc:
            raise InvalidPatternError(
                f"character {exc.args[0]!r} is not in the alphabet"
            ) from None

    def decode(self, codes: Sequence[int] | np.ndarray) -> str:
        """Decode an array of character codes back into a string."""
        return "".join(self.symbols[int(code)] for code in codes)

    def sentinel_code(self, document_index: int) -> int:
        """Return the sentinel code ``$_{document_index}``.

        Sentinels occupy codes ``size, size + 1, ...`` so they are distinct
        from every character and from each other.
        """
        if document_index < 0:
            raise InvalidDocumentError("document index must be non-negative")
        return self.size + document_index

    def is_sentinel(self, code: int) -> bool:
        """Return ``True`` when ``code`` denotes a sentinel symbol."""
        return code >= self.size

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_document(self, document: str, max_length: int | None = None) -> None:
        """Check that ``document`` lies in ``Sigma^[1, max_length]``.

        Raises :class:`InvalidDocumentError` if the document is empty, too
        long, or uses characters outside the alphabet.
        """
        if not document:
            raise InvalidDocumentError("documents must be non-empty")
        if max_length is not None and len(document) > max_length:
            raise InvalidDocumentError(
                f"document of length {len(document)} exceeds the maximum {max_length}"
            )
        for ch in document:
            if ch not in self._index:
                raise InvalidDocumentError(
                    f"document character {ch!r} is not in the alphabet"
                )


def infer_alphabet(documents: Iterable[str], extra: Iterable[str] = ()) -> Alphabet:
    """Infer the alphabet of a document collection.

    The characters are ordered lexicographically so that the encoding is
    deterministic regardless of document order.

    Parameters
    ----------
    documents:
        The documents whose characters define the alphabet.
    extra:
        Additional characters guaranteed to belong to ``Sigma`` even if they
        do not occur in the collection (useful because differential privacy
        must account for patterns over the full data universe).
    """
    chars: set[str] = set(extra)
    for document in documents:
        chars.update(document)
    if not chars:
        raise InvalidDocumentError("cannot infer an alphabet from an empty collection")
    return Alphabet(tuple(sorted(chars)))
