"""Tests for repro.strings.alphabet."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.database import StringDatabase
from repro.exceptions import InvalidDocumentError, InvalidPatternError
from repro.strings.alphabet import Alphabet, infer_alphabet


class TestAlphabetBasics:
    def test_size_and_membership(self):
        alphabet = Alphabet(("a", "b", "c"))
        assert alphabet.size == 3
        assert len(alphabet) == 3
        assert "a" in alphabet
        assert "z" not in alphabet
        assert list(alphabet) == ["a", "b", "c"]

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(InvalidDocumentError):
            Alphabet(("a", "a"))

    def test_multicharacter_symbols_rejected(self):
        with pytest.raises(InvalidDocumentError):
            Alphabet(("ab",))

    @pytest.mark.parametrize(
        "surrogate",
        ["\ud800", "\udbff", "\udc00", "\udfff"],
        ids=lambda symbol: f"U+{ord(symbol):04X}",
    )
    def test_surrogate_symbols_rejected(self, surrogate):
        """Rejected up front: a database holding one used to be accepted
        and then crash every build mid-way with a raw Unicode error."""
        with pytest.raises(InvalidDocumentError, match="surrogate"):
            Alphabet(("a", surrogate))
        with pytest.raises(InvalidDocumentError, match="surrogate"):
            StringDatabase([f"a{surrogate}b", f"ab{surrogate}", "ba"])
        # the code points around the surrogate block are ordinary symbols
        assert Alphabet(("\ud7ff", "\ue000", "\U0001f600")).size == 3

    def test_code_and_symbol_roundtrip(self):
        alphabet = Alphabet(("x", "y", "z"))
        for index, symbol in enumerate("xyz"):
            assert alphabet.code(symbol) == index
            assert alphabet.symbol(index) == symbol

    def test_unknown_character_raises(self):
        alphabet = Alphabet(("a",))
        with pytest.raises(InvalidPatternError):
            alphabet.code("b")
        with pytest.raises(InvalidPatternError):
            alphabet.symbol(5)


class TestEncoding:
    def test_encode_decode_roundtrip(self):
        alphabet = Alphabet(("a", "b", "c"))
        text = "abccba"
        encoded = alphabet.encode(text)
        assert encoded.dtype == np.int64
        assert alphabet.decode(encoded) == text

    def test_encode_unknown_character(self):
        alphabet = Alphabet(("a", "b"))
        with pytest.raises(InvalidPatternError):
            alphabet.encode("abz")

    def test_sentinels_are_outside_alphabet(self):
        alphabet = Alphabet(("a", "b"))
        assert alphabet.sentinel_code(0) == 2
        assert alphabet.sentinel_code(3) == 5
        assert alphabet.is_sentinel(2)
        assert not alphabet.is_sentinel(1)

    def test_negative_sentinel_index_rejected(self):
        alphabet = Alphabet(("a",))
        with pytest.raises(InvalidDocumentError):
            alphabet.sentinel_code(-1)


class TestValidation:
    def test_validate_document(self):
        alphabet = Alphabet(("a", "b"))
        alphabet.validate_document("ab", max_length=4)

    def test_empty_document_rejected(self):
        alphabet = Alphabet(("a",))
        with pytest.raises(InvalidDocumentError):
            alphabet.validate_document("")

    def test_too_long_document_rejected(self):
        alphabet = Alphabet(("a",))
        with pytest.raises(InvalidDocumentError):
            alphabet.validate_document("aaaa", max_length=3)

    def test_out_of_alphabet_document_rejected(self):
        alphabet = Alphabet(("a",))
        with pytest.raises(InvalidDocumentError):
            alphabet.validate_document("ab")


class TestInference:
    def test_infer_alphabet_sorted(self):
        alphabet = infer_alphabet(["bca", "aab"])
        assert alphabet.symbols == ("a", "b", "c")

    def test_infer_alphabet_with_extra(self):
        alphabet = infer_alphabet(["aa"], extra=["z"])
        assert alphabet.symbols == ("a", "z")

    def test_infer_empty_collection_rejected(self):
        with pytest.raises(InvalidDocumentError):
            infer_alphabet([])

    @given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=8), min_size=1, max_size=5))
    def test_inferred_alphabet_encodes_all_documents(self, documents):
        alphabet = infer_alphabet(documents)
        for document in documents:
            assert alphabet.decode(alphabet.encode(document)) == document
