"""Property tests for the key primitives of the array pipeline.

The ``publish`` workload only reaches one corner of them: an alphabet of
four letters, so every key is one int64 word, and a corpus in which every
letter occurs.  These tests cover the rest — keys that need several words,
code points above U+FFFF, alphabets with letters the corpus never uses —
against plain references: ``np.lexsort`` on PAD-padded matrices for the key
order, and the explicit cross product, counted by ``SortJoinCounter.counts``
and by the naive engine, for the sparse doubling-level count.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_build import PAD, PackedKeys, SortJoinCounter, pack_strings
from repro.core.database import StringDatabase
from repro.counting import make_engine
from repro.strings.alphabet import Alphabet

#: the corpora of ``test_build_backends.py``, each with letters the corpus
#: never uses added to its alphabet (one of them above U+FFFF)
DOCS = st.lists(st.text(alphabet="ab", min_size=1, max_size=8), min_size=1, max_size=6)
WIDE_DOCS = st.lists(
    st.text(alphabet="acé☃", min_size=1, max_size=7), min_size=1, max_size=5
)
CORPORA = st.one_of(
    st.tuples(DOCS, st.just("bz")), st.tuples(WIDE_DOCS, st.just("b\U0001f600"))
)

#: few symbols: 3 bits a position, 21 positions to a word
NARROW = "ab€\U0001f600\U0001d11e"
#: 250 symbols: 8 bits a position, 7 positions to a word
WIDE = "ab" + "".join(chr(0x1F300 + i) for i in range(248))


def lexsort_order(matrix: np.ndarray) -> np.ndarray:
    return np.lexsort(matrix.T[::-1])


class TestKeyOrder:
    @pytest.mark.parametrize(
        "symbols, width, words",
        [(NARROW, 21, 1), (NARROW, 22, 2), (WIDE, 7, 1), (WIDE, 8, 2), (WIDE, 24, 4)],
        ids=["narrow-21", "narrow-22", "wide-7", "wide-8", "wide-24"],
    )
    def test_word_count(self, symbols, width, words):
        codec = PackedKeys.of_symbols(symbols)
        keys = codec.keys(np.full((3, width), ord(symbols[-1]), dtype=np.int32))
        assert codec.words(width) == words
        assert keys.dtype == (np.int64 if words == 1 else np.dtype(f"S{8 * words}"))

    @pytest.mark.parametrize("block", [None, 3], ids=["block-default", "block-3"])
    @pytest.mark.parametrize("symbols", [NARROW, WIDE], ids=["narrow", "wide"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_key_order_matches_lexsort(self, symbols, block, data):
        """Rows of up to 30 positions: one to two words narrow, up to five
        wide.  Packing in blocks of 3 rows puts block cuts mid-batch."""
        strings = data.draw(
            st.lists(
                st.text(alphabet=symbols[:6], min_size=1, max_size=30),
                min_size=1,
                max_size=40,
            )
        )
        codec = PackedKeys.of_symbols(symbols)
        matrix, _ = pack_strings(strings)
        with mock.patch.object(PackedKeys, "BLOCK", block or PackedKeys.BLOCK):
            keys = codec.keys(matrix)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(order, lexsort_order(matrix))
        assert [strings[i] for i in order] == sorted(strings)
        # Equal keys exactly when equal strings.
        same_key = keys[:, None] == keys[None, :]
        same_string = np.array([[a == b for b in strings] for a in strings])
        assert np.array_equal(same_key, same_string)

    @pytest.mark.parametrize("symbols", [NARROW, WIDE], ids=["narrow", "wide"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_prefix_keys_are_keys_of_prefixes(self, symbols, data):
        strings = data.draw(
            st.lists(
                st.text(alphabet=symbols[:6], min_size=1, max_size=30),
                min_size=1,
                max_size=20,
            )
        )
        codec = PackedKeys.of_symbols(symbols)
        matrix, _ = pack_strings(strings)
        keys = codec.keys(matrix)
        for depth in range(1, matrix.shape[1] + 1):
            expected = codec.keys(np.ascontiguousarray(matrix[:, :depth]))
            assert np.array_equal(codec.prefix_keys(keys, depth), expected), depth

    def test_padded_rows_sort_before_their_extensions(self):
        codec = PackedKeys.of_symbols("ab")
        matrix = np.array([[ord("a"), ord("b")], [ord("a"), PAD]], dtype=np.int32)
        keys = codec.keys(matrix)
        assert keys[1] < keys[0]


class TestSparseLevelCount:
    @given(CORPORA, st.integers(min_value=1, max_value=6), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_pair_counts_match_cross_product(self, corpus, delta_cap, seed):
        """Every occurring substring of the level's width plus random strings
        over the whole alphabet — absent letters included — make the level;
        every ``i * k + j`` count equals the count of ``level[i] + level[j]``.
        The naive engine shares no code with the counter, so a change to
        the shared capping cannot hide behind ``counts``."""
        docs, absent = corpus
        symbols = sorted(set("".join(docs)) | set(absent))
        database = StringDatabase(docs, Alphabet(tuple(symbols)))
        counter = SortJoinCounter(database)
        naive = make_engine("naive", database.documents)
        rng = np.random.default_rng(seed)
        for width in (1, 2, 3):
            occurring = {
                doc[start : start + width]
                for doc in docs
                for start in range(len(doc) - width + 1)
            }
            drawn = {
                "".join(rng.choice(symbols, size=width)) for _ in range(4)
            }
            level = sorted(occurring | drawn)
            matrix, _ = pack_strings(level)
            got = counter.pair_counts(matrix, delta_cap)
            pairs = [left + right for left in level for right in level]
            cross, _ = pack_strings(pairs)
            assert np.array_equal(got, counter.counts(cross, delta_cap)), width
            assert np.array_equal(got, naive.count_many(pairs, delta_cap)), width

    def test_empty_level_counts_nothing(self):
        counter = SortJoinCounter(StringDatabase(["ab"]))
        assert counter.pair_counts(np.zeros((0, 2), dtype=np.int32), 1).size == 0
