"""The non-power-of-two completion path of ``build_candidate_set``.

For a length ``m`` that is not a power of two, ``C_m`` contains every string
of length ``m`` whose length-``2^k`` prefix and suffix (``k = floor(log2 m)``)
both belong to ``P_{2^k}``; the implementation finds them through
suffix/prefix overlaps, binary-searching packed suffix keys into the
sorted prefix keys.  With noiseless
counts and threshold 1, ``P_{2^k}`` is exactly the set of occurring
``2^k``-substrings, so the completion can be checked end to end against the
naive ``all_substrings`` enumeration: every occurring ``m``-substring must be
completed, and nothing outside the brute-force overlap closure may appear.

Both pipelines share ``_complete_lengths``, so no object-vs-array test can
see a change in the order of its rows — and the q-gram kinds draw their
noise in ``by_length[q]`` order.  A plain-Python reference pins that order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_build import PackedKeys, decode_rows, pack_strings
from repro.core.candidate_set import _complete_lengths, build_candidate_set
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.strings.naive import all_substrings

NOISELESS = ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)

DATABASES = {
    "periodic": StringDatabase(["abcabcab", "bcabcabc", "cabcabca"]),
    "mixed": StringDatabase(["aabbaabb", "abababab", "bbbaaabb", "ab"]),
    "unary-heavy": StringDatabase(["aaaaaaaa", "aaabaaab", "baaabaaa"]),
}

NON_POWERS = (3, 5, 6, 7)


def brute_force_completion(level: list[str], m: int) -> set[str]:
    """The paper's definition of ``C_m``, spelled out directly on strings:
    all ``left + right[overlap:]`` whose length-``overlap`` suffix/prefix
    agree, for ``overlap = 2 * 2^k - m``."""
    power = 1 << int(math.floor(math.log2(m)))
    overlap = 2 * power - m
    return {
        left + right[overlap:]
        for left in level
        for right in level
        if left[power - overlap :] == right[:overlap]
    }


@pytest.mark.parametrize("name", sorted(DATABASES))
@pytest.mark.parametrize("m", NON_POWERS)
def test_completion_matches_brute_force_overlap_closure(name, m):
    database = DATABASES[name]
    candidates = build_candidate_set(database, NOISELESS, lengths=[m])
    power = 1 << int(math.floor(math.log2(m)))
    assert m != power, "test lengths must not be powers of two"
    expected = brute_force_completion(candidates.levels[power], m)
    assert set(candidates.by_length[m]) == expected
    # by_length values stay sorted for determinism.
    assert candidates.by_length[m] == sorted(candidates.by_length[m])


@pytest.mark.parametrize("name", sorted(DATABASES))
@pytest.mark.parametrize("m", NON_POWERS)
def test_completion_covers_every_occurring_substring(name, m):
    database = DATABASES[name]
    candidates = build_candidate_set(database, NOISELESS, lengths=[m])
    occurring = {
        s for s in all_substrings(list(database)) if len(s) == m
    }
    assert occurring <= set(candidates.by_length[m])


@pytest.mark.parametrize("m", NON_POWERS)
def test_completed_strings_have_their_halves_in_the_level(m):
    database = DATABASES["mixed"]
    candidates = build_candidate_set(database, NOISELESS, lengths=[m])
    power = 1 << int(math.floor(math.log2(m)))
    level = set(candidates.levels[power])
    for candidate in candidates.by_length[m]:
        assert len(candidate) == m
        assert candidate[:power] in level
        assert candidate[-power:] in level


def test_noiseless_level_sets_are_exactly_occurring_substrings():
    """The premise of the tests above: with threshold 1 and no noise,
    ``P_{2^k}`` is the set of occurring ``2^k``-substrings."""
    database = DATABASES["periodic"]
    candidates = build_candidate_set(database, NOISELESS)
    substrings = all_substrings(list(database))
    for power, level in candidates.levels.items():
        assert set(level) == {s for s in substrings if len(s) == power}


#: a codec over 250 symbols packs 7 positions to a word, so overlaps of 8
#: or more positions take the multi-word keys
WIDE_CODEC_SYMBOLS = "abc" + "".join(chr(0x1F300 + i) for i in range(247))


@pytest.mark.parametrize(
    "codec_symbols", ["abc", WIDE_CODEC_SYMBOLS], ids=["one-word", "multi-word"]
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_complete_lengths_matches_python_reference(codec_symbols, data):
    """For every length ``m`` in ``[power, 2 * power)``, the rows of ``C_m``
    are ``sorted({left + right[overlap:]})`` over the level strings.  The
    level is every window of a few short texts, so long overlaps match too
    (at ``power = 16`` the overlaps reach 15 positions, three words wide)."""
    power = data.draw(st.sampled_from([1, 2, 4, 8, 16]))
    texts = data.draw(
        st.lists(
            st.text(alphabet="abc", min_size=power, max_size=2 * power + 4),
            max_size=4,
        )
    )
    level = sorted(
        {text[i : i + power] for text in texts for i in range(len(text) - power + 1)}
    )
    matrix = (
        pack_strings(level)[0] if level else np.zeros((0, power), dtype=np.int32)
    )
    lengths = range(power, 2 * power)
    completed = _complete_lengths(
        {power: matrix}, lengths, 2 * power - 1, PackedKeys.of_symbols(codec_symbols)
    )
    assert sorted(completed) == list(lengths)
    for m in lengths:
        overlap = 2 * power - m
        expected = sorted(
            {
                left + right[overlap:]
                for left in level
                for right in level
                if left[power - overlap :] == right[:overlap]
            }
        )
        assert decode_rows(completed[m]) == expected, m
