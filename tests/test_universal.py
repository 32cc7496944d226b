import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxanc import (
    reduce_word,
    ug_ancestor_decomposition,
    ug_involution_length,
    ug_involution_prefixes,
    ug_multiply,
    ug_power_word,
)
from coxanc.errors import EmptyWord, InvalidWord
from helpers import brute_ug_decomposition, brute_ug_involution_prefixes


def test_multiply_examples():
    assert ug_multiply((1, 2), (2, 1)) == ()
    assert ug_multiply((1,), (2,)) == (1, 2)
    assert ug_multiply((1, 2, 1), (1, 2, 1)) == ()  # palindromes square to 1
    assert ug_multiply((1, 2, 3), (3, 2, 1)) == ()  # cancellation cascades
    assert ug_multiply((), (4,)) == (4,)


def test_word_validation():
    with pytest.raises(InvalidWord):
        ug_multiply((1, 1), (2,))
    with pytest.raises(InvalidWord):
        ug_multiply((0,), (2,))
    assert reduce_word((1, 1, 2, 3, 3, 2)) == ()


def test_involution_prefixes_examples():
    assert ug_involution_prefixes((1, 2, 3)) == [(1,)]
    assert ug_involution_prefixes((1, 2, 1)) == [(1,), (1, 2, 1)]
    assert ug_involution_prefixes(()) == []


def test_involution_prefixes_are_involutions():
    rng = random.Random(11)
    for _ in range(50):
        word = reduce_word(rng.choices(range(1, 5), k=30))
        for p in ug_involution_prefixes(word):
            assert ug_multiply(p, p) == ()
            assert word[: len(p)] == p


def test_one_prefix_per_length():
    # unique reduced words mean exactly one prefix per length 0..l(w)
    word = (1, 2, 3, 1, 2, 3)
    prefixes = {word[:i] for i in range(len(word) + 1)}
    assert len(prefixes) == len(word) + 1


def test_decomposition_examples():
    dec = ug_ancestor_decomposition((1, 2, 3, 1, 2, 3))
    assert dec.factors == ((1,), (2,), (3,), (1,), (2,), (3,))
    assert dec.ilen == 6

    dec = ug_ancestor_decomposition((1, 2, 1))
    assert dec.factors == ((1, 2, 1),)

    with pytest.raises(EmptyWord):
        ug_ancestor_decomposition(())


def test_rank2_powers_have_long_palindromic_ancestors():
    # (r1 r2)^k for k >= 2 has the palindrome r1 r2 ... r1 (all but the last
    # letter) as an involution prefix, so its involution length is 2, not 2k.
    dec = ug_ancestor_decomposition((1, 2, 1, 2))
    assert dec.factors == ((1, 2, 1), (2,))
    dec = ug_ancestor_decomposition((1, 2, 1, 2, 1, 2))
    assert dec.factors == ((1, 2, 1, 2, 1), (2,))
    assert ug_involution_length(ug_power_word(2, 5)) == 2


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_power_ilen_is_nk_for_rank_at_least_three(n, k):
    # for n >= 3 the only palindromic initial segment is a single letter, so
    # every factor is a singleton and ilen((r1...rn)^k) = n*k
    word = ug_power_word(n, k)
    dec = ug_ancestor_decomposition(word)
    assert dec.ilen == n * k
    assert all(len(f) == 1 for f in dec.factors)


def test_power_word_reduces_for_rank_one():
    assert ug_power_word(1, 1) == (1,)
    assert ug_power_word(1, 2) == ()
    assert ug_power_word(1, 3) == (1,)


def test_decomposition_soundness_random():
    rng = random.Random(23)
    for _ in range(100):
        word = reduce_word(rng.choices(range(1, 6), k=rng.randrange(1, 40)))
        if not word:
            assert ug_involution_length(word) == 0
            continue
        dec = ug_ancestor_decomposition(word)
        assert sum(len(f) for f in dec.factors) == len(word)  # additive lengths
        product = ()
        for f in dec.factors:
            assert f == f[::-1] and f  # nonempty palindromic factors
            product = ug_multiply(product, f)
        assert product == word


def test_word_guard():
    with pytest.raises(InvalidWord):
        ug_power_word(5, 4000)
    with pytest.raises(InvalidWord):
        reduce_word([1, 2] * 6000)


@st.composite
def palindrome_rich_words(draw):
    """reduce_word(u + u[-2::-1] + tail): a palindrome, then an arbitrary tail."""
    letters = st.integers(1, draw(st.integers(1, 4)))
    u = draw(st.lists(letters, max_size=30))
    tail = draw(st.lists(letters, max_size=20))
    return reduce_word(u + u[-2::-1] + tail)


def assert_matches_oracle(word):
    assert ug_involution_prefixes(word) == brute_ug_involution_prefixes(word)
    if not word:
        with pytest.raises(EmptyWord):
            ug_ancestor_decomposition(word)
        assert ug_involution_length(word) == 0
        return
    factors = brute_ug_decomposition(word)
    assert ug_ancestor_decomposition(word).factors == factors
    assert ug_involution_length(word) == len(factors)


@settings(max_examples=500)
@given(palindrome_rich_words())
def test_matches_peeling_oracle(word):
    assert_matches_oracle(word)


def test_power_words_match_peeling_oracle():
    for n in range(1, 7):
        for k in range(1, 41):
            assert_matches_oracle(ug_power_word(n, k))


def test_guard_sized_alternating_word():
    # r1 r2 ... r1 (9,999 letters) is the longest palindromic prefix; the last r2 is left
    word = (1, 2) * 5000
    dec = ug_ancestor_decomposition(word)
    assert dec.factors == (word[:-1], (2,))
    prefixes = ug_involution_prefixes(word)
    assert len(prefixes) == 5000
    assert [len(p) for p in prefixes] == list(range(1, 10_000, 2))
