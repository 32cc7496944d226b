"""Exact word arithmetic in the rank-n universal group (every bond label infinite).

Every element has a unique reduced word: a letter sequence with no two equal
neighbours.  That makes everything total and exact -- an initial segment is
an involution exactly when it is a palindrome, and there is exactly one
prefix per length, so ancestors are always unique.

A palindrome of even length has two equal middle letters, so every
palindrome in a reduced word has odd length.  One pass of Manacher's
algorithm over the odd centres (`_radii`) therefore yields every palindromic
prefix, of the word and of each of its suffixes, and both the involution
prefixes and the ancestor decomposition cost O(n) for an n-letter word.
"""
from __future__ import annotations

from itertools import accumulate

from .errors import EmptyWord, InvalidWord
from .weak_order import AncestorDecomposition

WORD_GUARD = 10_000

FreeWord = tuple  # reduced word: tuple of 1-based letters, no equal neighbours


def check_word(word) -> FreeWord:
    w = tuple(int(x) for x in word)
    if len(w) > WORD_GUARD:
        raise InvalidWord(f"word has {len(w)} letters, guard is {WORD_GUARD}")
    for k, letter in enumerate(w):
        if letter < 1:
            raise InvalidWord(f"letter {letter} is not a positive generator index")
        if k > 0 and w[k - 1] == letter:
            raise InvalidWord(f"equal adjacent letters at position {k}: word is not reduced")
    return w


def reduce_word(letters) -> FreeWord:
    """Reduced form of an arbitrary letter sequence (iterated cancellation)."""
    out: list[int] = []
    for x in letters:
        x = int(x)
        if x < 1:
            raise InvalidWord(f"letter {x} is not a positive generator index")
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    if len(out) > WORD_GUARD:
        raise InvalidWord(f"word has {len(out)} letters, guard is {WORD_GUARD}")
    return tuple(out)


def ug_multiply(a, b) -> FreeWord:
    """Concatenate and cancel equal letters at the seam (cancellation cascades)."""
    a = check_word(a)
    b = check_word(b)
    out = list(a)
    for x in b:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _radii(w: FreeWord) -> list[int]:
    """r[c] = the largest r with w[c - r : c + r + 1] a palindrome (Manacher, O(n)).

    Only odd centres are kept: w is reduced, so it has no even palindromes.
    """
    n = len(w)
    r = [0] * n
    lo, hi = 0, -1  # w[lo : hi + 1] is the palindrome reaching furthest right so far
    for c in range(n):
        k = 0 if c > hi else min(r[lo + hi - c], hi - c)  # mirror centre inside it
        while c - k > 0 and c + k + 1 < n and w[c - k - 1] == w[c + k + 1]:
            k += 1
        r[c] = k
        if c + k > hi:
            lo, hi = c - k, c + k
    return r


def _factors(w: FreeWord) -> tuple[FreeWord, ...]:
    """Longest palindromic prefixes of w, stripped in turn (w already checked).

    The palindromes centred at c are the w[p : 2c - p + 1] with p >= c - r[c],
    so the longest one starting at p is centred at top[p], the furthest
    centre whose maximal palindrome starts at or before p.
    """
    n = len(w)
    furthest = [-1] * n  # furthest[s]: the last centre whose palindrome starts at s
    for c, rc in enumerate(_radii(w)):
        furthest[c - rc] = c
    top = list(accumulate(furthest, max))
    factors = []
    p = 0
    while p < n:
        end = 2 * top[p] - p + 1
        factors.append(w[p:end])
        p = end
    return tuple(factors)


def ug_involution_prefixes(w) -> list[FreeWord]:
    """Palindromic nonempty initial segments, in increasing length.

    The radius pass is O(n), but the output is not: each prefix is its own
    tuple, so an alternating word has Theta(n^2) letters in its answer.  The
    10,000-letter word (1, 2) * 5000 gives 5,000 tuples holding about 25
    million letters, and lifts a process's peak RSS from about 28 MB to about
    219 MB.  `ug_ancestor_decomposition` and `ug_involution_length` stay
    linear in the length of the word.
    """
    w = check_word(w)
    return [w[: 2 * c + 1] for c, rc in enumerate(_radii(w)) if rc >= c]


def ug_ancestor_decomposition(w) -> AncestorDecomposition:
    """Repeatedly strip the longest palindromic initial segment.

    Prefixes are unique per length, so this is never ambiguous; factors
    concatenate back to w without cancellation.
    """
    w = check_word(w)
    if not w:
        raise EmptyWord("the identity has no ancestor decomposition")
    return AncestorDecomposition(owner=w, factors=_factors(w))


def ug_involution_length(w) -> int:
    return len(_factors(check_word(w)))


def ug_power_word(n: int, k: int) -> FreeWord:
    """Reduced form of (r_1 ... r_n)^k."""
    if n < 1 or k < 1:
        raise InvalidWord("n and k must be positive")
    if n * k > WORD_GUARD:
        raise InvalidWord(f"word would have {n * k} letters, guard is {WORD_GUARD}")
    return reduce_word(list(range(1, n + 1)) * k)
