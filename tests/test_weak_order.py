import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxanc import (
    Ambiguity,
    ancestor,
    ancestor_decomposition,
    ancestors,
    canonical_reduced_word,
    element_from_word,
    format_factors,
    involution_length,
    involution_prefixes,
    is_involution,
    is_prefix,
    multiply,
    prefixes,
    suffix_ancestor_decomposition,
)
from coxanc.errors import IdentityHasNoAncestor, InvalidElement
from coxanc.weak_order import _interval
from helpers import brute_prefix_set, left_tables

ORACLE_GROUPS = ["H3", "F4", "D5", "A2xB2", "I2(7)"]


def wid(table, *letters):
    return element_from_word(table, letters)


def words_of(table, ids):
    return sorted(canonical_reduced_word(table, u) for u in ids)


def test_is_prefix_examples(group):
    t = group("A2")
    w = wid(t, 1, 2)
    assert is_prefix(t, 0, w)
    assert is_prefix(t, w, w)
    # l(r2) + l(r2 r1r2) = 1 + 3 != 2
    assert not is_prefix(t, wid(t, 2), w)


def test_prefixes_examples(group):
    t = group("A2")
    assert prefixes(t, 0).members == {0}
    assert prefixes(t, wid(t, 1, 2, 1)).members == frozenset(range(6))
    assert prefixes(t, wid(t, 1, 2)).members == {0, wid(t, 1), wid(t, 1, 2)}


@pytest.mark.parametrize("descriptor", ["A2", "A3", "B2", "B3", "I2(5)", "A1xA2"])
def test_prefixes_match_whole_group_scan(descriptor, group):
    table = group(descriptor)
    lgs = left_tables(table)
    for w in range(table.order):
        assert prefixes(table, w).members == brute_prefix_set(table, lgs, w), w


def check_against_whole_group_scan(table, lgs, w):
    """prefixes, involution_prefixes and ancestors of w against brute_prefix_set."""
    ids = _interval(table, w)
    assert len(np.unique(ids)) == len(ids), w
    expected = brute_prefix_set(table, lgs, w)
    assert prefixes(table, w).members == expected, w
    invs = {u for u in expected if is_involution(table, u)}
    assert involution_prefixes(table, w).members == invs, w
    if w == 0:
        with pytest.raises(IdentityHasNoAncestor):
            ancestors(table, w)
        return
    top = max(int(table.length[u]) for u in invs)
    assert ancestors(table, w).members == {u for u in invs if int(table.length[u]) == top}, w


@settings(max_examples=300)
@given(data=st.data())
def test_interval_matches_whole_group_scan_past_rank_3(group, data):
    table = group(data.draw(st.sampled_from(ORACLE_GROUPS), label="group"))
    w = data.draw(st.integers(0, table.order - 1), label="w")
    check_against_whole_group_scan(table, left_tables(table), w)


@pytest.mark.parametrize("descriptor", ORACLE_GROUPS)
def test_longest_element_matches_whole_group_scan(descriptor, group):
    table = group(descriptor)
    w0 = int(np.argmax(table.length))
    assert len(_interval(table, w0)) == table.order
    check_against_whole_group_scan(table, left_tables(table), w0)


@pytest.mark.parametrize("descriptor", ["B3", "H3", "A2xB2"])
def test_search_reads_inverse_only_to_test_involutions(descriptor, group):
    # With inverse[] blanked out except at involutions, any other read of it
    # would send the search astray; the answers must still be those of the
    # real table.
    real = group(descriptor)
    lgs = left_tables(real)
    involution = real.inverse == np.arange(real.order)
    table = dataclasses.replace(real, inverse=np.where(involution, real.inverse, -1))
    for w in range(1, real.order):
        expected = brute_prefix_set(real, lgs, w)
        assert prefixes(table, w).members == expected, w
        invs = {u for u in expected if u != 0 and involution[u]}
        assert involution_prefixes(table, w).members == invs, w
        top = max(int(real.length[u]) for u in invs)
        assert ancestors(table, w).members == {u for u in invs if real.length[u] == top}, w


ELEMENT_CALLS = {
    "is_prefix(u)": lambda t, w: is_prefix(t, w, 0),
    "is_prefix(w)": lambda t, w: is_prefix(t, 0, w),
    "prefixes": prefixes,
    "involution_prefixes": involution_prefixes,
    "ancestors": ancestors,
    "ancestor": ancestor,
    "ancestor_decomposition": ancestor_decomposition,
    "involution_length": involution_length,
    "suffix_ancestor_decomposition": suffix_ancestor_decomposition,
    "format_factors": lambda t, w: format_factors(t, [w]),
}


@pytest.mark.parametrize("call", ELEMENT_CALLS.values(), ids=ELEMENT_CALLS.keys())
def test_out_of_range_id_is_invalid_element(call, group):
    # numpy would read id -1 as the last element, the longest one
    t = group("A3")
    for bad in (-1, t.order):
        with pytest.raises(InvalidElement, match=f"element id {bad} outside 0..23"):
            call(t, bad)


def test_involution_prefixes_examples(group):
    t = group("A2")
    assert involution_prefixes(t, wid(t, 1)).members == {wid(t, 1)}
    assert involution_prefixes(t, 0).members == frozenset()
    w0 = wid(t, 1, 2, 1)
    assert involution_prefixes(t, w0).members == {wid(t, 1), wid(t, 2), w0}


def test_ancestors_examples(group):
    t = group("A2")
    w0 = wid(t, 1, 2, 1)
    assert ancestors(t, w0).members == {w0}  # involutions are their own ancestor
    assert ancestors(t, wid(t, 1, 2)).members == {wid(t, 1)}
    with pytest.raises(IdentityHasNoAncestor):
        ancestors(t, 0)

    t6 = group("A6")
    w = wid(t6, 6, 3, 2, 1, 4, 5)
    assert ancestors(t6, w).members == {wid(t6, 3, 6)}
    assert ancestor(t6, w) == wid(t6, 3, 6)


def test_ancestor_decomposition_worked_example(group):
    t = group("A6")
    w = wid(t, 6, 3, 2, 1, 4, 5)
    dec = ancestor_decomposition(t, w)
    assert [canonical_reduced_word(t, f) for f in dec.factors] == [(3, 6), (2, 4), (1, 5)]
    assert dec.ilen == 3
    assert format_factors(t, dec.factors) == "(r3 r6)(r2 r4)(r1 r5)"

    sdec = suffix_ancestor_decomposition(t, w)
    assert [canonical_reduced_word(t, f) for f in sdec.factors] == [(3,), (2, 4, 6), (1, 5)]
    assert format_factors(t, sdec.factors) == "(r3)(r2 r4 r6)(r1 r5)"


def test_decomposition_simple_cases(group):
    t3 = group("A3")
    dec = ancestor_decomposition(t3, wid(t3, 1, 2, 3))
    assert [canonical_reduced_word(t3, f) for f in dec.factors] == [(1,), (2,), (3,)]

    t = group("A2")
    u = wid(t, 1, 2, 1)
    assert ancestor_decomposition(t, u).factors == (u,)
    with pytest.raises(IdentityHasNoAncestor):
        ancestor_decomposition(t, 0)


def test_involution_length_examples(group):
    t = group("A2")
    assert involution_length(t, 0) == 0
    assert involution_length(t, wid(t, 1)) == 1
    t6 = group("A6")
    assert involution_length(t6, wid(t6, 6, 3, 2, 1, 4, 5)) == 3


def test_suffix_examples(group):
    t = group("A2")
    w = wid(t, 1, 2)
    sdec = suffix_ancestor_decomposition(t, w)
    # w^-1 = r2r1 decomposes as (r2)(r1); reversed, the suffix ancestor r2 is rightmost
    assert [canonical_reduced_word(t, f) for f in sdec.factors] == [(1,), (2,)]
    u = wid(t, 1, 2, 1)
    assert suffix_ancestor_decomposition(t, u).factors == (u,)


@pytest.mark.parametrize("descriptor", ["A3", "B3", "I2(7)", "A1xA2"])
def test_decomposition_soundness(descriptor, group):
    table = group(descriptor)
    for w in range(1, table.order):
        dec = ancestor_decomposition(table, w)
        assert not isinstance(dec, Ambiguity)
        prod = 0
        for f in dec.factors:
            assert is_involution(table, f)
            prod = multiply(table, prod, f)
        assert prod == w
        assert sum(int(table.length[f]) for f in dec.factors) == int(table.length[w])
        # ilen <= length, and the first factor is the ancestor
        assert dec.ilen <= int(table.length[w])
        assert dec.factors[0] == ancestor(table, w)


@pytest.mark.parametrize("descriptor", ["A3", "B3", "I2(6)"])
def test_suffix_prefix_duality(descriptor, group):
    table = group(descriptor)
    for w in range(1, table.order):
        sdec = suffix_ancestor_decomposition(table, w)
        pdec = ancestor_decomposition(table, int(table.inverse[w]))
        assert tuple(reversed(sdec.factors)) == pdec.factors
        prod = 0
        for f in sdec.factors:
            prod = multiply(table, prod, f)
        assert prod == w


@pytest.mark.parametrize("descriptor", ["A3", "B3", "I2(7)"])
def test_longest_element_has_all_prefixes(descriptor, group):
    table = group(descriptor)
    maxlen = int(table.length.max())
    (w0,) = [w for w in range(table.order) if int(table.length[w]) == maxlen]
    assert prefixes(table, w0).members == frozenset(range(table.order))


def test_f4_rank_bound_counterexample(group):
    """F4's least rank-bound violation: r1r3r2r4r3r2r1, ilen 5 > rank 4."""
    t = group("F4")
    w = wid(t, 1, 3, 2, 4, 3, 2, 1)
    assert int(t.length[w]) == 7
    dec = ancestor_decomposition(t, w)
    assert [canonical_reduced_word(t, f) for f in dec.factors] == [
        (1, 3),
        (2, 4),
        (3,),
        (2,),
        (1,),
    ]
    assert dec.ilen == 5
    # maximality of each strip is forced: the interval search finds no longer
    # involution prefix at any step
    assert max(int(t.length[u]) for u in involution_prefixes(t, w).members) == 2


def test_h3_rank_bound_counterexample(group):
    """In H3 the element r2r1r2r1r3r2r1 has involution length 4 > rank 3.

    Fully hand-checkable: its reduced words are 2121321 and 2123121 (the only
    braid move available swaps the commuting pair r1r3), so its involution
    prefixes are r2 and r2r1r2, forcing the decomposition
    (r2r1r2)(r1r3)(r2)(r1).  See test_exact_arithmetic_oracle.py for an
    independent exact-arithmetic confirmation.
    """
    t = group("H3")
    w = wid(t, 2, 1, 2, 1, 3, 2, 1)
    assert int(t.length[w]) == 7
    assert words_of(t, involution_prefixes(t, w).members) == [(2,), (2, 1, 2)]
    dec = ancestor_decomposition(t, w)
    assert [canonical_reduced_word(t, f) for f in dec.factors] == [
        (2, 1, 2),
        (1, 3),
        (2,),
        (1,),
    ]
    assert dec.ilen == 4
    # prefix and suffix ilen can differ: w^-1 = 1231212 has the length-6
    # involution prefix 123121 (braid-equivalent to its own reversal), so the
    # suffix decomposition of w is (r2)(r1r2r1r3r2r1) with just 2 factors
    sdec = suffix_ancestor_decomposition(t, w)
    assert [canonical_reduced_word(t, f) for f in sdec.factors] == [
        (2,),
        (1, 2, 1, 3, 2, 1),
    ]
    assert sdec.ilen == 2
