"""Prefixes in weak order, involution prefixes, ancestors, and decompositions.

u is a prefix of w when w = uv with additive lengths, i.e. some reduced word
for w starts with one for u.  The prefixes of w form the lower interval
[1, w] in right weak order, Pref(w) = {w} ∪ ⋃_{s ∈ D_R(w)} Pref(ws), which
`_levels` walks from w down to the identity one length level at a time,
peeling right descents with array operations on the group table.  The
involution prefixes of maximal length are the "ancestors" of w, found on the
first level that holds an involution; when there is exactly one, stripping it
and recursing yields the ancestor decomposition w = a_1 a_2 ... a_k, whose
factor count is the involution length of w.

Having more than one maximal involution prefix is a first-class outcome
(Ambiguity), not an error: the verifier exists to hunt for exactly that, so
nothing here assumes uniqueness.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .engine import GroupTable, _check_element, canonical_reduced_word, multiply
from .errors import IdentityHasNoAncestor


@dataclass(frozen=True)
class PrefixSet:
    owner: int
    members: frozenset[int]
    involutions_only: bool = False


@dataclass(frozen=True)
class Ambiguity:
    """More than one maximal-length involution prefix; carries all witnesses."""

    owner: int
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class AncestorDecomposition:
    """Ordered involution factors with additive lengths; factor count is ilen.

    owner/factors are element ids for table-backed groups and reduced-word
    tuples for the universal group.
    """

    owner: object
    factors: tuple

    @property
    def ilen(self) -> int:
        return len(self.factors)


def _levels(table: GroupTable, w: int) -> Iterator[np.ndarray]:
    """Ids of [1, w], one length level at a time from w down to the identity.

    Each level is the previous one times its right descents, deduplicated.
    Only gen_mul, rdesc_bits and length are read, never inverse.
    """
    _check_element(table, w)
    bit = np.int64(1) << np.arange(table.n, dtype=np.int64)
    level = np.array([w], dtype=table.gen_mul.dtype)
    yield level
    for _ in range(int(table.length[w])):
        rows, cols = np.nonzero(table.rdesc_bits[level][:, None] & bit)
        level = np.unique(table.gen_mul[level[rows], cols])
        yield level


def _interval(table: GroupTable, w: int) -> np.ndarray:
    """Ids of [1, w], longest first, each id once."""
    return np.concatenate(list(_levels(table, w)))


def is_prefix(table: GroupTable, u: int, w: int) -> bool:
    _check_element(table, u)
    residual = multiply(table, int(table.inverse[u]), w)
    return int(table.length[u]) + int(table.length[residual]) == int(table.length[w])


def prefixes(table: GroupTable, w: int) -> PrefixSet:
    """All prefixes of w: the interval [1, w], peeled one right descent at a time."""
    return PrefixSet(owner=w, members=frozenset(_interval(table, w).tolist()))


def involution_prefixes(table: GroupTable, w: int) -> PrefixSet:
    ids = _interval(table, w)
    members = frozenset(ids[(table.inverse[ids] == ids) & (ids != 0)].tolist())
    return PrefixSet(owner=w, members=members, involutions_only=True)


def ancestors(table: GroupTable, w: int) -> PrefixSet:
    """Maximal-length involution prefixes: the involutions of the first level down that has any."""
    if w == table.id_of_identity:
        raise IdentityHasNoAncestor("the identity has no involution prefixes")
    for level in _levels(table, w):
        found = level[table.inverse[level] == level]
        if found.size:
            return PrefixSet(owner=w, members=frozenset(found.tolist()), involutions_only=True)


def ancestor(table: GroupTable, w: int) -> int | Ambiguity:
    """The unique maximal involution prefix, or an Ambiguity carrying all of them."""
    found = ancestors(table, w).members
    if len(found) == 1:
        return next(iter(found))
    return Ambiguity(owner=w, witnesses=tuple(sorted(found)))


def ancestor_decomposition(table: GroupTable, w: int) -> AncestorDecomposition | Ambiguity:
    """Iteratively strip ancestors until the identity; each step shortens w."""
    if w == table.id_of_identity:
        raise IdentityHasNoAncestor("the identity has no ancestor decomposition")
    factors: list[int] = []
    cur = w
    while cur != 0:
        a = ancestor(table, cur)
        if isinstance(a, Ambiguity):
            return a
        factors.append(a)
        cur = multiply(table, a, cur)  # a^-1 = a, so this strips the factor
    return AncestorDecomposition(owner=w, factors=tuple(factors))


def involution_length(table: GroupTable, w: int) -> int | Ambiguity:
    if w == table.id_of_identity:
        return 0
    dec = ancestor_decomposition(table, w)
    if isinstance(dec, Ambiguity):
        return dec
    return dec.ilen


def suffix_ancestor_decomposition(table: GroupTable, w: int) -> AncestorDecomposition | Ambiguity:
    """Suffix mirror: decompose w^-1 and reverse the factor list.

    The involution suffixes of w are the involution prefixes of w^-1; factors
    are involutions, so reversing the list already makes the ordered product
    equal w.
    """
    if w == table.id_of_identity:
        raise IdentityHasNoAncestor("the identity has no ancestor decomposition")
    _check_element(table, w)
    dec = ancestor_decomposition(table, int(table.inverse[w]))
    if isinstance(dec, Ambiguity):
        return dec
    return AncestorDecomposition(owner=w, factors=tuple(reversed(dec.factors)))


def format_factors(table: GroupTable, factors) -> str:
    """Render a factor list as parenthesized canonical words: '(r3 r6)(r2 r4)'."""
    rendered = []
    for f in factors:
        rendered.append(
            "(" + " ".join(f"r{letter}" for letter in canonical_reduced_word(table, f)) + ")"
        )
    return "".join(rendered)
