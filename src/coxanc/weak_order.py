"""Prefixes in weak order, involution prefixes, ancestors, and decompositions.

u is a prefix of w when w = uv with additive lengths, i.e. some reduced word
for w starts with one for u.  The prefixes of w form the lower interval
[1, w] in right weak order, which `_interval` lists one length level at a
time with array operations on the group table.  The involution prefixes of
maximal length are the "ancestors" of w; when there is exactly one,
stripping it and recursing yields the ancestor decomposition
w = a_1 a_2 ... a_k, whose factor count is the involution length of w.

Having more than one maximal involution prefix is a first-class outcome
(Ambiguity), not an error: the verifier exists to hunt for exactly that, so
nothing here assumes uniqueness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import GroupTable, canonical_reduced_word, multiply
from .errors import IdentityHasNoAncestor, InvalidElement


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


def _check_element(table: GroupTable, w: int) -> None:
    """Reject ids outside the table: numpy would wrap a negative one."""
    if not 0 <= w < table.order:
        raise InvalidElement(f"element id {w} outside 0..{table.order - 1}")


def _interval(table: GroupTable, w: int) -> np.ndarray:
    """Ids of [1, w], one length level after another, each id once.

    Each prefix u of a level carries its residual v = u^-1 w.  The next level
    is u*s for every left descent s of v, deduplicated, and the residual of
    u*s is s*v = (v^-1 * s)^-1.  So `inverse` is read only at residuals and
    their inverses, never at other elements.
    """
    _check_element(table, w)
    bit = np.int64(1) << np.arange(table.n, dtype=np.int64)
    level = np.zeros(1, dtype=table.gen_mul.dtype)
    residual = np.array([w], dtype=table.inverse.dtype)
    levels = [level]
    for _ in range(int(table.length[w])):
        rows, cols = np.nonzero(table.ldesc_bits[residual][:, None] & bit)
        level, first = np.unique(table.gen_mul[level[rows], cols], return_index=True)
        rows, cols = rows[first], cols[first]
        residual = table.inverse[table.gen_mul[table.inverse[residual[rows]], cols]]
        levels.append(level)
    return np.concatenate(levels)


def _involutions(table: GroupTable, w: int) -> np.ndarray:
    """Ids of the involution prefixes of w, shortest first."""
    ids = _interval(table, w)
    return ids[(table.inverse[ids] == ids) & (ids != 0)]


def is_prefix(table: GroupTable, u: int, w: int) -> bool:
    _check_element(table, u)
    _check_element(table, w)
    residual = multiply(table, int(table.inverse[u]), w)
    return int(table.length[u]) + int(table.length[residual]) == int(table.length[w])


def prefixes(table: GroupTable, w: int) -> PrefixSet:
    """All prefixes of w: the interval [1, w], expanded one length level at a time.

    From a prefix u with residual v = u^-1 w, the prefixes one longer are u*s
    for each left descent s of v.
    """
    return PrefixSet(owner=w, members=frozenset(_interval(table, w).tolist()))


def involution_prefixes(table: GroupTable, w: int) -> PrefixSet:
    members = frozenset(_involutions(table, w).tolist())
    return PrefixSet(owner=w, members=members, involutions_only=True)


def ancestors(table: GroupTable, w: int) -> PrefixSet:
    """Maximal-length slice of the involution prefixes; nonempty for w != identity."""
    if w == table.id_of_identity:
        raise IdentityHasNoAncestor("the identity has no involution prefixes")
    candidates = _involutions(table, w)
    assert candidates.size, "non-identity elements always have involution prefixes"
    lengths = table.length[candidates]
    members = frozenset(candidates[lengths == lengths.max()].tolist())
    return PrefixSet(owner=w, members=members, involutions_only=True)


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
        _check_element(table, f)
        rendered.append(
            "(" + " ".join(f"r{letter}" for letter in canonical_reduced_word(table, f)) + ")"
        )
    return "".join(rendered)
