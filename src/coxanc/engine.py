"""Fully tabulated finite Coxeter groups.

A group is enumerated once into a flat table: every element gets an integer
id, and the operations everything else needs (right multiplication by a
generator, length, inverse, descent bitsets) become array lookups.  Ids are
assigned in breadth-first order over length, ties broken by lexicographically
least reduced word, so ids -- and every report derived from them -- are
stable across runs and platforms.

Construction runs in the standard geometric representation.  The simple
roots are closed under the simple reflections (positive roots only: a simple
reflection permutes the positive roots other than its own), elements are the
permutations they induce on root ids, and the breadth-first closure
deduplicates elements by the images of the simple roots.  Root coordinates
are double precision with a snap tolerance; the finished table is then
audited purely combinatorially -- generator permutations are involutions,
the product of generators i, j has order m_ij, lengths equal the root-sign
count, descent bits match the length rule.  Once the audit passes, every
later computation is exact integer work on the tables.

The full root permutations are dropped after construction; per element the
table keeps one generator-multiplication row plus length, inverse, descent
bits and the canonical-word chain, so groups in the 50k-element range fit
comfortably in memory.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import INFINITY, CoxeterMatrix, SystemSpec, build_matrix, parse_spec
from .errors import (
    BadLetter,
    InvalidLimit,
    NotFinite,
    NumericalInstability,
    OrderGuardExceeded,
)

SNAP_TOL = 1e-8
AMBIG_TOL = 1e-5
DEFAULT_ROOT_CAP = 10_000
DEFAULT_ORDER_GUARD = 1_000_000
ORDER_GUARD_ENV = "COXANC_ORDER_GUARD"

Word = tuple[int, ...]


@dataclass(frozen=True)
class Root:
    id: int
    coords: tuple[float, ...]  # in the simple-root basis
    positive: bool


@dataclass
class RootSystem:
    matrix: CoxeterMatrix
    roots: list[Root]      # positives first (ids 0..N-1), then their negatives (j <-> j+N)
    num_positive: int
    gen_perms: np.ndarray  # (n, 2N) int32: action of each simple reflection on root ids

    @property
    def rank(self) -> int:
        return self.matrix.n

    def negative_of(self, root_id: int) -> int:
        npos = self.num_positive
        return root_id + npos if root_id < npos else root_id - npos


def effective_order_guard(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(ORDER_GUARD_ENV)
    if not env:
        return DEFAULT_ORDER_GUARD
    try:
        return int(env)
    except ValueError:
        raise InvalidLimit(f"{ORDER_GUARD_ENV}={env!r} is not an integer") from None


def _cosine_matrix(matrix: CoxeterMatrix) -> np.ndarray:
    n = matrix.n
    b = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            m = matrix.rows[i][j]
            b[i, j] = -1.0 if m == INFINITY else -math.cos(math.pi / m)
    return b


def _locate(stack: np.ndarray, v: np.ndarray) -> int | None:
    """Index of v among the rows of stack, snapping within SNAP_TOL.

    Distances inside (SNAP_TOL, AMBIG_TOL] mean the root cannot be identified
    reliably and abort the build.
    """
    d = np.abs(stack - v).max(axis=1)
    k = int(d.argmin())
    if d[k] <= SNAP_TOL:
        return k
    if d[k] <= AMBIG_TOL:
        raise NumericalInstability(
            f"root match distance {d[k]:.3e} falls in the ambiguity band"
        )
    return None


def build_root_system(matrix: CoxeterMatrix, cap: int = DEFAULT_ROOT_CAP) -> RootSystem:
    """Close the simple roots under the simple reflections.

    Raises NotFinite as soon as the root count exceeds cap, which is how
    infinite groups (universal, affine, I2(inf)) announce themselves.
    """
    n = matrix.n
    if cap < 2 * n:
        raise InvalidLimit(f"root cap {cap} is below 2*rank = {2 * n}")
    b = _cosine_matrix(matrix)
    vecs = [np.eye(n)[i] for i in range(n)]
    stack = np.vstack(vecs)
    frontier = list(range(n))
    while frontier:
        fresh: list[int] = []
        for j in frontier:
            v = vecs[j]
            for g in range(n):
                if j == g:
                    continue  # s_g(alpha_g) = -alpha_g; all other images stay positive
                w = v.copy()
                w[g] -= 2.0 * float(b[g] @ v)
                if _locate(stack, w) is not None:
                    continue
                if w.min() < -AMBIG_TOL:
                    raise NumericalInstability("reflected root left the positive cone")
                vecs.append(w)
                stack = np.vstack([stack, w])
                if 2 * len(vecs) > cap:
                    raise NotFinite(
                        f"root closure exceeded cap {cap}: the group is not finite "
                        f"(or raise the cap)"
                    )
                fresh.append(len(vecs) - 1)
        frontier = fresh

    npos = len(vecs)
    perms = np.empty((n, 2 * npos), dtype=np.int32)
    for g in range(n):
        for j in range(npos):
            if j == g:
                img = npos + g
            else:
                w = vecs[j].copy()
                w[g] -= 2.0 * float(b[g] @ vecs[j])
                k = _locate(stack, w)
                if k is None:
                    raise NumericalInstability("closure is not closed under reflection")
                img = k
            perms[g, j] = img
        for j in range(npos):
            img = int(perms[g, j])
            perms[g, npos + j] = img + npos if img < npos else img - npos

    roots = [Root(j, tuple(float(x) for x in vecs[j]), True) for j in range(npos)]
    roots += [Root(npos + j, tuple(-float(x) for x in vecs[j]), False) for j in range(npos)]
    return RootSystem(matrix=matrix, roots=roots, num_positive=npos, gen_perms=perms)


@dataclass
class GroupTable:
    """Flat enumeration of a finite Coxeter group.

    Element 0 is the identity.  gen_mul[w, g-1] is w*r_g; parent/first_letter
    encode the canonical (lex-least) reduced word: word(w) = first_letter(w)
    followed by word(parent(w)), where parent(w) is the least left descent
    times w.  Immutable after construction; safe for concurrent readers.
    """

    n: int
    order: int
    num_positive_roots: int
    gen_mul: np.ndarray      # (order, n) int32
    length: np.ndarray       # (order,)  int32
    inverse: np.ndarray      # (order,)  int32
    ldesc_bits: np.ndarray   # (order,)  int64, bit g-1 set iff r_g is a left descent
    rdesc_bits: np.ndarray   # (order,)  int64
    parent: np.ndarray       # (order,)  int32, -1 for the identity
    first_letter: np.ndarray  # (order,) int16, 0-based generator, -1 for the identity
    system: RootSystem

    @property
    def id_of_identity(self) -> int:
        return 0


def build_group_table(system: RootSystem, order_guard: int | None = None,
                      audit: bool = True) -> GroupTable:
    """Breadth-first closure from the identity; see the module docstring."""
    gp = system.gen_perms
    n = system.rank
    npos = system.num_positive
    guard = effective_order_guard(order_guard)

    ident = np.arange(2 * npos, dtype=np.int32)
    seen: dict[bytes, int] = {ident[:n].tobytes(): 0}
    blocks = [ident[None, :]]
    length = [0]
    parent = [-1]
    first = [-1]
    level_ids = [0]
    level_block = blocks[0]
    depth = 0
    while level_ids:
        depth += 1
        nxt_ids: list[int] = []
        nxt_blocks: list[np.ndarray] = []
        for g in range(n):
            cand = gp[g][level_block]  # left multiplication by r_g, row per parent
            keys = np.ascontiguousarray(cand[:, :n])
            fresh: list[int] = []
            for b in range(cand.shape[0]):
                key = keys[b].tobytes()
                if key not in seen:
                    wid = len(length)
                    if wid + 1 > guard:
                        raise OrderGuardExceeded(
                            f"group exceeds the order guard {guard} "
                            f"(override with {ORDER_GUARD_ENV} or order_guard=)"
                        )
                    seen[key] = wid
                    length.append(depth)
                    parent.append(level_ids[b])
                    first.append(g)
                    nxt_ids.append(wid)
                    fresh.append(b)
            if fresh:
                nxt_blocks.append(cand[np.array(fresh)])
        if nxt_ids:
            level_block = np.vstack(nxt_blocks)
            blocks.append(level_block)
        level_ids = nxt_ids

    perms = np.vstack(blocks).astype(np.int32, copy=False)
    order = perms.shape[0]
    lengths = np.array(length, dtype=np.int32)
    parents = np.array(parent, dtype=np.int32)
    firsts = np.array(first, dtype=np.int16)

    inv_perms = np.argsort(perms, axis=1).astype(np.int32)
    inverse = np.empty(order, dtype=np.int32)
    inv_keys = np.ascontiguousarray(inv_perms[:, :n])
    for w in range(order):
        inverse[w] = seen[inv_keys[w].tobytes()]

    gen_mul = np.empty((order, n), dtype=np.int32)
    for g in range(n):
        comp = perms[:, gp[g]]  # right multiplication: (w*r_g) on roots
        keys = np.ascontiguousarray(comp[:, :n])
        col = gen_mul[:, g]
        for w in range(order):
            col[w] = seen[keys[w].tobytes()]

    rdesc = np.zeros(order, dtype=np.int64)
    for g in range(n):
        rdesc |= (lengths[gen_mul[:, g]] < lengths).astype(np.int64) << g
    ldesc = rdesc[inverse]

    if audit:
        _audit(system, perms, inv_perms, lengths, gen_mul, inverse, ldesc)

    return GroupTable(
        n=n,
        order=order,
        num_positive_roots=npos,
        gen_mul=gen_mul,
        length=lengths,
        inverse=inverse,
        ldesc_bits=ldesc,
        rdesc_bits=rdesc,
        parent=parents,
        first_letter=firsts,
        system=system,
    )


def _audit(system, perms, inv_perms, lengths, gen_mul, inverse, ldesc_bits):
    """Combinatorial certification of the float-built permutation data."""
    gp = system.gen_perms
    n = system.rank
    npos = system.num_positive
    ar = np.arange(2 * npos, dtype=np.int32)
    for g in range(n):
        if not np.array_equal(np.sort(gp[g]), ar):
            raise NumericalInstability(f"generator {g + 1} image is not a permutation of the roots")
        if not np.array_equal(gp[g][gp[g]], ar):
            raise NumericalInstability(f"generator {g + 1} root permutation is not an involution")
    for i in range(n):
        for j in range(i + 1, n):
            m = system.matrix.rows[i][j]
            q = gp[i][gp[j]]
            cur = q
            k = 1
            while not np.array_equal(cur, ar):
                cur = q[cur]
                k += 1
                if k > 2 * m + 2:
                    raise NumericalInstability(
                        f"product of generators {i + 1},{j + 1} does not close at order {m}"
                    )
            if k != m:
                raise NumericalInstability(
                    f"product of generators {i + 1},{j + 1} has order {k}, expected {m}"
                )
    neg_count = (perms[:, :npos] >= npos).sum(axis=1)
    if not np.array_equal(neg_count, lengths):
        raise NumericalInstability("lengths disagree with the root-sign count")
    for g in range(n):
        by_length = lengths[gen_mul[inverse, g]] < lengths
        by_root = inv_perms[:, g] >= npos
        if not np.array_equal(by_length, (ldesc_bits >> g) & 1 == 1):
            raise NumericalInstability("descent bits disagree with the length rule")
        if not np.array_equal(by_root, by_length):
            raise NumericalInstability("root-sign descent rule disagrees with the length rule")
        if not np.all(np.abs(lengths[gen_mul[:, g]] - lengths) == 1):
            raise NumericalInstability("generator multiplication does not step length by 1")
    if not np.array_equal(inverse[inverse], np.arange(len(inverse), dtype=np.int32)):
        raise NumericalInstability("inverse table is not an involution")
    if not np.array_equal(lengths[inverse], lengths):
        raise NumericalInstability("inverse does not preserve length")


def build_group(spec: SystemSpec | str, *, root_cap: int = DEFAULT_ROOT_CAP,
                order_guard: int | None = None, audit: bool = True) -> GroupTable:
    """Convenience: descriptor or spec -> matrix -> roots -> table."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    matrix = build_matrix(spec)
    system = build_root_system(matrix, cap=root_cap)
    return build_group_table(system, order_guard=order_guard, audit=audit)


# ---------------------------------------------------------------------------
# element operations


def element_from_word(table: GroupTable, word) -> int:
    """Evaluate a word (1-based letters, not necessarily reduced) left to right."""
    e = 0
    for letter in word:
        if not isinstance(letter, (int, np.integer)) or not 1 <= letter <= table.n:
            raise BadLetter(f"letter {letter!r} outside 1..{table.n}")
        e = int(table.gen_mul[e, letter - 1])
    return e


def canonical_reduced_word(table: GroupTable, w: int) -> Word:
    """Lexicographically least reduced word (repeatedly take the least left descent)."""
    letters: list[int] = []
    while w != 0:
        letters.append(int(table.first_letter[w]) + 1)
        w = int(table.parent[w])
    return tuple(letters)


def left_descents(table: GroupTable, w: int) -> frozenset[int]:
    bits = int(table.ldesc_bits[w])
    return frozenset(g + 1 for g in range(table.n) if bits >> g & 1)


def left_multiply_generator(table: GroupTable, g: int, w: int) -> int:
    """r_g * w via (w^-1 * r_g)^-1; generators are involutions."""
    if not 1 <= g <= table.n:
        raise BadLetter(f"generator {g} outside 1..{table.n}")
    return int(table.inverse[table.gen_mul[table.inverse[w], g - 1]])


def is_involution(table: GroupTable, w: int) -> bool:
    return w != 0 and int(table.inverse[w]) == w


def multiply(table: GroupTable, u: int, v: int) -> int:
    e = u
    for letter in canonical_reduced_word(table, v):
        e = int(table.gen_mul[e, letter - 1])
    return e


def element_order(table: GroupTable, w: int) -> int:
    k = 1
    cur = w
    while cur != 0:
        cur = multiply(table, cur, w)
        k += 1
    return k


def support(table: GroupTable, w: int) -> frozenset[int]:
    return frozenset(canonical_reduced_word(table, w))


def format_word(word) -> str:
    """Render letters as generator names: (3, 6) -> 'r3 r6'; () -> 'e'."""
    if not word:
        return "e"
    return " ".join(f"r{letter}" for letter in word)
