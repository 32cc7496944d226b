"""Fully tabulated finite Coxeter groups.

A group is enumerated once into a flat table: every element gets an integer
id, and the operations everything else needs (right multiplication by a
generator, length, inverse, descent bitsets) become array lookups.  Ids are
assigned in breadth-first order over length, ties broken by lexicographically
least reduced word, so ids -- and every report derived from them -- are
stable across runs and platforms.

Construction runs in the standard geometric representation.  Finiteness is
decided from the Coxeter graph beforehand (`core.is_finite_type`).  The simple
roots are closed under the simple reflections (positive roots only: a simple
reflection permutes the positive roots other than its own), giving each
generator as a permutation of the root ids.  An element is then keyed by the
images of the n simple roots alone -- they determine it, since the simple
roots are a basis -- packed into int64 words.  The breadth-first closure
left-multiplies one length level at a time.  A move down a level is the
reverse of a move up from the level below, so only the moves up are keyed:
one sort of their keys deduplicates them into the next level and fills the
rest of the left-multiplication table.  Right multiplication and inverses
follow from that table level by level.  Full root permutations are never
built, so memory per element is the table row itself.
Right descents are read off root signs: l(w s) < l(w) iff w(alpha_s) < 0.

Root coordinates are double precision with a snap tolerance; the finished
table is then audited purely combinatorially (see `_audit`): the generators
act on roots and on the table as involutions satisfying the braid relations,
the table is a transitive W-set, lengths step by one, and its descents agree
with the root signs.  Once the audit passes, every later computation is exact
integer work on the tables.  Per element the table keeps one
generator-multiplication row plus length, inverse, descent bits and the
canonical-word chain.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    INFINITY,
    CoxeterMatrix,
    SystemSpec,
    build_matrix,
    graph_of,
    is_finite_type,
    parse_spec,
)
from .errors import (
    BadLetter,
    InvalidElement,
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
_WORD_MASK = np.int64((1 << 63) - 1)

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
    """The element-count limit: the override, else the environment, else the default.

    A non-integer or a value below 1 is an InvalidLimit.
    """
    if override is not None:
        guard, source = override, "order guard "
    else:
        env = os.environ.get(ORDER_GUARD_ENV)
        if not env:
            return DEFAULT_ORDER_GUARD
        try:
            guard = int(env)
        except ValueError:
            raise InvalidLimit(f"{ORDER_GUARD_ENV}={env!r} is not an integer") from None
        source = f"{ORDER_GUARD_ENV}="
    if guard < 1:
        raise InvalidLimit(f"{source}{guard} is below 1")
    return guard


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

    Finiteness is decided from the Coxeter graph first (`is_finite_type`):
    an infinite group (universal, affine, I2(inf), ...) raises NotFinite
    before any closure.  A finite group with more than cap roots raises
    InvalidLimit.
    """
    n = matrix.n
    if cap < 2 * n:
        raise InvalidLimit(f"root cap {cap} is below 2*rank = {2 * n}")
    if not is_finite_type(graph_of(matrix)):
        raise NotFinite("the Coxeter graph is not of finite type: the group is infinite")
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
                    raise InvalidLimit(
                        f"root closure exceeded cap {cap}: the group is finite, "
                        f"raise the cap"
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
    rdesc_bits: np.ndarray   # (order,)  int64, bit g-1 set iff r_g is a right descent
    parent: np.ndarray       # (order,)  int32, -1 for the identity
    first_letter: np.ndarray  # (order,) int16, 0-based generator, -1 for the identity
    system: RootSystem

    @property
    def id_of_identity(self) -> int:
        return 0


def _key_layout(system: RootSystem) -> tuple[int, int]:
    """(bits per root id, int64 words per key) for packing simple-root images.

    Each word holds 63 bits, so keys stay non-negative; an image may straddle
    two words.
    """
    bits = max(1, (2 * system.num_positive - 1).bit_length())
    return bits, -(-system.rank * bits // 63)


def _pack(images: np.ndarray, bits: int, words: int) -> np.ndarray:
    """(rows, n) root ids -> (rows, words) int64 keys, one bit field per image."""
    keys = np.zeros((images.shape[0], words), dtype=np.int64)
    for i in range(images.shape[1]):
        word, shift = divmod(i * bits, 63)
        col = images[:, i].astype(np.int64)
        keys[:, word] |= (col << shift) & _WORD_MASK
        if shift + bits > 63:
            keys[:, word + 1] |= col >> (63 - shift)
    return keys


def _dense_rank(x: np.ndarray) -> np.ndarray:
    """Rank of each value among the distinct values of x (0 for the least)."""
    by_value = np.argsort(x)
    ordered = x[by_value]
    rank = np.empty(len(x), dtype=np.int64)
    rank[by_value[0]] = 0
    rank[by_value[1:]] = np.cumsum(ordered[1:] != ordered[:-1])
    return rank


def _fold(keys: np.ndarray) -> np.ndarray:
    """(rows, words) int64 keys -> (rows,) int64 keys, equal exactly where the rows are.

    A one-word key is its word.  Each further word joins by dense ranks: the
    key so far and the word are both ranks below rows, so rank * rows + rank
    is distinct for distinct pairs and fits in 63 bits for any table in memory.
    """
    key = keys[:, 0]
    rows = len(key)
    for word in range(1, keys.shape[1]):
        key = _dense_rank(key) * rows + _dense_rank(keys[:, word])
    return key


def build_group_table(system: RootSystem, order_guard: int | None = None,
                      audit: bool = True) -> GroupTable:
    """Breadth-first closure from the identity; see the module docstring.

    Level d's down-moves are known before it is searched: every up-move
    r_g * p = w from level d-1 gives r_g * w = p, scattered into w's row of
    the left-multiplication table.  The rest, (g, p) with g not a left
    descent of p, are the up-moves, taken in (generator, parent) order and
    keyed by their simple-root images.  One unstable argsort of the keys
    groups equal keys into runs, one run per new element; the least
    candidate in a run is its first discovery, and new elements are numbered
    in order of first discovery.  Right multiplication and inverses then
    follow level by level from w = r_f * p: w * r_g = r_f * (p * r_g) and
    w^-1 = p^-1 * r_f.
    """
    gp = system.gen_perms
    n = system.rank
    npos = system.num_positive
    guard = effective_order_guard(order_guard)
    bits, words = _key_layout(system)
    bit_of = np.int64(1) << np.arange(n)
    edges = np.arange(n + 1)

    images = np.arange(n, dtype=np.int32)[None, :]  # the identity fixes each simple root
    block = np.full((1, n), -1, dtype=np.int32)  # a level's rows of left; -1 marks an up-move
    lo, hi = 0, 1
    bounds = [0, 1]
    left_blocks, parent_blocks, first_blocks, rdesc_blocks = [], [], [], []
    while True:
        level = hi - lo
        left_blocks.append(block)
        rdesc_blocks.append((images >= npos) @ bit_of)
        up = np.flatnonzero(block.T < 0)  # g*level + b: r_g * (lo + b) is one longer
        if not len(up):
            break
        g, b = np.divmod(up, level)
        cuts = np.searchsorted(up, level * edges).tolist()
        cand = images[b]
        for r in range(n):  # one generator's up-moves at a time, looked up in its permutation
            rows = cand[cuts[r]:cuts[r + 1]]
            np.take(gp[r], rows, out=rows)
        key = _fold(_pack(cand, bits, words))
        by_key = np.argsort(key)
        ordered = key[by_key]
        run_start = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        first_seen = np.minimum.reduceat(by_key, np.flatnonzero(run_start))
        fresh = np.sort(first_seen)  # the new elements' first discoveries, in id order
        if hi + len(fresh) > guard:
            raise OrderGuardExceeded(
                f"group exceeds the order guard {guard} "
                f"(override with {ORDER_GUARD_ENV} or order_guard=)"
            )
        number = np.empty(len(up), dtype=np.int32)
        number[fresh] = np.arange(len(fresh), dtype=np.int32)
        new = np.empty(len(up), dtype=np.int32)  # each up-move's element, counted from hi
        new[by_key] = number[first_seen][np.cumsum(run_start) - 1]
        block[b, g] = hi + new  # completes this level's rows, already in left_blocks
        block = np.full((len(fresh), n), -1, dtype=np.int32)
        block[new, g] = lo + b  # the next level's down-moves: r_g * (hi + new) = lo + b
        parent_blocks.append((lo + b[fresh]).astype(np.int32))
        first_blocks.append(g[fresh].astype(np.int16))
        images = cand[fresh]
        lo, hi = hi, hi + len(fresh)
        bounds.append(hi)

    order = hi
    left = np.concatenate(left_blocks)
    rdesc = np.concatenate(rdesc_blocks)
    parents = np.concatenate([[-1], *parent_blocks]).astype(np.int32)
    firsts = np.concatenate([[-1], *first_blocks]).astype(np.int16)
    del left_blocks, rdesc_blocks, parent_blocks, first_blocks  # free them before the audit
    lengths = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))

    gen_mul = np.empty((order, n), dtype=np.int32)
    inverse = np.empty(order, dtype=np.int32)
    gen_mul[0] = left[0]
    inverse[0] = 0
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        p, f = parents[lo:hi], firsts[lo:hi]
        gen_mul[lo:hi] = left[gen_mul[p], f[:, None]]
        inverse[lo:hi] = gen_mul[inverse[p], f]

    table = GroupTable(
        n=n,
        order=order,
        num_positive_roots=npos,
        gen_mul=gen_mul,
        length=lengths,
        inverse=inverse,
        rdesc_bits=rdesc,
        parent=parents,
        first_letter=firsts,
        system=system,
    )
    if audit:
        _audit(table, left)
    return table


def _audit(table: GroupTable, left: np.ndarray) -> None:
    """Combinatorial certification of a table built from float root data.

    Raises NumericalInstability on the first check that fails.  The checks:

    * each generator acts on the 2N root ids as an involutive permutation,
      and r_i r_j has order exactly m_ij there;
    * each gen_mul column is an involution and r_i r_j r_i ... = r_j r_i r_j ...
      (m_ij letters each side) on every element, so gen_mul is a right action
      of W on the ids.  With involutive columns the braid form is the same
      check as (r_i r_j)^m_ij fixing every element: the inverse of
      r_j r_i r_j ... is the same word reversed, and appending it to
      r_i r_j r_i ... gives (r_i r_j)^m_ij;
    * every element other than the identity is r_f times its parent
      (left[parent, f] = w) and left = inverse o gen_mul o inverse, with
      inverse an involution, so every id is reached from the identity: the
      ids form a transitive W-set;
    * length (the breadth-first depth) steps by exactly 1 under every
      generator and is preserved by inverse;
    * right descents by length agree with the root signs, l(w r_g) < l(w)
      iff w(alpha_g) < 0 (Humphreys, Reflection Groups and Coxeter Groups,
      5.4).  `left_descents` reads rdesc_bits[inverse[w]] (a left descent of
      w is a right descent of w^-1), certified by this check and the checks
      on inverse and left above.

    Together: the table is a transitive W-set whose descents agree with the
    faithful root representation.  Ids are distinct simple-root images, so
    they name distinct elements of W; once the audit passes every later
    computation is exact integer work on the tables.
    """
    system = table.system
    gp = system.gen_perms
    n = table.n
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

    ids = np.arange(table.order, dtype=np.int32)
    cols = np.ascontiguousarray(table.gen_mul.T)
    for g in range(n):
        if not np.array_equal(cols[g][cols[g]], ids):
            raise NumericalInstability(f"right multiplication by r{g + 1} is not an involution")
    for i in range(n):
        for j in range(i + 1, n):
            ij, ji = cols[i], cols[j]  # w -> w r_i r_j r_i ... and w -> w r_j r_i r_j ...
            for k in range(1, system.matrix.rows[i][j]):
                ij = cols[(i, j)[k % 2]][ij]
                ji = cols[(j, i)[k % 2]][ji]
            if not np.array_equal(ij, ji):
                raise NumericalInstability(
                    f"braid relation of r{i + 1} and r{j + 1} fails on the table"
                )

    inverse, lengths = table.inverse, table.length
    if not np.array_equal(inverse[inverse], ids):
        raise NumericalInstability("inverse table is not an involution")
    if not np.array_equal(lengths[inverse], lengths):
        raise NumericalInstability("inverse does not preserve length")
    if not np.array_equal(left[table.parent[1:], table.first_letter[1:]], ids[1:]):
        raise NumericalInstability("an element is not r_f times its parent")
    for g in range(n):
        if not np.array_equal(left[:, g], inverse[cols[g][inverse]]):
            raise NumericalInstability("left multiplication disagrees with inverse and gen_mul")
        steps = lengths[cols[g]] - lengths
        if not (np.abs(steps) == 1).all():
            raise NumericalInstability("generator multiplication does not step length by 1")
        if not np.array_equal((table.rdesc_bits >> g) & 1 == 1, steps < 0):
            raise NumericalInstability("root-sign descent rule disagrees with the length rule")


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
        # bool is an int subclass, but True is not the letter r1
        if (isinstance(letter, bool) or not isinstance(letter, (int, np.integer))
                or not 1 <= letter <= table.n):
            raise BadLetter(f"letter {letter!r} outside 1..{table.n}")
        e = int(table.gen_mul[e, letter - 1])
    return e


def _check_element(table: GroupTable, w: int) -> None:
    """Reject ids outside the table: numpy would wrap a negative one."""
    if not 0 <= w < table.order:
        raise InvalidElement(f"element id {w} outside 0..{table.order - 1}")


def canonical_reduced_word(table: GroupTable, w: int) -> Word:
    """Lexicographically least reduced word (repeatedly take the least left descent)."""
    _check_element(table, w)
    letters: list[int] = []
    while w != 0:
        letters.append(int(table.first_letter[w]) + 1)
        w = int(table.parent[w])
    return tuple(letters)


def left_descents(table: GroupTable, w: int) -> frozenset[int]:
    _check_element(table, w)
    bits = int(table.rdesc_bits[table.inverse[w]])
    return frozenset(g + 1 for g in range(table.n) if bits >> g & 1)


def left_multiply_generator(table: GroupTable, g: int, w: int) -> int:
    """r_g * w via (w^-1 * r_g)^-1; generators are involutions."""
    if not 1 <= g <= table.n:
        raise BadLetter(f"generator {g} outside 1..{table.n}")
    _check_element(table, w)
    return int(table.inverse[table.gen_mul[table.inverse[w], g - 1]])


def is_involution(table: GroupTable, w: int) -> bool:
    _check_element(table, w)
    return w != 0 and int(table.inverse[w]) == w


def multiply(table: GroupTable, u: int, v: int) -> int:
    _check_element(table, u)
    e = u
    for letter in canonical_reduced_word(table, v):
        e = int(table.gen_mul[e, letter - 1])
    return e


def element_order(table: GroupTable, w: int) -> int:
    _check_element(table, w)
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
