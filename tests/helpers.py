"""Independent oracles and classical reference data used across the tests.

Everything here is deliberately computed by a different route than the
library takes: closed-form order formulas, a group table built from full
root permutations, Cayley-graph BFS over gen_mul, whole-group prefix scans,
exhaustive path/coloring/ordering enumeration, and palindrome tests of every
prefix length for universal-group words.
"""
import math
from collections import deque
from itertools import permutations

import numpy as np


def classical_order(tag):
    """Textbook group orders for the irreducible component tags."""
    if tag.startswith("I2("):
        return 2 * int(tag[3:-1])
    letter, r = tag[0], int(tag[1:])
    if letter == "A":
        return math.factorial(r + 1)
    if letter == "B":
        return 2**r * math.factorial(r)
    if letter == "D":
        return 2 ** (r - 1) * math.factorial(r)
    if letter == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[r]
    if letter == "F":
        return 1152
    if letter == "H":
        return {3: 120, 4: 14400}[r]
    raise ValueError(tag)


def classical_positive_roots(tag):
    if tag.startswith("I2("):
        return int(tag[3:-1])
    letter, r = tag[0], int(tag[1:])
    return {
        "A": r * (r + 1) // 2,
        "B": r * r,
        "D": r * (r - 1),
        "E": {6: 36, 7: 63, 8: 120}.get(r),
        "F": 24,
        "H": {3: 15, 4: 60}.get(r),
    }[letter]


def classical_coxeter_number(tag):
    if tag.startswith("I2("):
        return int(tag[3:-1])
    letter, r = tag[0], int(tag[1:])
    return {
        "A": r + 1,
        "B": 2 * r,
        "D": 2 * (r - 1),
        "E": {6: 12, 7: 18, 8: 30}.get(r),
        "F": 12,
        "H": {3: 10, 4: 30}.get(r),
    }[letter]


def spec_order(spec):
    out = 1
    for tag in spec.components:
        out *= classical_order(tag)
    return out


def cayley_bfs_lengths(table):
    """Graph distance from the identity in the right-multiplication Cayley graph."""
    dist = [-1] * table.order
    dist[0] = 0
    queue = deque([0])
    while queue:
        w = queue.popleft()
        for g in range(table.n):
            v = int(table.gen_mul[w, g])
            if dist[v] < 0:
                dist[v] = dist[w] + 1
                queue.append(v)
    return dist


def left_tables(table):
    """lgs[g][w] = r_{g+1} * w, derived from inverse and gen_mul only."""
    inv = table.inverse
    return [inv[table.gen_mul[inv, g]] for g in range(table.n)]


def left_action_of(table, lgs, word):
    """Array arr with arr[u] = w^-1 * u where word is the reduced word of w."""
    arr = lgs[word[0] - 1]
    for letter in word[1:]:
        arr = lgs[letter - 1][arr]
    return arr


def brute_prefix_set(table, lgs, w):
    """{u : l(u) + l(u^-1 w) = l(w)} by scanning the whole group.

    Uses l(u^-1 w) = l(w^-1 u), so one composed left-action array per w
    suffices.  Independent of weak_order's level-by-level search of [1, w]:
    it tests every element of the group, not just the ones reached from
    below.
    """
    from coxanc import canonical_reduced_word

    if w == 0:
        return frozenset({0})
    word = canonical_reduced_word(table, w)
    arr = left_action_of(table, lgs, word)  # arr[u] = w^-1 u
    lengths = table.length
    mask = lengths + lengths[arr] == int(lengths[w])
    return frozenset(int(u) for u in np.nonzero(mask)[0])


def brute_longest_path(graph):
    """Longest simple path by checking every injective vertex sequence."""
    adj = graph.adjacency
    best = 1 if graph.vertices else 0
    for r in range(2, graph.rank + 1):
        for seq in permutations(graph.vertices, r):
            if all(seq[i + 1] in adj[seq[i]] for i in range(r - 1)):
                best = max(best, r)
    return best


def brute_colorable(graph, k):
    """Existence of a proper k-coloring by checking all assignments."""
    verts = list(graph.vertices)
    adj = graph.adjacency
    from itertools import product

    for assignment in product(range(k), repeat=len(verts)):
        colors = dict(zip(verts, assignment))
        if all(colors[i] != colors[j] for (i, j, _) in graph.edges):
            return True
    return not verts


def brute_coxeter_classes(graph):
    """(least ordering, path length) per acyclic orientation, over all n! orderings.

    Orderings are tried in lexicographic order and deduplicated by the
    orientation they induce, so the first one seen is the least of its class.
    The path length is the longest directed path (vertex count), computed
    along the ordering, which is a topological order of the orientation.
    """
    adj = graph.adjacency
    seen = set()
    out = []
    for perm in permutations(sorted(graph.vertices)):
        pos = {v: k for k, v in enumerate(perm)}
        key = tuple(pos[i] < pos[j] for (i, j, _) in graph.edges)
        if key in seen:
            continue
        seen.add(key)
        depth = {}
        for v in perm:
            depth[v] = 1 + max((depth[u] for u in adj[v] if u in depth), default=0)
        out.append((perm, max(depth.values(), default=0)))
    return out


def brute_ug_involution_prefixes(w):
    """Palindromic nonempty initial segments of a reduced word, by testing every length."""
    return [w[:i] for i in range(1, len(w) + 1) if w[:i] == w[i - 1 :: -1]]


def brute_ug_decomposition(w):
    """Factors of a reduced word, peeling the longest palindromic prefix each time.

    Every candidate length is tried from the top down, so this is O(n^3).
    """
    factors = []
    cur = tuple(w)
    while cur:
        for i in range(len(cur), 0, -1):
            if cur[:i] == cur[i - 1 :: -1]:
                factors.append(cur[:i])
                cur = cur[i:]
                break
    return tuple(factors)


def all_reduced_words(table, w):
    """Every reduced word of w, by recursing over left descents."""
    from coxanc import left_descents, left_multiply_generator

    if w == 0:
        return [()]
    out = []
    for g in sorted(left_descents(table, w)):
        for rest in all_reduced_words(table, left_multiply_generator(table, g, w)):
            out.append((g,) + rest)
    return out


def reference_group_table(system):
    """Group table from full root permutations and dict lookups; small groups only.

    Every element is its permutation of all 2N root ids, found by breadth-first
    left multiplication and deduplicated by the images of the simple roots in a
    dict, in (generator, parent) order within each length level.  Inverses come
    from inverting the permutations, right multiplication from composing them,
    and right descents from the length rule.  Returns a GroupTable with the
    same ids as engine.build_group_table.
    """
    from coxanc.engine import GroupTable

    gp = system.gen_perms
    n = system.rank
    npos = system.num_positive

    ident = np.arange(2 * npos, dtype=np.int32)
    seen = {ident[:n].tobytes(): 0}
    blocks = [ident[None, :]]
    length, parent, first = [0], [-1], [-1]
    level_ids = [0]
    level_block = blocks[0]
    depth = 0
    while level_ids:
        depth += 1
        nxt_ids, nxt_blocks = [], []
        for g in range(n):
            cand = gp[g][level_block]  # left multiplication by r_g, row per parent
            fresh = []
            for b in range(cand.shape[0]):
                key = cand[b, :n].tobytes()
                if key not in seen:
                    seen[key] = len(length)
                    nxt_ids.append(len(length))
                    length.append(depth)
                    parent.append(level_ids[b])
                    first.append(g)
                    fresh.append(b)
            if fresh:
                nxt_blocks.append(cand[np.array(fresh)])
        if nxt_ids:
            level_block = np.vstack(nxt_blocks)
            blocks.append(level_block)
        level_ids = nxt_ids

    perms = np.vstack(blocks)
    order = perms.shape[0]
    lengths = np.array(length, dtype=np.int32)
    inv_perms = np.argsort(perms, axis=1)
    inverse = np.array(
        [seen[inv_perms[w, :n].astype(np.int32).tobytes()] for w in range(order)],
        dtype=np.int32,
    )
    gen_mul = np.empty((order, n), dtype=np.int32)
    for g in range(n):
        comp = perms[:, gp[g]]  # (w * r_g) on roots
        gen_mul[:, g] = [seen[comp[w, :n].tobytes()] for w in range(order)]
    rdesc = np.zeros(order, dtype=np.int64)
    for g in range(n):
        rdesc |= (lengths[gen_mul[:, g]] < lengths).astype(np.int64) << g
    return GroupTable(
        n=n,
        order=order,
        num_positive_roots=npos,
        gen_mul=gen_mul,
        length=lengths,
        inverse=inverse,
        ldesc_bits=rdesc[inverse],
        rdesc_bits=rdesc,
        parent=np.array(parent, dtype=np.int32),
        first_letter=np.array(first, dtype=np.int16),
        system=system,
    )
