"""Exact small-graph algorithms: coloring, longest path, bipartiteness, independence.

Everything here is exhaustive search behind a 16-vertex guard; the graphs in
scope have at most 8-10 vertices and exactness is mandatory.  Tie-breaking is
ascending vertex index throughout, so every witness is deterministic.
"""
from __future__ import annotations

from .core import CoxeterGraph
from .errors import NotIndependent, TooLarge

SIZE_GUARD = 16

VertexSet = frozenset  # alias: vertex sets are plain frozensets of generator indices


def _check_size(g: CoxeterGraph):
    if g.rank > SIZE_GUARD:
        raise TooLarge(f"graph has {g.rank} vertices, guard is {SIZE_GUARD}")


def neighbour_masks(g: CoxeterGraph) -> list[int]:
    """Entry k is the neighbour set of the k-th smallest vertex, with that vertex as bit k."""
    verts = sorted(g.vertices)
    bit = {v: 1 << k for k, v in enumerate(verts)}
    return [sum(bit[u] for u in g.adjacency[v]) for v in verts]


def chromatic_number(g: CoxeterGraph) -> tuple[int, list[frozenset[int]]]:
    """Exact chromatic number with one witness coloring as a list of color classes.

    Iterative deepening: try k = 1, 2, ... with backtracking.  Vertices are
    colored in ascending order and a new color is only opened once all earlier
    ones failed, so the witness is the lexicographically first proper coloring.
    """
    _check_size(g)
    verts = sorted(g.vertices)
    if not verts:
        return 0, []
    adj = g.adjacency
    for k in range(1, len(verts) + 1):
        colors: dict[int, int] = {}
        if _color(verts, adj, colors, 0, k):
            classes = [
                frozenset(v for v in verts if colors[v] == c) for c in range(k)
            ]
            return k, classes
    raise AssertionError("unreachable: n colors always suffice")


def _color(verts, adj, colors, i, k) -> bool:
    if i == len(verts):
        return True
    v = verts[i]
    # symmetry break: never skip a color index
    limit = min(k, max(colors.values(), default=-1) + 2)
    for c in range(limit):
        if all(colors.get(u) != c for u in adj[v]):
            colors[v] = c
            if _color(verts, adj, colors, i + 1, k):
                return True
            del colors[v]
    return False


def longest_path_order(g: CoxeterGraph) -> int:
    """Maximum number of vertices on a simple path, by exhaustive DFS from every start.

    Vertex k of the sorted vertices is bit k, so the path so far is one mask
    and the next steps are the neighbour mask minus it.  A search stops once
    its path takes in every vertex, since no path is longer.
    """
    _check_size(g)
    nbr = neighbour_masks(g)
    everything = (1 << len(nbr)) - 1
    best = 0
    for k in range(len(nbr)):
        best = max(best, _longest_from(k, everything ^ (1 << k), nbr))
        if best == len(nbr):
            break
    return best


def _longest_from(k: int, unvisited: int, nbr: list[int]) -> int:
    """Vertices on the longest simple path that starts at k and goes on through `unvisited`."""
    best = 0
    free = nbr[k] & unvisited
    while free:
        low = free & -free
        free ^= low
        best = max(best, _longest_from(low.bit_length() - 1, unvisited ^ low, nbr))
        if best == unvisited.bit_count():
            break
    return best + 1


def is_bipartite(g: CoxeterGraph) -> bool:
    color: dict[int, int] = {}
    adj = g.adjacency
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def extend_to_maximal_independent(g: CoxeterGraph, s) -> frozenset[int]:
    """Grow an independent set to an inclusion-maximal one, adding vertices in ascending order."""
    members = frozenset(s)
    if not members <= frozenset(g.vertices):
        raise ValueError("seed set contains vertices outside the graph")
    adj = g.adjacency
    for v in members:
        if adj[v] & members:
            raise NotIndependent(f"seed set has an internal edge at vertex {v}")
    result = set(members)
    for v in sorted(g.vertices):
        if v not in result and not adj[v] & result:
            result.add(v)
    return frozenset(result)
