"""Graph-level analysis of Coxeter elements.

A Coxeter element is a product of all simple reflections, each appearing
once.  Two orderings give the same element exactly when they induce the same
orientation of the Coxeter graph (only commuting swaps are available; J.-Y.
Shi, *The enumeration of Coxeter elements*, 1997).  The classes are
enumerated directly, each once through its lexicographically least ordering,
by a normal-form search (`_classes`) rather than over all n! orderings.
Everything here works on (graph, ordering) alone -- no group table -- and
therefore applies to infinite groups as well.

The search keeps generators as bits of machine words.  An ordering is a
least one exactly when each generator exceeds every generator placed after
its last placed neighbour (Anisimov-Knuth), so the set of generators that
may come next is one mask, updated on placing v as

    allowed' = ((allowed & above(v)) | nbr(v)) & unplaced'

Placing v raises that bound to v for every non-neighbour, which therefore
stays placeable only if it was and exceeds v, and clears the bound of every
neighbour, which becomes placeable.  This is the bound test itself, kept up
to date in a few word operations per search node instead of a pass over the
unplaced generators.

The layer structure of the orientation (vertices by longest incoming
directed path) is the graph-side ancestor decomposition: layer 1 is the
descent set, each layer is an independent set, and the number of layers is
the involution length of the element.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import CoxeterGraph
from .errors import TooLarge
from .graphs import chromatic_number, extend_to_maximal_independent, neighbour_masks

ENUMERATION_GUARD = 9  # U_n has n! classes; 9! = 362,880


@dataclass(frozen=True)
class CoxeterElementWord:
    """An ordering of the generators: the order of appearance in the product."""

    ordering: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.ordering)) != len(self.ordering):
            raise ValueError("ordering repeats a generator")


@dataclass(frozen=True)
class EdgeOrientation:
    """Each graph edge directed from the earlier to the later generator."""

    graph: CoxeterGraph
    arcs: tuple[tuple[int, int], ...]  # (tail, head), aligned with graph.edges


def _ordering_of(c) -> tuple[int, ...]:
    if isinstance(c, CoxeterElementWord):
        return c.ordering
    return tuple(c)


def orientation_of(graph: CoxeterGraph, c) -> EdgeOrientation:
    ordering = _ordering_of(c)
    if set(ordering) != set(graph.vertices) or len(ordering) != graph.rank:
        raise ValueError("ordering is not a permutation of the graph vertices")
    pos = {v: k for k, v in enumerate(ordering)}
    arcs = tuple(
        (i, j) if pos[i] < pos[j] else (j, i) for (i, j, _) in graph.edges
    )
    return EdgeOrientation(graph=graph, arcs=arcs)


def coxeter_descents(o: EdgeOrientation) -> frozenset[int]:
    """Source vertices of the orientation: the left descent set of the element."""
    heads = {h for (_, h) in o.arcs}
    return frozenset(v for v in o.graph.vertices if v not in heads)


def _depths(o: EdgeOrientation) -> dict[int, int]:
    """Longest incoming directed path (vertex count) per vertex."""
    in_nbrs: dict[int, list[int]] = {v: [] for v in o.graph.vertices}
    for t, h in o.arcs:
        in_nbrs[h].append(t)
    depth: dict[int, int] = {}

    def d(v: int) -> int:
        if v not in depth:
            depth[v] = 1 + max((d(u) for u in in_nbrs[v]), default=0)
        return depth[v]

    for v in o.graph.vertices:
        d(v)
    return depth


def coxeter_ancestor_decomposition(o: EdgeOrientation) -> list[frozenset[int]]:
    """Layer i holds the vertices whose longest incoming path has exactly i vertices.

    Layers are independent sets partitioning the vertices; layer 1 equals the
    descent set.
    """
    depth = _depths(o)
    layers = [set() for _ in range(max(depth.values(), default=0))]
    for v, dv in depth.items():
        layers[dv - 1].add(v)
    return [frozenset(layer) for layer in layers]


def path_length(o: EdgeOrientation) -> int:
    depth = _depths(o)
    return max(depth.values(), default=0)


def min_ilen_coxeter_element(graph: CoxeterGraph) -> tuple[CoxeterElementWord, int]:
    """An ordering whose involution length meets the chromatic-number minimum.

    Recursive peeling: take the first color class of an exact coloring, grow
    it to an inclusion-maximal independent set, emit it (ascending), recurse
    on the rest.  Each peel lowers the chromatic number by exactly one.
    """
    ordering: list[int] = []
    remaining = graph
    while remaining.vertices:
        _, classes = chromatic_number(remaining)
        layer = extend_to_maximal_independent(remaining, classes[0])
        ordering.extend(sorted(layer))
        remaining = remaining.induced(frozenset(remaining.vertices) - layer)
    word = CoxeterElementWord(tuple(ordering))
    if not graph.vertices:
        return word, 0
    return word, path_length(orientation_of(graph, word))


def _classes(graph: CoxeterGraph, visit) -> None:
    """Call visit(ordering, ilen) for each Coxeter element, in lexicographic order.

    `ordering` is the least ordering of the element's commutation class (a
    list that is reused: copy it to keep it) and `ilen` its involution length.
    Depth-first search placing generators in ascending order.  v may be placed
    only if it exceeds every generator placed after its last placed neighbour,
    the test for the lexicographic normal form of a trace (Anisimov-Knuth,
    *Inhomogeneous sorting*, 1979), so each commutation class is reached once,
    through its least ordering.

    Generator k of the sorted vertices is bit k.  A node holds the mask of
    unplaced generators, the mask `allowed` of those passing the test, and one
    mask per depth layer of the placed ones.  Placing v gives

        allowed' = ((allowed & above(v)) | nbr(v)) & unplaced'

    because placing v lifts the bound of every non-neighbour to v, so it stays
    placeable only if it was and exceeds v, and resets the bound of every
    neighbour, which becomes placeable.  The candidates of a node are tried in
    ascending order, so `allowed & above(v)` is exactly the candidates not yet
    tried.  The depth of v is one more than the deepest layer holding a
    neighbour, and the involution length is the number of layers.
    """
    labels = tuple(sorted(graph.vertices))
    if not labels:
        visit([], 0)
        return
    everything = (1 << len(labels)) - 1
    _extend(everything, everything, [], [], labels, neighbour_masks(graph), visit)


def _extend(unplaced, allowed, layers, ordering, labels, nbr, visit) -> None:
    """The subtree of one `_classes` node; `layers` and `ordering` are restored on return.

    A module-level function, not a closure: a nested function that calls
    itself is a reference cycle, which keeps the caller's results alive until
    the cycle collector runs.
    """
    ilen = len(layers)
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        k = low.bit_length() - 1
        reach = nbr[k]
        d = ilen  # ends as the depth of the deepest placed neighbour
        while d and not layers[d - 1] & reach:
            d -= 1
        rest = unplaced ^ low
        ordering.append(labels[k])
        if not rest:
            visit(ordering, ilen if d < ilen else ilen + 1)
        elif d == ilen:
            layers.append(low)
            _extend(rest, allowed | (reach & rest), layers, ordering, labels, nbr, visit)
            layers.pop()
        else:
            layers[d] ^= low
            _extend(rest, allowed | (reach & rest), layers, ordering, labels, nbr, visit)
            layers[d] ^= low
        ordering.pop()


def _check_enumeration_guard(graph: CoxeterGraph):
    if graph.rank > ENUMERATION_GUARD:
        raise TooLarge(
            f"rank {graph.rank} exceeds the ordering-enumeration guard {ENUMERATION_GUARD}"
        )


def ilen_spectrum(graph: CoxeterGraph) -> dict[int, int]:
    """Involution length -> number of distinct Coxeter elements attaining it.

    One pass over the commutation classes (see `_classes`).  The minimum key
    is the chromatic number and the maximum key is the longest-path order of
    the graph.
    """
    _check_enumeration_guard(graph)
    tally = [0] * (graph.rank + 1)

    def count(_ordering, ilen):
        tally[ilen] += 1

    _classes(graph, count)
    return {ilen: n for ilen, n in enumerate(tally) if n}


def coxeter_element_classes(graph: CoxeterGraph) -> list[CoxeterElementWord]:
    """One representative ordering per distinct Coxeter element.

    Representatives are the lexicographically least ordering of each
    commutation class, listed in lexicographic order.
    """
    _check_enumeration_guard(graph)
    words: list[CoxeterElementWord] = []
    append = words.append
    _classes(graph, lambda ordering, _ilen: append(CoxeterElementWord(tuple(ordering))))
    return words
