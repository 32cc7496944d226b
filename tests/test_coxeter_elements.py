import gc
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxanc import (
    CoxeterElementWord,
    CoxeterGraph,
    ancestor_decomposition,
    build_matrix,
    canonical_reduced_word,
    chromatic_number,
    coxeter_ancestor_decomposition,
    coxeter_descents,
    coxeter_element_classes,
    element_from_word,
    element_order,
    graph_of,
    ilen_spectrum,
    involution_length,
    left_descents,
    longest_path_order,
    min_ilen_coxeter_element,
    orientation_of,
    parse_spec,
    path_length,
)
from coxanc.errors import TooLarge
from helpers import brute_coxeter_classes, classical_coxeter_number


def g(descriptor):
    return graph_of(build_matrix(parse_spec(descriptor)))


A3 = g("A3")
A6 = g("A6")
D4 = g("D4")
U3 = g("U3")
EDGELESS = g("A1xA1xA1")


def test_orientation_examples():
    o = orientation_of(A3, (1, 2, 3))
    assert o.arcs == ((1, 2), (2, 3))
    o = orientation_of(A3, (1, 3, 2))
    assert o.arcs == ((1, 2), (3, 2))
    assert orientation_of(EDGELESS, (2, 1, 3)).arcs == ()
    with pytest.raises(ValueError):
        orientation_of(A3, (1, 2))
    with pytest.raises(ValueError):
        CoxeterElementWord((1, 1, 2))


def test_coxeter_descents():
    assert coxeter_descents(orientation_of(A6, (6, 3, 2, 1, 4, 5))) == {3, 6}
    assert coxeter_descents(orientation_of(A3, (1, 2, 3))) == {1}
    assert coxeter_descents(orientation_of(EDGELESS, (1, 2, 3))) == {1, 2, 3}


def test_layers():
    layers = coxeter_ancestor_decomposition(orientation_of(A6, (6, 3, 2, 1, 4, 5)))
    assert layers == [{3, 6}, {2, 4}, {1, 5}]
    layers = coxeter_ancestor_decomposition(orientation_of(D4, (1, 2, 3, 4)))
    assert layers == [{1}, {2}, {3, 4}]
    assert coxeter_ancestor_decomposition(orientation_of(EDGELESS, (1, 2, 3))) == [{1, 2, 3}]


def test_path_length():
    for n in (2, 4, 6):
        graph = g(f"A{n}")
        assert path_length(orientation_of(graph, tuple(range(1, n + 1)))) == n
    assert path_length(orientation_of(A6, (6, 3, 2, 1, 4, 5))) == 3
    assert path_length(orientation_of(EDGELESS, (1, 2, 3))) == 1


@pytest.mark.parametrize(
    "descriptor,expected",
    [("A5", 2), ("B4", 2), ("D5", 2), ("E6", 2), ("A1xA1", 1), ("U3", 3)],
)
def test_min_ilen(descriptor, expected, group):
    graph = g(descriptor)
    word, ilen = min_ilen_coxeter_element(graph)
    assert ilen == expected == chromatic_number(graph)[0]
    assert sorted(word.ordering) == sorted(graph.vertices)
    assert path_length(orientation_of(graph, word)) == ilen


def test_spectrum_examples():
    assert ilen_spectrum(g("A2")) == {2: 2}
    assert ilen_spectrum(g("A1xA1")) == {1: 1}
    d4 = ilen_spectrum(D4)
    assert min(d4) == 2 and max(d4) == 3


@pytest.mark.parametrize("descriptor", ["A1", "A4", "B3", "D4", "E6", "H4", "I2(9)", "A2xA2", "U3"])
def test_spectrum_bounds(descriptor):
    graph = g(descriptor)
    spectrum = ilen_spectrum(graph)
    assert min(spectrum) == chromatic_number(graph)[0]
    assert max(spectrum) == longest_path_order(graph)


def test_spectrum_guard():
    with pytest.raises(TooLarge):
        ilen_spectrum(g("A10"))


def test_layer_one_is_descents_and_layers_are_independent():
    for graph in (A6, D4, U3):
        for perm in itertools.permutations(graph.vertices):
            o = orientation_of(graph, perm)
            layers = coxeter_ancestor_decomposition(o)
            assert layers[0] == coxeter_descents(o)
            assert len(layers) == path_length(o)
            seen = set()
            for layer in layers:
                for v in layer:
                    assert not graph.adjacency[v] & layer
                seen |= layer
            assert seen == set(graph.vertices)


def test_orientation_dedup_matches_group_elements(group):
    """Orderings give equal orientations iff they evaluate to the same element."""
    for descriptor in ("A3", "B3"):
        graph = g(descriptor)
        table = group(descriptor)
        by_orientation = {}
        for perm in itertools.permutations(graph.vertices):
            key = orientation_of(graph, perm).arcs
            e = element_from_word(table, perm)
            by_orientation.setdefault(key, set()).add(e)
        elements = [v for v in by_orientation.values()]
        assert all(len(v) == 1 for v in elements)
        flat = [next(iter(v)) for v in elements]
        assert len(set(flat)) == len(flat)


@pytest.mark.parametrize("descriptor", ["A3", "B3", "D4", "I2(7)", "A1xA2", "H3"])
def test_cross_engine_equivalence(descriptor, group):
    """Graph layers = table ancestor factors, and path length = ilen."""
    graph = g(descriptor)
    table = group(descriptor)
    for word in coxeter_element_classes(graph):
        o = orientation_of(graph, word)
        layers = coxeter_ancestor_decomposition(o)
        e = element_from_word(table, word.ordering)
        assert left_descents(table, e) == coxeter_descents(o)
        dec = ancestor_decomposition(table, e)
        factor_layers = [
            frozenset(canonical_reduced_word(table, f)) for f in dec.factors
        ]
        assert factor_layers == layers
        assert involution_length(table, e) == path_length(o)


def test_extremes_on_random_graphs():
    """Spectrum extremes match the exact graph algorithms on arbitrary graphs."""
    import random

    from coxanc import CoxeterGraph

    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 8)
        vertices = tuple(range(1, n + 1))
        edges = tuple(
            (i, j, rng.choice([3, 4, 5, 0]))
            for i in vertices
            for j in vertices
            if i < j and rng.random() < 0.4
        )
        graph = CoxeterGraph(vertices=vertices, edges=edges)
        spectrum = ilen_spectrum(graph)
        chi = chromatic_number(graph)[0]
        assert min(spectrum) == chi
        assert max(spectrum) == longest_path_order(graph)
        word, ilen = min_ilen_coxeter_element(graph)
        assert ilen == chi
        assert path_length(orientation_of(graph, word)) == chi


def _random_graph(seed):
    import random

    from coxanc import CoxeterGraph

    rng = random.Random(seed)
    n = rng.randrange(1, 8)
    density = rng.random()
    vertices = tuple(range(1, n + 1))
    edges = tuple(
        (i, j, rng.choice([3, 4, 5, 0]))
        for i in vertices
        for j in vertices
        if i < j and rng.random() < density
    )
    return CoxeterGraph(vertices=vertices, edges=edges)


@pytest.mark.parametrize(
    "graph",
    [_random_graph(seed) for seed in range(40)] + [g(d) for d in ("A8", "D8", "E8", "U6")],
)
def test_classes_match_permutation_oracle(graph):
    """Class list (order included) and spectrum equal the n!-ordering enumeration."""
    brute = brute_coxeter_classes(graph)
    assert coxeter_element_classes(graph) == [CoxeterElementWord(p) for p, _ in brute]
    spectrum = {}
    for _, d in brute:
        spectrum[d] = spectrum.get(d, 0) + 1
    assert ilen_spectrum(graph) == dict(sorted(spectrum.items()))


@st.composite
def labelled_graphs(draw):
    """Rank 0-7 on distinct labels from 1-12, bonds 3, 4, 5, 6 or infinite, any density."""
    vertices = tuple(sorted(draw(st.sets(st.integers(1, 12), max_size=7))))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(
        (i, j, draw(st.sampled_from([3, 4, 5, 6, 0])))
        for (i, j), keep in zip(pairs, chosen)
        if keep
    )
    return CoxeterGraph(vertices=vertices, edges=edges)


@given(labelled_graphs())
def test_classes_and_spectrum_match_oracle_on_labelled_graphs(graph):
    test_classes_match_permutation_oracle(graph)


def test_empty_graph_has_one_class():
    empty = CoxeterGraph(vertices=(), edges=())
    assert ilen_spectrum(empty) == {0: 1}
    assert coxeter_element_classes(empty) == [CoxeterElementWord(())]


def test_class_search_leaves_no_garbage_cycle():
    """The search frees everything by reference counting, with the cycle collector off."""
    graphs = [D4, g("U5")]
    gc.collect()
    gc.disable()
    try:
        for graph in graphs:
            ilen_spectrum(graph)
            assert gc.collect() == 0
            coxeter_element_classes(graph)
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("descriptor", ["A3", "B3", "H3", "I2(8)", "D4"])
def test_coxeter_elements_share_one_order(descriptor, group):
    graph = g(descriptor)
    table = group(descriptor)
    orders = {
        element_order(table, element_from_word(table, word.ordering))
        for word in coxeter_element_classes(graph)
    }
    assert orders == {classical_coxeter_number(parse_spec(descriptor).components[0])}
