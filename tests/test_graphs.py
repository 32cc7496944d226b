import pytest

from coxanc import (
    CoxeterGraph,
    build_matrix,
    chromatic_number,
    extend_to_maximal_independent,
    graph_of,
    is_bipartite,
    longest_path_order,
    parse_spec,
)
from coxanc.errors import NotIndependent, TooLarge
from helpers import brute_colorable, brute_longest_path


def g(descriptor):
    return graph_of(build_matrix(parse_spec(descriptor)))


TRIANGLE = g("U3")
A3 = g("A3")
D4 = g("D4")
EDGELESS = g("A1xA1xA1")


def test_chromatic_examples():
    assert chromatic_number(EDGELESS)[0] == 1
    for tree in ("A2", "A5", "B4", "D5", "E6", "H4"):
        assert chromatic_number(g(tree))[0] == 2
    # oracle: a triangle admits no proper 2-coloring but a 3-coloring exists
    assert not brute_colorable(TRIANGLE, 2)
    assert brute_colorable(TRIANGLE, 3)
    assert chromatic_number(TRIANGLE)[0] == 3


@pytest.mark.parametrize("descriptor", ["A1", "A4", "D4", "U3", "A2xA2", "E7"])
def test_chromatic_witness_is_proper_and_tight(descriptor):
    graph = g(descriptor)
    k, classes = chromatic_number(graph)
    assert all(classes)  # every color class used
    assert len(classes) == k
    covered = set()
    for cls in classes:
        for v in cls:
            assert not graph.adjacency[v] & cls
        covered |= cls
    assert covered == set(graph.vertices)
    if k > 1:
        assert not brute_colorable(graph, k - 1)


def test_longest_path_examples():
    for n in (1, 2, 5, 7):
        assert longest_path_order(g(f"A{n}")) == n
    assert longest_path_order(D4) == 3 == brute_longest_path(D4)
    assert longest_path_order(EDGELESS) == 1
    assert longest_path_order(g("E6")) == 5 == brute_longest_path(g("E6"))


@pytest.mark.parametrize("descriptor", ["A1", "A3", "D4", "D5", "U3", "A2xA2", "E6"])
def test_longest_path_against_oracle(descriptor):
    graph = g(descriptor)
    assert longest_path_order(graph) == brute_longest_path(graph)
    assert longest_path_order(graph) <= graph.rank


def _random_graph(seed):
    """Rank 0-8, distinct labels from 1-12 (not always contiguous), any density."""
    import random

    rng = random.Random(seed)
    vertices = tuple(sorted(rng.sample(range(1, 13), rng.randrange(0, 9))))
    density = rng.random()
    edges = tuple(
        (i, j, rng.choice([3, 4, 5, 6, 0]))
        for i in vertices
        for j in vertices
        if i < j and rng.random() < density
    )
    return CoxeterGraph(vertices=vertices, edges=edges)


@pytest.mark.parametrize("seed", range(40))
def test_longest_path_on_random_graphs(seed):
    graph = _random_graph(seed)
    assert longest_path_order(graph) == brute_longest_path(graph)


def test_hamiltonian_iff_path_equals_order():
    assert longest_path_order(A3) == A3.rank  # path graphs are Hamiltonian
    assert longest_path_order(D4) < D4.rank


def test_bipartite():
    assert is_bipartite(A3)
    assert is_bipartite(EDGELESS)
    assert is_bipartite(g("D6"))
    assert not is_bipartite(TRIANGLE)
    assert is_bipartite(g("A1"))


def test_extend_to_maximal_independent():
    assert extend_to_maximal_independent(A3, {1}) == {1, 3}
    assert extend_to_maximal_independent(TRIANGLE, set()) == {1}
    # fixed point on an already-maximal set
    assert extend_to_maximal_independent(A3, {1, 3}) == {1, 3}
    with pytest.raises(NotIndependent):
        extend_to_maximal_independent(A3, {1, 2})
    with pytest.raises(ValueError):
        extend_to_maximal_independent(A3, {9})


@pytest.mark.parametrize("descriptor,seed", [("A5", {2}), ("D4", {1}), ("E6", {4}), ("U3", {2})])
def test_maximal_independent_is_maximal(descriptor, seed):
    graph = g(descriptor)
    result = extend_to_maximal_independent(graph, seed)
    assert seed <= result
    for v in result:
        assert not graph.adjacency[v] & result
    # no vertex outside can be added: brute-force maximality check
    for v in set(graph.vertices) - result:
        assert graph.adjacency[v] & result


def test_size_guard():
    big = CoxeterGraph(vertices=tuple(range(1, 18)), edges=())
    with pytest.raises(TooLarge):
        chromatic_number(big)
    with pytest.raises(TooLarge):
        longest_path_order(big)
