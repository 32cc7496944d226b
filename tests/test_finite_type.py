"""Finite type from the Coxeter graph, checked against positive definiteness.

A Coxeter group is finite exactly when the cosine form B(a_i, a_j) =
-cos(pi / m_ij) is positive definite.  Over every matrix of rank <= 4 with
bonds in {2, 3, 4, 5, 6, inf} the smallest eigenvalue is at least 0.0055 when
the form is positive definite and at most about 4.4e-16 otherwise, so the
threshold 1e-9 separates the two cleanly.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxanc import (
    INFINITY,
    CoxeterGraph,
    CoxeterMatrix,
    ancestor_scan,
    ancestors,
    build_group_table,
    build_matrix,
    build_root_system,
    graph_of,
    is_finite_type,
    multiply,
    parse_spec,
)
from coxanc.engine import _cosine_matrix
from coxanc.errors import NotFinite

BONDS = [2, 3, 4, 5, 6, INFINITY]
# Half the bonds commute, so that the rare finite rank-3 and rank-4 trees
# (A3, B3, H3, A4, B4, D4, F4, H4, ...) are drawn often enough.
bonds = st.one_of(st.just(2), st.sampled_from(BONDS))


@st.composite
def coxeter_matrices(draw):
    n = draw(st.integers(1, 4))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(bonds)
    return CoxeterMatrix.from_rows(rows)


def positive_definite(matrix):
    return np.linalg.eigvalsh(_cosine_matrix(matrix)).min() > 1e-9


def path(*labels):
    edges = tuple((k, k + 1, m) for k, m in enumerate(labels, start=1))
    return CoxeterGraph(vertices=tuple(range(1, len(labels) + 2)), edges=edges)


def star(*arms):
    """All-3 tree: arms of the given vertex counts leaving vertex 1."""
    edges, nxt = [], 2
    for arm in arms:
        prev = 1
        for _ in range(arm):
            edges.append((prev, nxt, 3))
            prev, nxt = nxt, nxt + 1
    return CoxeterGraph(vertices=tuple(range(1, nxt)), edges=tuple(sorted(edges)))


def spec(descriptor):
    return graph_of(build_matrix(parse_spec(descriptor)))


@pytest.mark.parametrize(
    "graph,finite",
    [(spec(d), True) for d in ("A9", "B9", "D9", "E8", "F4", "H4", "I2(100000)", "A2xH3xI2(7)")]
    + [(spec(d), False) for d in ("U2", "I2(inf)", "A2xU3")]
    + [
        (path(3, 4, 3), True),  # F4
        (path(3, 4, 3, 3), False),  # affine F4
        (path(3, 3, 3, 4), True),  # B5
        (path(4, 3, 3, 4), False),  # affine C4
        (path(5, 3), True),  # H3
        (path(5, 3, 3, 3), False),  # no H5
        (path(3, 5, 3), False),
        (path(6, 3), False),  # affine G2
        (star(1, 1, 5), True),  # D8
        (star(1, 2, 4), True),  # E8
        (star(1, 2, 5), False),  # affine E8
        (star(1, 3, 3), False),  # affine E7
        (star(2, 2, 2), False),  # affine E6
        (star(1, 1, 1, 1), False),  # affine D4
    ],
)
def test_finite_type_classification(graph, finite):
    assert is_finite_type(graph) is finite


@settings(max_examples=300)
@given(coxeter_matrices())
def test_finite_type_is_positive_definiteness(matrix):
    assert is_finite_type(graph_of(matrix)) == positive_definite(matrix)


@settings(max_examples=150)
@given(coxeter_matrices(), st.data())
def test_finite_matrices_build_audited_tables(matrix, data):
    """Infinite matrices are refused; finite ones pass the audit and the scan oracle."""
    if not positive_definite(matrix):
        with pytest.raises(NotFinite):
            build_root_system(matrix)
        return
    table = build_group_table(build_root_system(matrix), audit=True)
    scan = ancestor_scan(table)
    elements = st.lists(st.integers(1, table.order - 1), min_size=1, max_size=4)
    for w in data.draw(elements):
        witnesses = ancestors(table, w).members
        least = min(witnesses)
        assert scan.ancestor_count[w] == len(witnesses)
        assert scan.ancestor[w] == least
        assert scan.max_prefix_length[w] == table.length[least]
        assert scan.stripped[w] == multiply(table, least, w)
