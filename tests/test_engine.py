import dataclasses

import numpy as np
import pytest

from coxanc import (
    build_group,
    build_matrix,
    build_root_system,
    canonical_reduced_word,
    element_from_word,
    element_order,
    is_involution,
    left_descents,
    left_multiply_generator,
    multiply,
    parse_spec,
    support,
)
from coxanc.core import CoxeterMatrix
from coxanc.engine import _audit, _key_layout, _pack, build_group_table
from coxanc.errors import (
    BadLetter,
    InvalidElement,
    NotFinite,
    NumericalInstability,
    OrderGuardExceeded,
)
from helpers import (
    all_reduced_words,
    cayley_bfs_lengths,
    classical_coxeter_number,
    classical_positive_roots,
    left_tables,
    reference_group_table,
    spec_order,
)

TABLE_ARRAYS = (
    "gen_mul", "length", "inverse", "rdesc_bits", "parent", "first_letter",
)


def test_root_counts():
    # A2 closure by hand: alpha1, alpha2, alpha1+alpha2, and negatives
    rs = build_root_system(build_matrix(parse_spec("A2")))
    assert len(rs.roots) == 6
    assert build_root_system(build_matrix(parse_spec("B2"))).num_positive == 4
    for tag in ("A3", "B3", "D4", "F4", "H3", "H4", "I2(7)", "E6"):
        rs = build_root_system(build_matrix(parse_spec(tag)))
        assert rs.num_positive == classical_positive_roots(tag), tag


def test_root_pairing():
    rs = build_root_system(build_matrix(parse_spec("B2")))
    npos = rs.num_positive
    for root in rs.roots:
        mate = rs.roots[rs.negative_of(root.id)]
        assert root.positive != mate.positive
        assert all(a == -b for a, b in zip(root.coords, mate.coords))


@pytest.mark.parametrize("descriptor", ["U2", "I2(inf)", "U3"])
def test_infinite_groups_rejected(descriptor):
    with pytest.raises(NotFinite):
        build_root_system(build_matrix(parse_spec(descriptor)), cap=500)


def test_affine_matrix_rejected(tmp_path):
    path = tmp_path / "affine_a2.cox"
    path.write_text("3\n3 3\n3\n")  # triangle of 3-bonds: affine, infinite
    with pytest.raises(NotFinite):
        build_group(f"file:{path}", root_cap=500)


@pytest.mark.parametrize(
    "descriptor",
    ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "H3", "F4", "I2(7)", "A2xB2", "A1xA1"],
)
def test_group_orders_match_closed_forms(descriptor, group):
    table = group(descriptor)
    assert table.order == spec_order(parse_spec(descriptor))


def test_h3_order_is_degree_product(group):
    assert group("H3").order == 2 * 6 * 10


def test_element_from_word(group):
    t = group("A2")
    assert element_from_word(t, ()) == 0
    assert element_from_word(t, (1, 1)) == 0
    assert element_from_word(t, (1, 2, 1)) == element_from_word(t, (2, 1, 2))
    with pytest.raises(BadLetter):
        element_from_word(t, (3,))


def test_element_from_word_rejects_bool_letters(group):
    t = group("A2")
    for word in [(True, 2), (1, False), (np.bool_(True),)]:
        with pytest.raises(BadLetter):
            element_from_word(t, word)
    # numpy integer letters are still letters
    letters = np.array([1, 2], dtype=np.int8)
    assert element_from_word(t, letters) == element_from_word(t, (1, 2))
    assert element_from_word(t, (np.int64(2),)) == element_from_word(t, (2,))


def test_canonical_words(group):
    t = group("A2")
    assert canonical_reduced_word(t, 0) == ()
    w0 = max(range(t.order), key=lambda w: int(t.length[w]))
    assert canonical_reduced_word(t, w0) == (1, 2, 1)  # lex-least of {121, 212}
    for g in (1, 2):
        assert canonical_reduced_word(t, element_from_word(t, (g,))) == (g,)


def test_left_descents(group):
    t6 = group("A6")
    w = element_from_word(t6, (6, 3, 2, 1, 4, 5))
    assert left_descents(t6, w) == {3, 6}

    t2 = group("A2")
    assert left_descents(t2, element_from_word(t2, (1, 2))) == {1}
    assert left_descents(t2, 0) == frozenset()


def test_is_involution(group):
    t = group("A2")
    assert not is_involution(t, 0)
    assert is_involution(t, element_from_word(t, (1,)))
    assert not is_involution(t, element_from_word(t, (1, 2)))
    assert is_involution(t, element_from_word(t, (1, 2, 1)))


def test_multiply_and_inverse(group):
    t = group("B3")
    rng = np.random.default_rng(7)
    for w in rng.integers(0, t.order, size=40):
        w = int(w)
        assert multiply(t, w, int(t.inverse[w])) == 0
        assert multiply(t, 0, w) == w
    t2 = group("A2")
    r1, r2 = element_from_word(t2, (1,)), element_from_word(t2, (2,))
    assert multiply(t2, r1, r2) == element_from_word(t2, (1, 2))


def test_element_order(group):
    t = group("A2")
    assert element_order(t, 0) == 1
    assert element_order(t, element_from_word(t, (1, 2))) == 3  # Coxeter number of A2
    for w in range(1, t.order):
        if is_involution(t, w):
            assert element_order(t, w) == 2


def test_support(group):
    t = group("A6")
    assert support(t, 0) == frozenset()
    assert support(t, element_from_word(t, (4,))) == {4}
    assert support(t, element_from_word(t, (6, 3, 2, 1, 4, 5))) == {1, 2, 3, 4, 5, 6}


ELEMENT_CALLS = {
    "canonical_reduced_word": canonical_reduced_word,
    "left_descents": left_descents,
    "left_multiply_generator": lambda t, w: left_multiply_generator(t, 1, w),
    "is_involution": is_involution,
    "multiply(u)": lambda t, w: multiply(t, w, 0),
    "multiply(v)": lambda t, w: multiply(t, 0, w),
    "element_order": element_order,
    "support": support,
}


@pytest.mark.parametrize("call", ELEMENT_CALLS.values(), ids=ELEMENT_CALLS.keys())
def test_out_of_range_id_is_invalid_element(call, group):
    # numpy would read id -1 as the last element, the longest one
    t = group("A3")
    for bad in (-1, t.order):
        with pytest.raises(InvalidElement, match=f"element id {bad} outside 0..23"):
            call(t, bad)


@pytest.mark.parametrize("descriptor", ["A3", "B3", "I2(7)", "A2xA2", "H3"])
def test_length_equals_cayley_distance(descriptor, group):
    table = group(descriptor)
    assert cayley_bfs_lengths(table) == table.length.tolist()


@pytest.mark.parametrize("descriptor", ["A3", "B3", "D4", "I2(5)"])
def test_descent_definition(descriptor, group):
    table = group(descriptor)
    for w in range(table.order):
        descents = left_descents(table, w)
        for g in range(1, table.n + 1):
            shorter = int(table.length[left_multiply_generator(table, g, w)]) < int(
                table.length[w]
            )
            assert (g in descents) == shorter


def test_generator_step_changes_length_by_one(group):
    table = group("B3")
    for g in range(table.n):
        diff = np.abs(table.length[table.gen_mul[:, g]] - table.length)
        assert (diff == 1).all()


def test_support_is_reduced_word_invariant(group):
    table = group("A3")
    for w in range(table.order):
        words = all_reduced_words(table, w)
        assert len({frozenset(word) for word in words}) == 1
        assert all(len(word) == int(table.length[w]) for word in words)


@pytest.mark.parametrize("descriptor", ["A2", "B2", "H3", "I2(7)"])
def test_coxeter_number(descriptor, group):
    table = group(descriptor)
    c = element_from_word(table, tuple(range(1, table.n + 1)))
    assert element_order(table, c) == classical_coxeter_number(
        parse_spec(descriptor).components[0]
    )


def test_order_guard(monkeypatch):
    with pytest.raises(OrderGuardExceeded):
        build_group("A3", order_guard=10)
    monkeypatch.setenv("COXANC_ORDER_GUARD", "5")
    with pytest.raises(OrderGuardExceeded):
        build_group("A3")
    monkeypatch.setenv("COXANC_ORDER_GUARD", "100")
    assert build_group("A3").order == 24


def test_ids_are_length_sorted(group):
    table = group("B3")
    assert (np.diff(table.length) >= 0).all()
    # within a length level, ids follow lexicographic order of canonical words
    words = [canonical_reduced_word(table, w) for w in range(table.order)]
    assert words == sorted(words, key=lambda word: (len(word), word))


@pytest.mark.parametrize(
    "descriptor",
    ["B3", "H3", "F4", "A2xB2", "I2(7)", "A2xA2xA2xA2xA2", "x".join(["A1"] * 16)],
)
def test_table_matches_reference_builder(descriptor):
    system = build_root_system(build_matrix(parse_spec(descriptor)))
    table = build_group_table(system)
    ref = reference_group_table(system)
    assert table.order == ref.order
    for name in TABLE_ARRAYS:
        got, want = getattr(table, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_rank_16_keys_span_two_words():
    system = build_root_system(build_matrix(parse_spec("x".join(["A1"] * 16))))
    bits, words = _key_layout(system)
    assert (bits, words) == (5, 2)  # 16 images of 5 bits: 80 bits, image 13 straddles
    # every single-image change gives a different key, in either word
    rows = np.zeros((16 * 32, 16), dtype=np.int32)
    for i in range(16):
        rows[32 * i:32 * (i + 1), i] = np.arange(32)
    distinct_rows = np.unique(rows, axis=0)
    assert len(np.unique(_pack(distinct_rows, bits, words), axis=0)) == len(distinct_rows)


def _unaudited(descriptor):
    table = build_group(descriptor, audit=False)
    return table, np.stack(left_tables(table), axis=1)


def test_audit_accepts_built_table():
    _audit(*_unaudited("B3"))


def test_audit_rejects_swapped_gen_mul_entries():
    table, left = _unaudited("B3")
    gen_mul = table.gen_mul.copy()
    x, y = 5, 17
    assert gen_mul[x, 0] not in (x, y)
    gen_mul[[x, y], 0] = gen_mul[[y, x], 0]
    with pytest.raises(NumericalInstability, match="not an involution"):
        _audit(dataclasses.replace(table, gen_mul=gen_mul), left)


def test_audit_rejects_wrong_braid_order():
    system = build_root_system(build_matrix(parse_spec("A3")))
    rows = [list(row) for row in system.matrix.rows]
    rows[0][1] = rows[1][0] = 4  # the roots of A3 satisfy (r1 r2)^3 = 1
    wrong = dataclasses.replace(system, matrix=CoxeterMatrix.from_rows(rows))
    with pytest.raises(NumericalInstability, match="order 3, expected 4"):
        build_group_table(wrong)


def test_audit_rejects_non_involutive_inverse():
    table, left = _unaudited("B3")
    inverse = table.inverse.copy()
    x = next(w for w in range(table.order) if inverse[w] != w)
    inverse[x] = x
    with pytest.raises(NumericalInstability, match="inverse table is not an involution"):
        _audit(dataclasses.replace(table, inverse=inverse), left)
